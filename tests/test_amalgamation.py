"""The exact amalgam decision in V(A) against the bounded search it replaced
(`reference_amalgam_in_powers`), and every family it returns re-checked from
the tables: each arm a homomorphism, each pair commuting on the apex, the
arms jointly injective on B, and on C in AP mode."""

import pytest

from relog import amalgam, reproduce
from relog.algebra import builtin, builtin_crystal, product, subalgebra
from relog.amalgam import Span, all_spans, amalgamate_span
from relog.errors import RelogError, SizeCapExceeded
from relog.morph import Morphism
from relog.reproduce import _item_amalgamation
from tests_oracle_helper import (
    NOT_A_LATTICE,
    assert_family_is_an_amalgam,
    identity_morphism,
    preserves_operations,
    reference_amalgam_in_powers,
    renamed,
)


def _crystal_times_boolean2():
    return product([builtin("crystal"), builtin("boolean2")])


@pytest.mark.parametrize("name, bound, misses", [
    ("crystal", 1, 0), ("belnap-m", 1, 216), ("boolean2", 2, 0),
])
def test_exact_decision_finds_every_amalgam_the_power_search_finds(name, bound, misses):
    generator = builtin(name)
    missed = []
    for span in all_spans(generator):
        expected = reference_amalgam_in_powers(span, generator, "AP", bound)
        result = amalgamate_span(span, generator, "AP")
        if expected is None:
            missed.append(span)
            assert result is None
            continue
        assert result is not None
        assert_family_is_an_amalgam(span, result.family, "AP")
        if expected[0].target == generator:
            # an amalgam in the generator comes first, the same one
            assert result.family == (expected,)
    assert len(missed) == misses


def test_belnap_m_square_is_past_the_power_search_cap():
    # so bound 1 is as far as the old search went on belnap-m; the exact
    # decision's 216 "none" verdicts are proofs, not bounded misses
    generator = builtin("belnap-m")
    span = next(s for s in all_spans(generator)
                if reference_amalgam_in_powers(s, generator, "AP", 1) is None)
    with pytest.raises(SizeCapExceeded):
        reference_amalgam_in_powers(span, generator, "AP", 2)
    assert amalgamate_span(span, generator, "AP") is None


def test_crystal_times_boolean2_spans_amalgamate_through_families():
    generator = _crystal_times_boolean2()
    sizes = []
    for span in all_spans(generator):
        result = amalgamate_span(span, generator, "AP")
        assert result is not None
        family = result.family
        assert_family_is_an_amalgam(span, family, "AP")
        assert result.commutes()
        in_generator = family[0][0].target == generator
        assert in_generator == (reference_amalgam_in_powers(span, generator) is not None)
        sizes.append(1 if in_generator else -len(family))
    assert len(sizes) == 1088
    assert sizes.count(1) == 764
    assert min(sizes) < -1  # some spans need a family of more than one pair


def test_tip_span_with_a_collapsing_left_leg_amalgamates_through_a_family():
    generator = _crystal_times_boolean2()
    square = subalgebra(generator, [generator.el(e) for e in ("bot.0", "bot.1", "top.0", "top.1")])
    chain = subalgebra(generator, [generator.el(e) for e in
                                   ("bot.0", "bot.1", "a.0", "a.1", "top.0", "top.1")])
    # the left leg sends (x, y) to (x, x): it forgets the boolean2 coordinate
    collapse = Morphism(square, square, (0, 0, 3, 3))
    assert preserves_operations(collapse) and not collapse.is_injective
    span = Span(collapse, Morphism(square, chain, (0, 1, 4, 5)))
    assert reference_amalgam_in_powers(span, generator, "TIP", 1) is None
    result = amalgamate_span(span, generator, "TIP")
    assert result is not None
    family = result.family
    assert len(family) == 2
    assert_family_is_an_amalgam(span, family, "TIP")
    with pytest.raises(ValueError):
        amalgamate_span(span, generator, "AP")


def test_crystal_spans_never_build_the_hs_class(monkeypatch):
    def refuse(algebra):
        raise AssertionError("hs_class called")

    fresh = renamed(builtin_crystal(), "crystal")
    monkeypatch.setattr(reproduce, "builtin_crystal", lambda: fresh)
    monkeypatch.setattr(amalgam, "hs_class", refuse)
    assert _item_amalgamation() == (
        True, "173 spans searched, 0 without an amalgam in the generator")


def test_a_sweep_builds_the_targets_once(monkeypatch):
    calls = []
    real = amalgam.hs_class
    monkeypatch.setattr(amalgam, "hs_class", lambda a: calls.append(a) or real(a))
    generator = renamed(builtin("belnap-m"), "belnap-m")
    misses = sum(amalgamate_span(s, generator, "AP") is None for s in all_spans(generator))
    assert (misses, calls) == (216, [generator])


def test_generator_off_a_lattice_is_refused_before_any_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr(amalgam, "_search_maps", refuse)
    identity = identity_morphism(NOT_A_LATTICE)
    with pytest.raises(RelogError, match="not a lattice"):
        amalgamate_span(Span(identity, identity), NOT_A_LATTICE, "AP")


def test_trivial_span_amalgamates_in_the_empty_product():
    # boolean2 has no one-element subalgebra, so no amalgam lies in it, but
    # nothing needs separating: the trivial algebra is the amalgam
    one = subalgebra(builtin_crystal(), (builtin_crystal().el("a"),))
    identity = identity_morphism(one)
    result = amalgamate_span(Span(identity, identity), builtin("boolean2"), "AP")
    assert result is not None
    assert result.family == ()
    assert result.commutes()


def test_targets_are_the_maximal_si_members_of_the_hs_class():
    # crystal x boolean2 is not SI; its SI quotients are crystal and its
    # subalgebras, and all of them embed in crystal
    generator = _crystal_times_boolean2()
    assert [(d.size, amalgam.is_fsi(d)) for d in amalgam._si_targets(generator)] \
        == [(6, True)]
    # belnap-m's 3-element chain quotient embeds in no 8-element member
    belnap = builtin("belnap-m")
    assert [d.size for d in amalgam._si_targets(belnap)] == [3, 8]


def test_targets_are_named_after_their_own_generator():
    # equal tables make equal algebras, whatever their names, yet each
    # algebra builds its own targets
    generator = _crystal_times_boolean2()
    twin = renamed(generator, "twin")
    assert twin == generator
    for algebra in (generator, twin):
        assert all(d.name.startswith(algebra.name + "[") for d in amalgam._si_targets(algebra))
        span = next(s for s in all_spans(algebra)
                    if amalgamate_span(s, algebra, "AP").family[0][0].target != algebra)
        family = amalgamate_span(span, algebra, "AP").family
        assert all(h.target.name.startswith(algebra.name + "[") for h, _ in family)


def test_a_family_that_disagrees_on_the_apex_does_not_commute():
    generator = builtin_crystal()
    span = next(all_spans(generator))
    (h, k), = amalgamate_span(span, generator, "AP").family
    moved = Morphism(k.source, k.target, tuple(k.target.neg[v] for v in k.mapping))
    assert not amalgam.Amalgam(span, ((h, moved),)).commutes()
