import inspect
import sys
from itertools import product

import pytest

from relog.algebra import (
    FiniteAlgebra,
    builtin_belnap_m,
    builtin_boolean2,
    builtin_crystal,
    power,
    subalgebra,
)
from relog.amalgam import Span, amalgamate_span, is_extensible
from relog.errors import SizeCapExceeded
from relog.morph import automorphisms, embeddings, homomorphisms, isomorphisms
from relog.subcon import all_subuniverses
from tests_oracle_helper import (
    brute_force_maps,
    compose,
    identity_morphism,
    is_automorphism,
    preserves_operations,
)

C = builtin_crystal()
B2 = builtin_boolean2()
M = builtin_belnap_m()

BOT, T, A, B, F, TOP = range(6)


def _asymmetric_crystal():
    """Crystal with fusion broken one-sidedly at (a,b): the a/b swap dies."""
    fusion = [list(row) for row in C.fusion]
    fusion[B][A] = F
    return FiniteAlgebra("crystal_skew", C.elements, C.meet, C.join, fusion, C.neg)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_endomorphisms_of_crystal():
    homs = homomorphisms(C, C)
    assert len(homs) == 4
    assert sum(1 for h in homs if h.is_isomorphism) == 2
    assert identity_morphism(C) in homs
    # maps come out lexicographically ordered
    assert [h.mapping for h in homs] == sorted(h.mapping for h in homs)


def test_morphism_search_cap():
    # 128 * 64 = 8192 source-target pairs, over the default cap of 4096
    with pytest.raises(SizeCapExceeded):
        homomorphisms(power(B2, 7), power(B2, 6))


def test_all_returned_morphisms_preserve_operations():
    for h in homomorphisms(C, C) + homomorphisms(B2, C) + homomorphisms(M, M):
        assert preserves_operations(h)


def test_homs_from_boolean2_hit_complemented_idempotent_pairs():
    for h in homomorphisms(B2, C):
        lo, hi = h.mapping
        assert C.neg[lo] == hi
        assert C.fusion[lo][lo] == lo and C.fusion[hi][hi] == hi
    assert len(homomorphisms(B2, C)) == 3


def test_automorphisms_of_crystal_are_identity_and_swap():
    autos = automorphisms(C)
    assert [a.mapping for a in autos] == [
        (BOT, T, A, B, F, TOP),
        (BOT, T, B, A, F, TOP),
    ]


def test_automorphism_group_closure():
    for algebra in (C, M):
        autos = automorphisms(algebra)
        mappings = {a.mapping for a in autos}
        assert identity_morphism(algebra).mapping in mappings
        for f, g in product(autos, repeat=2):
            assert compose(f, g).mapping in mappings
        for f in autos:
            inverse = [None] * algebra.size
            for x, v in enumerate(f.mapping):
                inverse[v] = x
            assert tuple(inverse) in mappings


def test_isomorphisms_between_three_element_subalgebras():
    s3a = subalgebra(C, (BOT, A, TOP))
    s3b = subalgebra(C, (BOT, B, TOP))
    isos = isomorphisms(s3a, s3b)
    assert len(isos) == 1
    assert isos[0].mapping == (0, 1, 2)  # bot->bot, a->b, top->top


def test_fourchain_of_crystal_is_rigid():
    chain = subalgebra(C, (BOT, T, F, TOP))
    assert [a.mapping for a in automorphisms(chain)] == [(0, 1, 2, 3)]


def test_isomorphisms_size_mismatch():
    assert isomorphisms(B2, C) == []


def test_embeddings_of_two_element_subalgebra():
    s2 = subalgebra(C, (BOT, TOP))
    for target_members in all_subuniverses(C, proper_nonempty_only=True):
        if len(target_members) < 2:
            continue
        target = subalgebra(C, target_members)
        assert len(embeddings(s2, target)) == 1


@pytest.mark.parametrize("algebra, count", [
    (power(C, 2), 8),    # the a/b swap on each coordinate, and the coordinate swap
    (power(M, 2), 8),
    (power(B2, 5), 120),  # the permutations of the five coordinates
])
def test_automorphisms_of_products(algebra, count):
    autos = automorphisms(algebra)
    maps = [a.mapping for a in autos]
    assert len(set(maps)) == len(maps) == count
    assert maps == sorted(maps)
    assert all(is_automorphism(a) for a in autos)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_homomorphisms_from_boolean_powers_are_the_projections(k):
    # coordinate i of element x of boolean2^k is bit k-1-i of x
    projections = [tuple(x >> (k - 1 - i) & 1 for x in range(2 ** k)) for i in range(k)]
    assert [h.mapping for h in homomorphisms(power(B2, k), B2)] == sorted(projections)


def test_commutative_source_into_noncommutative_target():
    """With fusion the right projection, the identity on boolean2 preserves
    x·y for x = 1, y = 0 but not y·x: a search that checks one argument order
    because the source alone commutes accepts it, and there are no maps."""
    right = FiniteAlgebra("boolean2-right", B2.elements, B2.meet, B2.join,
                          [[0, 1], [0, 1]], B2.neg)
    for source, target in ((B2, right), (right, B2)):
        assert [h.mapping for h in homomorphisms(source, target)] == [
            h.mapping for h in brute_force_maps(source, target)]
    assert homomorphisms(B2, right) == []


def test_search_that_branches_on_every_element_does_not_recurse():
    """In a source whose products are left projections and whose neg is the
    identity, nothing is forced: the search branches once per element."""
    n = 300
    left = [[x] * n for x in range(n)]
    source = FiniteAlgebra("left-projections", [f"e{x}" for x in range(n)],
                           left, left, left, range(n))
    point = FiniteAlgebra("point", ["e"], [[0]], [[0]], [[0]], [0])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        homs = homomorphisms(source, point)
    finally:
        sys.setrecursionlimit(limit)
    assert [h.mapping for h in homs] == [(0,) * n]


# ---------------------------------------------------------------------------
# Extensibility
# ---------------------------------------------------------------------------

def test_crystal_is_extensible_with_certificates():
    report = is_extensible(C)
    assert report.extensible
    assert report.failure is None
    assert report.certificates
    for cert in report.certificates:
        s1, s2, phi, auto = (cert.left_members, cert.right_members,
                             cert.iso, cert.extension)
        assert is_automorphism(auto)
        for i in range(len(s1)):
            assert auto.mapping[s1[i]] == s2[phi.mapping[i]]
    # the a|b swap shows up as the extension of the 3-element subalgebra iso
    swaps = [c for c in report.certificates
             if c.left_members == (BOT, A, TOP) and c.right_members == (BOT, B, TOP)]
    assert swaps and swaps[0].extension.mapping == (BOT, T, B, A, F, TOP)


def test_boolean2_is_extensible_vacuously():
    report = is_extensible(B2)
    assert report.extensible


def test_belnap_m_is_not_extensible():
    """{n3,p3} and {n2,p2} are isomorphic 2-chains, but no automorphism moves
    the bottom; consistent with the amalgamation failure for this variety."""
    report = is_extensible(M)
    assert not report.extensible
    s1, s2, phi = report.failure
    assert M.names(s1) == ("n3", "p3")
    assert M.names(s2) == ("n2", "p2")


def test_asymmetric_crystal_is_not_extensible():
    report = is_extensible(_asymmetric_crystal())
    assert not report.extensible
    s1, s2, phi = report.failure
    assert len(s1) == len(s2) >= 2


# ---------------------------------------------------------------------------
# Amalgamation
# ---------------------------------------------------------------------------

def test_degenerate_span_amalgamates_in_itself():
    apex = subalgebra(C, (BOT, A, TOP))
    span = Span(identity_morphism(apex), identity_morphism(apex))
    result = amalgamate_span(span, mode="AP", generator=C)
    assert result is not None
    assert result.commutes()


def test_flagship_span_amalgamates_in_crystal():
    apex = subalgebra(C, (BOT, A, TOP))
    left = embeddings(apex, subalgebra(C, (BOT, T, A, F, TOP)))[0]
    right = embeddings(apex, subalgebra(C, (BOT, T, B, F, TOP)))[0]
    amalgam = amalgamate_span(Span(left, right), mode="AP", generator=C)
    assert amalgam is not None
    (arm_left, arm_right), = amalgam.family
    assert arm_left.target == C and amalgam.target_name == "crystal"
    assert amalgam.commutes()
    assert arm_left.is_embedding and arm_right.is_embedding
    for row in amalgam.evidence():
        assert row["via_left"] == row["via_right"]


def test_every_crystal_span_amalgamates_at_bound_one():
    nontrivial = [s for s in all_subuniverses(C) if len(s) >= 2]
    algebras = {s: subalgebra(C, s) for s in nontrivial}
    spans = 0
    for apex_members in nontrivial:
        apex = algebras[apex_members]
        for left_members in nontrivial:
            for right_members in nontrivial:
                for left in embeddings(apex, algebras[left_members]):
                    for right in embeddings(apex, algebras[right_members]):
                        spans += 1
                        result = amalgamate_span(Span(left, right), mode="AP", generator=C)
                        assert result is not None, (apex_members, left_members, right_members)
                        assert [h.target for h, _ in result.family] == [C]
                        assert result.commutes()
    assert spans == 173


def test_tip_mode_allows_non_injective_left_leg():
    apex = subalgebra(C, (BOT, TOP))
    one = subalgebra(C, (A,))
    collapse = homomorphisms(apex, one)[0]
    include = embeddings(apex, C)[0]
    span = Span(collapse, include)
    result = amalgamate_span(span, mode="TIP", generator=C)
    assert result is not None
    (arm_left, _), = result.family
    assert arm_left.is_embedding
    assert result.commutes()


def test_ap_mode_rejects_non_injective_leg():
    apex = subalgebra(C, (BOT, TOP))
    one = subalgebra(C, (A,))
    collapse = homomorphisms(apex, one)[0]
    with pytest.raises(ValueError):
        amalgamate_span(Span(collapse, collapse), mode="AP", generator=C)


def test_not_found_is_a_value():
    """A span whose legs disagree on a forced element can fail."""
    skew = _asymmetric_crystal()
    apex = subalgebra(skew, (BOT, A, TOP))
    left = embeddings(apex, subalgebra(skew, (BOT, T, A, F, TOP)))
    right = embeddings(apex, subalgebra(skew, (BOT, T, B, F, TOP)))
    if left and right:
        result = amalgamate_span(Span(left[0], right[0]), mode="AP", generator=skew)
        assert result is None or result.commutes()


def test_belnap_m_chain_span_has_no_amalgam_in_the_variety():
    # The span n2 <- n3, p3 -> p2 sends the chain's ends to its middle.  No
    # commuting pair into an SI member of HS(belnap-m) separates n3 from n2:
    # a proof that V(belnap-m) holds no amalgam, where the bounded search
    # could only stop at belnap-m^2, past its subuniverse cap.
    apex = subalgebra(M, (M.el("n3"), M.el("p3")))
    chain = subalgebra(M, tuple(M.el(e) for e in ("n3", "n2", "p2", "p3")))
    legs = {leg.mapping: leg for leg in embeddings(apex, chain)}
    span = Span(legs[(0, 3)], legs[(1, 2)])
    result = amalgamate_span(span, mode="AP", generator=M)
    assert result is None
