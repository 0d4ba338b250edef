import json
import os
from itertools import combinations, product

import pytest

from relog import subcon
from relog.algebra import (
    FiniteAlgebra,
    builtin,
    builtin_belnap_m,
    builtin_boolean2,
    builtin_crystal,
    power,
    product as direct_product,
    quotient,
    subalgebra,
    validate_relevant_algebra,
)
from relog.errors import NotACongruence, SizeCapExceeded, UnknownElement
from relog.subcon import (
    Congruence,
    all_subuniverses,
    check_cep_class,
    check_cep_pair,
    congruence_from_pairs,
    congruence_join,
    congruence_lattice,
    full_congruence,
    generated_subuniverse,
    hs_class,
    identity_congruence,
    is_fsi,
    is_simple,
    principal_congruence,
)
from tests_oracle_helper import (
    IMPLICATION_FUSION,
    LEFT_BLIND_MEET,
    NOT_A_LATTICE,
    SKEW_MEET,
    brute_force_congruence_lattice,
    brute_force_principal_congruences,
    congruence_meet,
    is_closed,
    powerset_subuniverses,
    reference_simple_and_fsi,
    reference_subuniverses,
    renamed,
)

C = builtin_crystal()
B2 = builtin_boolean2()
M = builtin_belnap_m()

# The proper subalgebra universes of the crystal algebra, by element name.
CRYSTAL_PROPER_UNIVERSES = [
    ("a",),
    ("b",),
    ("bot", "top"),
    ("bot", "a", "top"),
    ("bot", "b", "top"),
    ("bot", "t", "f", "top"),
    ("bot", "t", "a", "f", "top"),
    ("bot", "t", "b", "f", "top"),
]


# ---------------------------------------------------------------------------
# Subuniverses
# ---------------------------------------------------------------------------

def test_generated_subuniverse_singletons():
    assert generated_subuniverse(C, {C.el("a")}) == (C.el("a"),)
    assert generated_subuniverse(C, {C.el("t")}) == tuple(
        sorted(C.el(e) for e in ("bot", "t", "f", "top"))
    )
    assert generated_subuniverse(C, set()) == ()


@pytest.mark.parametrize("seed", [{-1}, {6}, {7}, {C.el("a"), 100}])
def test_generated_subuniverse_rejects_seeds_out_of_range(seed):
    with pytest.raises(UnknownElement):
        generated_subuniverse(C, seed)


@pytest.mark.parametrize(
    "algebra",
    [C, B2, M, power(B2, 3), NOT_A_LATTICE, IMPLICATION_FUSION, LEFT_BLIND_MEET,
     SKEW_MEET],
    ids=lambda a: a.name,
)
def test_all_subuniverses_matches_powerset_oracle(algebra):
    assert all_subuniverses(algebra) == powerset_subuniverses(algebra)


@pytest.mark.parametrize(
    "algebra, universes",
    [(power(C, 2), 94), (power(B2, 5), 53), (power(M, 2), 106),
     (direct_product([LEFT_BLIND_MEET, SKEW_MEET, IMPLICATION_FUSION]), 46)],
    ids=["crystal^2", "boolean2^5", "belnap-m^2", "left-blind.skew.implication"],
)
def test_all_subuniverses_of_products_match_the_reference(monkeypatch, algebra, universes):
    """Products of 24 to 64 elements, member masks of three to eight bytes;
    the last product's tables are not commutative.  Close-by-One appends each
    universe once: each becomes a member tuple once, at the end, so as many
    tuples are made as there are universes, all of them distinct."""
    made = []
    real = subcon._members
    monkeypatch.setattr(subcon, "_members", lambda mask: made.append(mask) or real(mask))
    found = all_subuniverses(algebra, cap=algebra.size)
    assert len(found) == universes
    assert len(made) == len(set(made)) == universes
    assert found == reference_subuniverses(algebra)


def test_close_by_one_closes_crystal_square_213_times(monkeypatch):
    """36 closures of the one-generated <x>, then 177 for the 93 nonempty
    universes: the union and the inherited closures rule out the other
    non-canonical extensions without closing them."""
    calls = []
    real = subcon._grow
    monkeypatch.setattr(subcon, "_grow", lambda *args: calls.append(args) or real(*args))
    assert len(all_subuniverses(power(C, 2), cap=36)) == 94
    assert len(calls) == 36 + 177


def test_crystal_proper_universes_are_the_known_eight():
    proper = all_subuniverses(C, proper_nonempty_only=True)
    assert [C.names(s) for s in proper] == CRYSTAL_PROPER_UNIVERSES


def test_boolean2_has_no_proper_nonempty_subuniverse():
    assert all_subuniverses(B2, proper_nonempty_only=True) == []


def test_every_subuniverse_is_closed():
    for s in all_subuniverses(C):
        assert is_closed(C, s)


def test_closure_tables_are_built_once_per_algebra():
    """Kept as long as their algebra, however many algebras are closed in
    between, and built anew for another algebra object, even an equal one."""
    crystal = renamed(C, "crystal")
    assert all_subuniverses(crystal) == all_subuniverses(C)
    tables, rows = subcon._closure_tables(crystal), subcon._congruence_rows(crystal)
    square = power(C, 2)
    others = [subalgebra(square, s)
              for s in all_subuniverses(square, cap=square.size) if len(s) > 1][:17]
    for other in others:
        all_subuniverses(other)
        congruence_lattice(other)
    assert len(others) == 17
    assert subcon._closure_tables(crystal) is tables
    assert subcon._congruence_rows(crystal) is rows
    assert subcon._closure_tables(renamed(C, "crystal")) is not tables


def test_subuniverse_cap():
    with pytest.raises(SizeCapExceeded):
        all_subuniverses(C, cap=3)
    with pytest.raises(SizeCapExceeded):
        all_subuniverses(power(B2, 5))  # 32 elements, over the default of 24


# ---------------------------------------------------------------------------
# Congruences
# ---------------------------------------------------------------------------

def test_principal_congruence_reflexive_case():
    theta = principal_congruence(C, 2, 2)
    assert theta.is_identity


def test_fourchain_principal_congruences_collapse():
    chain = subalgebra(C, tuple(C.el(e) for e in ("bot", "t", "f", "top")))
    f, t, top = chain.el("f"), chain.el("t"), chain.el("top")
    assert principal_congruence(chain, f, t).is_full
    theta = principal_congruence(chain, top, t)
    assert theta.related(f, t)
    assert theta.is_full


def test_congruence_lattice_of_crystal_is_two_element():
    lattice = congruence_lattice(C)
    assert len(lattice) == 2
    assert identity_congruence(C) in lattice
    assert full_congruence(C) in lattice


def test_all_nontrivial_subalgebras_of_crystal_are_simple():
    for members in all_subuniverses(C, proper_nonempty_only=True):
        if len(members) < 2:
            continue
        assert is_simple(subalgebra(C, members))
    assert is_simple(C)


def test_one_element_algebra_congruences():
    one = quotient(C, [list(range(C.size))])
    lattice = congruence_lattice(one)
    assert len(lattice) == 1
    assert lattice[0].is_identity and lattice[0].is_full
    assert not is_simple(one)


def test_congruences_pass_compatibility_invariant():
    for algebra in (C, M, subalgebra(M, (0, 2, 5, 7))):
        for theta in congruence_lattice(algebra):
            # re-run the internal compatibility check explicitly
            assert Congruence(algebra, theta.blocks).block_of == theta.block_of


def test_congruence_lattice_closed_under_meet():
    for algebra in (C, M):
        lattice = congruence_lattice(algebra)
        for theta, phi in product(lattice, repeat=2):
            assert congruence_meet(theta, phi) in lattice


def test_principal_congruence_is_least():
    """principal(x,y) is contained in every congruence relating x and y."""
    for algebra in (C, subalgebra(M, (0, 2, 5, 7)), M):
        lattice = congruence_lattice(algebra)
        for x, y in combinations(range(algebra.size), 2):
            theta = principal_congruence(algebra, x, y)
            for phi in lattice:
                if phi.related(x, y):
                    for block in theta.blocks:
                        for u, v in combinations(block, 2):
                            assert phi.related(u, v)


def test_congruence_join_is_least_upper_bound():
    chain = subalgebra(M, (0, 2, 5, 7))
    lattice = congruence_lattice(chain)
    for theta, phi in product(lattice, repeat=2):
        joined = congruence_join(theta, phi)
        assert joined in lattice
        for x, y in combinations(range(chain.size), 2):
            if theta.related(x, y) or phi.related(x, y):
                assert joined.related(x, y)


CONGRUENCE_ORACLE_CASES = {
    "builtins": lambda: [C, M, B2],
    "Sub(crystal)": lambda: [subalgebra(C, s) for s in all_subuniverses(C) if s],
    "Sub(belnap-m)": lambda: [subalgebra(M, s) for s in all_subuniverses(M) if s],
    "HS(crystal)": lambda: hs_class(C) + [quotient(C, full_congruence(C))],
    "HS(belnap-m)": lambda: hs_class(M) + [quotient(M, full_congruence(M))],
    "boolean2^3": lambda: [power(B2, 3)],
    "crystal x boolean2": lambda: [direct_product([C, B2])],
    "crystal^2": lambda: [power(C, 2)],
    "boolean2^5": lambda: [power(B2, 5)],
    "not-a-lattice": lambda: [NOT_A_LATTICE],
}


@pytest.mark.parametrize("case", CONGRUENCE_ORACLE_CASES)
def test_congruence_lattice_matches_all_pairs_oracle(case):
    for algebra in CONGRUENCE_ORACLE_CASES[case]():
        assert congruence_lattice(algebra) == brute_force_congruence_lattice(algebra), \
            algebra.name


@pytest.mark.parametrize(
    "algebra",
    [C, M, B2, NOT_A_LATTICE, IMPLICATION_FUSION, LEFT_BLIND_MEET, SKEW_MEET],
    ids=lambda a: a.name,
)
def test_principal_congruence_matches_partition_oracle(algebra):
    for (x, y), labels in brute_force_principal_congruences(algebra).items():
        assert principal_congruence(algebra, x, y).block_of == labels, (x, y)


def _count_seed_closures(monkeypatch, algebra):
    """Closures the lattice starts from the identity partition: one per
    generating pair."""
    calls = []
    real = subcon._close

    def counting(rows, labels, pairs):
        if labels == subcon._IDENTITY_LABELS:
            calls.append(pairs)
        return real(rows, labels, pairs)

    monkeypatch.setattr(subcon, "_close", counting)
    congruence_lattice(algebra)
    return len(calls)


def test_congruence_lattice_of_crystal_square_uses_covering_pairs(monkeypatch):
    # crystal has 6 covers, so crystal^2 has 6 * 6 * 2 = 72 (of 630 pairs);
    # perspectivity puts them in 8 classes, one closure each
    assert _count_seed_closures(monkeypatch, power(C, 2)) == 8


def test_congruence_lattice_falls_back_to_all_pairs_off_a_lattice(monkeypatch):
    assert not all(r.holds for r in validate_relevant_algebra(
        NOT_A_LATTICE, axioms=subcon.LATTICE_AXIOMS))
    assert len(congruence_lattice(NOT_A_LATTICE)) == 4
    assert _count_seed_closures(monkeypatch, NOT_A_LATTICE) == 6


def _projections(n):
    """n elements, every binary table the left projection x op y = x, neg the
    identity: every partition is a congruence."""
    left = [[x] * n for x in range(n)]
    return FiniteAlgebra(f"projections{n}", [f"e{i}" for i in range(n)],
                         left, left, left, range(n))


def test_congruence_closures_label_at_most_256_elements():
    widest = _projections(256)
    theta = principal_congruence(widest, 0, 255)
    assert theta.blocks[0] == (0, 255) and len(theta.blocks) == 255
    assert congruence_join(theta, principal_congruence(widest, 1, 255)).blocks[0] == (0, 1, 255)
    past = _projections(257)
    delta = identity_congruence(past)
    for call in (lambda: principal_congruence(past, 0, 1),
                 lambda: congruence_from_pairs(past, [(0, 1)]),
                 lambda: congruence_join(delta, delta),
                 lambda: is_simple(past),
                 lambda: is_fsi(past)):
        with pytest.raises(SizeCapExceeded, match="at most 256 elements"):
            call()


@pytest.mark.parametrize("pair", [(-1, 0), (0, 6), (6, 7), (2, 256)])
def test_principal_congruence_rejects_elements_out_of_range(pair):
    with pytest.raises(UnknownElement):
        principal_congruence(C, *pair)


def test_belnap_fourchain_has_middle_congruence():
    """The n3 < n1 < p1 < p3 subalgebra of Belnap's model is FSI but not simple:
    merging n1 with p1 is compatible."""
    chain = subalgebra(M, (0, 2, 5, 7))
    lattice = congruence_lattice(chain)
    assert len(lattice) == 3
    assert not is_simple(chain)
    assert is_fsi(chain)
    middle = [c for c in lattice if not c.is_identity and not c.is_full]
    assert middle[0].blocks == ((0,), (1, 2), (3,))


def test_belnap_m_is_simple():
    assert is_simple(M)


def test_simple_implies_fsi():
    for algebra in (C, B2, M):
        assert is_simple(algebra)
        assert is_fsi(algebra)


_SIMPLE_AND_FSI_CASES = [
    C, M, B2, *(d for algebra in (C, M, B2) for d in hs_class(algebra)),
    power(B2, 5), power(C, 2), power(M, 2), direct_product([C, B2]),
    quotient(C, [list(range(C.size))]), subalgebra(C, ()), NOT_A_LATTICE,
]


@pytest.mark.parametrize("algebra", _SIMPLE_AND_FSI_CASES, ids=lambda a: a.name)
def test_simple_and_fsi_match_the_lattice_definitions(algebra):
    assert (is_simple(algebra), is_fsi(algebra)) == \
        reference_simple_and_fsi(congruence_lattice(algebra))


def test_simple_and_fsi_are_decided_past_the_congruence_lattice_cap():
    big = power(B2, 7)  # 128 elements, over DEFAULT_CONGRUENCE_CAP
    assert (is_simple(big), is_fsi(big)) == (False, False)


def test_square_of_boolean2_is_not_fsi():
    from relog.algebra import power

    sq = power(B2, 2)
    assert not is_simple(sq)
    assert not is_fsi(sq)


def test_congruence_lattice_cap():
    with pytest.raises(SizeCapExceeded):
        congruence_lattice(power(B2, 7))  # 128 elements, over the default of 100


def test_subalgebra_congruence_caps():
    """Con(S) refuses more than 100 members, and a subalgebra of an algebra
    past 256 elements is refused, since S's rows are the ambient algebra's
    byte rows."""
    cube = power(B2, 7)
    with pytest.raises(SizeCapExceeded, match="exceeds cap 100"):
        check_cep_pair(cube, range(cube.size), big_lattice=[])
    # the last two coordinates equal: a copy of boolean2^6, with 64 congruences
    diagonal = [x for x in range(cube.size) if x & 1 == x >> 1 & 1]
    assert len(check_cep_pair(cube, diagonal, big_lattice=[])) == 64
    with pytest.raises(SizeCapExceeded, match="at most 256 elements"):
        check_cep_pair(power(B2, 9), (0,), big_lattice=[])


def test_not_a_congruence_raises():
    with pytest.raises(NotACongruence):
        Congruence(C, [[0, 1], [2], [3], [4], [5]])


# ---------------------------------------------------------------------------
# Congruence extension
# ---------------------------------------------------------------------------

def test_cep_pairs_inside_crystal_all_extend():
    for members in all_subuniverses(C, proper_nonempty_only=True):
        for witness in check_cep_pair(C, members):
            assert witness.extendable
            restriction = witness.extension.restrict(members)
            assert restriction == witness.theta.blocks


def test_cep_checks_build_no_subalgebra(monkeypatch):
    """Con of each subalgebra is closed on the big algebra's rows: the CEP
    checks and the witnesses' descriptions never build a subalgebra."""
    classes = hs_class(M)
    square = power(C, 2)
    universes = [s for s in all_subuniverses(square, cap=square.size) if s]

    def refuse(algebra, members):
        raise AssertionError("subalgebra built")

    monkeypatch.setattr(subcon, "subalgebra", refuse)
    verdict, failures, checked = check_cep_class(classes)
    assert (verdict, len(failures), checked) == (False, 3, 49)
    assert all("NOT extendable" in w.describe() for w in failures)
    lattice = congruence_lattice(square)
    assert all(w.extendable for s in universes
               for w in check_cep_pair(square, s, big_lattice=lattice))


@pytest.mark.parametrize("algebras, expected", [
    (lambda: hs_class(C), (True, 0, 36)),
    (lambda: hs_class(M), (False, 3, 49)),
    (lambda: [subalgebra(C, ())], (True, 0, 0)),
    (lambda: [quotient(C, [list(range(C.size))])], (True, 0, 1)),
], ids=["HS(crystal)", "HS(belnap-m)", "empty", "one-element"])
def test_cep_class_counts_each_whole_universe_without_closing_it(monkeypatch, algebras,
                                                               expected):
    """Every congruence of B extends to itself, so B's whole universe counts
    len(Con(B)) witnesses and is never passed to `check_cep_pair`; the
    proper nonempty universes give the rest of `checked`."""
    algebras, pairs = algebras(), []
    check = subcon.check_cep_pair

    def counted(algebra, members, big_lattice=None):
        assert 0 < len(members) < algebra.size
        witnesses = check(algebra, members, big_lattice=big_lattice)
        pairs.append(len(witnesses))
        return witnesses

    monkeypatch.setattr(subcon, "check_cep_pair", counted)
    verdict, failures, checked = check_cep_class(algebras)
    assert (verdict, len(failures), checked) == expected
    assert checked == sum(pairs) + sum(len(congruence_lattice(a)) for a in algebras if a.size)


def test_cep_witness_builds_theta_on_first_read():
    witness = [w for w in check_cep_pair(M, (0, 2, 5, 7)) if not w.extendable][0]
    assert "theta" not in vars(witness)
    theta = witness.theta
    assert theta is witness.theta
    assert theta == Congruence(subalgebra(M, (0, 2, 5, 7)), witness.blocks)
    assert theta.blocks == witness.blocks == ((0,), (1, 2), (3,))


@pytest.mark.parametrize("members, message", [
    ((99,), "99 is not an element index"),
    ((0, 99), "99 is not an element index"),
    ((-1,), "-1 is not an element index"),
    ((C.el("bot"), -1), "-1 is not an element index"),
    ((C.el("a"), C.el("b")), "^subset not closed at a,b$"),
], ids=["out-of-range", "out-of-range-with-member", "negative", "negative-with-member",
        "not-closed"])
@pytest.mark.parametrize("check", [check_cep_pair, subalgebra], ids=["cep", "subalgebra"])
def test_bad_members_raise_unknown_element(check, members, message):
    """An index out of range, a negative one that would alias the last
    element, or a subset that is not closed (a * b = f in crystal) is
    refused before any restriction is read."""
    with pytest.raises(UnknownElement, match=message):
        check(C, members)


def test_a_subset_not_closed_under_neg_is_refused():
    square = power(C, 2)
    # (t, bot) alone: its negation (f, top) lies outside
    with pytest.raises(UnknownElement, match="^subset not closed under neg at t.bot$"):
        check_cep_pair(square, (square.el("t.bot"),))


@pytest.mark.parametrize("check", [check_cep_pair, subalgebra, generated_subuniverse],
                         ids=["cep", "subalgebra", "generated"])
def test_a_repeated_member_counts_once(check):
    bot, top = C.el("bot"), C.el("top")
    assert check(C, (bot, top, top)) == check(C, (top, bot))


def test_con_s_cap_names_the_sizes_not_the_members():
    cube = power(C, 3)
    with pytest.raises(SizeCapExceeded) as refused:
        congruence_lattice(cube)
    assert str(refused.value) == "congruence lattice of crystal^3 (216 elements) exceeds cap 100"
    # {bot, a, top} x crystal x crystal, a 108-element subalgebra
    outer = {C.el(e) for e in ("bot", "a", "top")}
    members = [x for x in range(cube.size) if x // 36 in outer]
    with pytest.raises(SizeCapExceeded) as refused:
        check_cep_pair(cube, members)
    message = str(refused.value)
    assert message == ("congruence lattice of a 108-element subalgebra of crystal^3 "
                       "(216 elements) exceeds cap 100")
    assert len(message) < 200


def test_cep_class_over_hs_of_crystal_holds():
    verdict, failures, checked = check_cep_class(hs_class(C))
    assert verdict
    assert failures == []
    assert checked >= 20


def test_cep_class_of_trivial_algebra():
    one = quotient(C, [list(range(C.size))])
    verdict, failures, _ = check_cep_class([one])
    assert verdict and not failures


def test_cep_fails_inside_belnap_m():
    """The middle congruence of the 4-chain subalgebra does not extend to the
    (simple) full algebra: an explicit non-extendability witness."""
    witnesses = check_cep_pair(M, (0, 2, 5, 7))
    stuck = [w for w in witnesses if not w.extendable]
    assert len(stuck) == 1
    assert stuck[0].theta.blocks == ((0,), (1, 2), (3,))


def test_cep_class_over_hs_of_belnap_m_fails():
    verdict, failures, _ = check_cep_class(hs_class(M))
    assert not verdict
    assert failures


# ---------------------------------------------------------------------------
# HS classes
# ---------------------------------------------------------------------------

def test_hs_class_of_crystal_is_its_subalgebras():
    reps = hs_class(C)
    assert [a.size for a in reps] == [2, 3, 4, 5, 6]
    for algebra in reps:
        assert all(r.holds for r in validate_relevant_algebra(algebra))


def test_hs_class_of_boolean2():
    reps = hs_class(B2)
    assert len(reps) == 1 and reps[0].size == 2


def test_hs_classes_of_the_builtins_are_pinned():
    """Names, elements and tables of every member, in order, as committed."""
    path = os.path.join(os.path.dirname(__file__), "data", "hs_classes.json")
    with open(path, "r", encoding="utf-8") as fh:
        pinned = json.load(fh)
    for name, members in pinned.items():
        assert [{"name": a.name, "elements": list(a.elements),
                 "meet": [list(r) for r in a.meet], "join": [list(r) for r in a.join],
                 "fusion": [list(r) for r in a.fusion], "neg": list(a.neg)}
                for a in hs_class(builtin(name))] == members, name


def test_hs_class_includes_proper_quotients():
    # Belnap's model has a 3-element homomorphic image of its 4-chain subalgebra
    reps = hs_class(M)
    assert 3 in [a.size for a in reps]
    for algebra in reps:
        assert all(r.holds for r in validate_relevant_algebra(algebra))
