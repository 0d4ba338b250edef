from itertools import combinations, product

import pytest

from relog import subcon
from relog.algebra import (
    builtin_belnap_m,
    builtin_boolean2,
    builtin_crystal,
    power,
    product as direct_product,
    quotient,
    subalgebra,
    validate_relevant_algebra,
)
from relog.errors import NotACongruence, SizeCapExceeded
from relog.subcon import (
    Congruence,
    all_subuniverses,
    check_cep_class,
    check_cep_pair,
    congruence_join,
    congruence_lattice,
    congruence_meet,
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
    is_closed,
    powerset_subuniverses,
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


@pytest.mark.parametrize(
    "algebra",
    [C, B2, M, power(B2, 3), NOT_A_LATTICE, IMPLICATION_FUSION, LEFT_BLIND_MEET,
     SKEW_MEET],
    ids=lambda a: a.name,
)
def test_all_subuniverses_matches_powerset_oracle(algebra):
    assert all_subuniverses(algebra) == powerset_subuniverses(algebra)


def test_crystal_proper_universes_are_the_known_eight():
    proper = all_subuniverses(C, proper_nonempty_only=True)
    assert [C.names(s) for s in proper] == CRYSTAL_PROPER_UNIVERSES


def test_boolean2_has_no_proper_nonempty_subuniverse():
    assert all_subuniverses(B2, proper_nonempty_only=True) == []


def test_every_subuniverse_is_closed():
    for s in all_subuniverses(C):
        assert is_closed(C, s)


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


def _count_principal_congruences(monkeypatch, algebra):
    calls = []
    real = subcon.principal_congruence

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(subcon, "principal_congruence", counting)
    congruence_lattice(algebra)
    return len(calls)


def test_congruence_lattice_of_crystal_square_uses_covering_pairs(monkeypatch):
    # crystal has 6 covers, so crystal^2 has 6 * 6 * 2 = 72; it has 630 pairs
    assert _count_principal_congruences(monkeypatch, power(C, 2)) <= 72


def test_congruence_lattice_falls_back_to_all_pairs_off_a_lattice(monkeypatch):
    assert not all(r.holds for r in validate_relevant_algebra(
        NOT_A_LATTICE, axioms=subcon.LATTICE_AXIOMS))
    assert len(congruence_lattice(NOT_A_LATTICE)) == 4
    assert _count_principal_congruences(monkeypatch, NOT_A_LATTICE) == 6


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


def test_square_of_boolean2_is_not_fsi():
    from relog.algebra import power

    sq = power(B2, 2)
    assert not is_simple(sq)
    assert not is_fsi(sq)


def test_congruence_lattice_cap():
    with pytest.raises(SizeCapExceeded):
        congruence_lattice(power(B2, 7))  # 128 elements, over the default of 100


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


def test_hs_class_includes_proper_quotients():
    # Belnap's model has a 3-element homomorphic image of its 4-chain subalgebra
    reps = hs_class(M)
    assert 3 in [a.size for a in reps]
    for algebra in reps:
        assert all(r.holds for r in validate_relevant_algebra(algebra))
