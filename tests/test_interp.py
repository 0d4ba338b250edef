import gc
import random
import tracemalloc
import weakref
from itertools import product

import pytest

from relog.algebra import (
    builtin_belnap_m,
    builtin_boolean2,
    builtin_crystal,
    power,
    product as direct_product,
)
from relog import interp
from relog.errors import (
    CapExceeded,
    NoSharedVariables,
    NotEntailed,
    SizeCapExceeded,
)
from relog.interp import (
    DEFAULT_FREE_ELEMENT_CAP,
    FreeAlgebra,
    _interpolant_masks,
    _shared_free_algebra,
    deductive_interpolant,
    free_algebra,
    maehara_interpolant,
    verify_interpolant,
)
from relog.logic import (
    And,
    Fuse,
    Not,
    Or,
    Var,
    designating_valuations,
    entails,
    evaluate,
    parse_formula,
    parse_premises,
    verify_countermodel,
)
from relog.reproduce import random_formula
from tests_oracle_helper import (
    CHAIN17,
    IMPLICATION_FUSION,
    LEFT_BLIND_MEET,
    NOT_A_LATTICE,
    ReferenceFreeAlgebra,
    brute_force_vectors,
    closure_state,
    reference_interpolant_masks,
    renamed,
)

C = builtin_crystal()
B2 = builtin_boolean2()
M = builtin_belnap_m()


# Expected vectors for the one-generator Boolean case, written out by hand:
# p itself, its negation, and the two constants reachable as p&~p and p|~p.
BOOLEAN2_ONE_GENERATOR_VECTORS = {(0, 1), (1, 0), (0, 0), (1, 1)}


def test_brute_force_oracle_boolean2_one_generator():
    assert brute_force_vectors(B2, 1, 8) == BOOLEAN2_ONE_GENERATOR_VECTORS


@pytest.mark.parametrize("k,expected_count", [(1, 4), (2, 16)])
def test_free_algebra_boolean2_matches_oracle(k, expected_count):
    fa = free_algebra(B2, k)
    assert fa.element_count == expected_count
    assert set(map(tuple, fa.vectors)) == brute_force_vectors(B2, k, 8)


def test_free_algebra_crystal_one_generator_count():
    fa = free_algebra(C, 1)
    assert fa.element_count == 64  # regression value; stable across runs
    assert max(fa.sizes) == 15
    # matches the brute-force reachable set once the bound covers the largest
    # minimal representative
    assert set(map(tuple, fa.vectors)) == brute_force_vectors(C, 1, 15)


def test_free_algebra_contains_projections():
    fa = free_algebra(C, 1)
    assert fa.vectors[0] == bytes(range(6))
    fa2 = FreeAlgebra(C, 2)
    fa2.ensure(1)
    grid = list(product(range(6), repeat=2))
    assert fa2.vectors[0] == bytes(v[0] for v in grid)
    assert fa2.vectors[1] == bytes(v[1] for v in grid)


def test_free_algebra_representatives_are_sound():
    fa = free_algebra(C, 1)
    for i in range(fa.element_count):
        rep = fa.representative(i, names=("p",))
        vec = tuple(evaluate(C, {"p": x}, rep) for x in range(C.size))
        assert vec == tuple(fa.vectors[i])
        assert rep.size() == fa.sizes[i]


def test_free_algebra_two_generator_representatives_sound_on_prefix():
    fa = FreeAlgebra(C, 2)
    fa.ensure(59)
    grid = list(product(range(C.size), repeat=2))
    for i in range(60):
        rep = fa.representative(i, names=("p", "q"))
        vec = tuple(evaluate(C, {"p": x, "q": y}, rep) for x, y in grid)
        assert vec == tuple(fa.vectors[i])


def test_free_algebra_discovery_order_is_by_size_and_deterministic():
    fa1 = free_algebra(C, 1)
    fa2 = free_algebra(C, 1)
    assert fa1.vectors == fa2.vectors
    assert fa1.sizes == sorted(fa1.sizes)


def test_free_algebra_identity_vector_has_small_representative():
    fa = free_algebra(C, 1)
    pp = bytes(C.neg[C.fusion[x][C.neg[x]]] for x in range(6))
    assert pp in fa.index
    rep = fa.representative(fa.index[pp], names=("p",))
    assert rep.connective_count() <= 4


def test_free_algebra_builder_follows_the_base_size():
    for base, encoding in ((direct_product([IMPLICATION_FUSION, LEFT_BLIND_MEET, B2]), bytes),
                           (CHAIN17, tuple)):
        fa = FreeAlgebra(base, 1)
        assert fa.ensure(0)
        assert fa.vectors[0] == encoding(range(base.size))


def test_free_algebra_caps():
    with pytest.raises(CapExceeded):
        free_algebra(C, 4)  # 6^4 coordinates exceed the default grid cap
    with pytest.raises(CapExceeded):
        FreeAlgebra(C, 1, element_cap=10).freeze()
    # the free algebra on one Boolean generator has exactly 4 elements
    assert FreeAlgebra(B2, 1, element_cap=4).freeze().element_count == 4
    # a cap that fires keeps the candidate it stopped, so firing again leaves
    # the closure as it was
    capped = FreeAlgebra(B2, 1, element_cap=3)
    for _ in range(2):
        with pytest.raises(CapExceeded):
            capped.freeze()
        assert len(capped.vectors) == 3 and not capped.closed


# (base, generators, elements to grow to, or None to close)
REFERENCE_CLOSURE_CASES = {
    "crystal, 2 generators, to 300": lambda: (C, 2, 300),
    "belnap-m, 2 generators, to 400": lambda: (M, 2, 400),
    # 216 coordinates, the default coordinate cap
    "crystal, 3 generators, to 300": lambda: (C, 3, 300),
    "boolean2, 3 generators": lambda: (B2, 3, None),
    "crystal": lambda: (C, 1, None),
    "belnap-m": lambda: (M, 1, None),
    "right-projection meet": lambda: (NOT_A_LATTICE, 1, None),
    "right-projection meet, 2 generators": lambda: (NOT_A_LATTICE, 2, None),
    "implication fusion, 2 generators": lambda: (IMPLICATION_FUSION, 2, None),
    "left-blind meet": lambda: (LEFT_BLIND_MEET, 1, None),
    "384-element product, to 50": lambda: (
        direct_product([C, M, power(B2, 3)]), 1, 50),
    # 16 elements, the widest byte lanes: the generator with itself pairs
    # coordinate 15 with 15, byte 15*16 + 15 = 255; meet and fusion do not
    # commute
    "16-element product": lambda: (
        direct_product([IMPLICATION_FUSION, LEFT_BLIND_MEET, B2]), 1, None),
    "17-element chain, to 150": lambda: (CHAIN17, 1, 150),
}


@pytest.mark.parametrize("case", REFERENCE_CLOSURE_CASES)
def test_free_algebra_matches_reference_closure(case):
    base, k, grown = REFERENCE_CLOSURE_CASES[case]()

    def state(cls):
        fa = cls(base, k, coordinate_cap=base.size ** k)
        if grown is None:
            fa.freeze()
        else:
            assert fa.ensure(grown - 1)
        return closure_state(fa)

    assert state(FreeAlgebra) == state(ReferenceFreeAlgebra)


def test_grown_free_algebra_holds_only_its_elements():
    """crystal on 2 generators has no small closure: growing it to 1000
    elements builds candidates only for the size levels it reaches."""
    tracemalloc.start()
    try:
        assert FreeAlgebra(C, 2).ensure(999)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_shared_free_algebra_lives_on_its_base():
    bases = [renamed(B2, f"b{i}") for i in range(17)]
    cold = [_shared_free_algebra(base, 1, DEFAULT_FREE_ELEMENT_CAP) for base in bases]
    assert len(set(map(id, cold))) == len(bases)
    assert all(_shared_free_algebra(base, 1, DEFAULT_FREE_ELEMENT_CAP) is fa
               for base, fa in zip(bases, cold))
    with pytest.raises(CapExceeded):
        _shared_free_algebra(C, 4, DEFAULT_FREE_ELEMENT_CAP)
    released = weakref.ref(cold.pop())
    del bases[-1]
    gc.collect()
    assert released() is None


def test_equal_tables_under_another_name_share_no_free_algebra():
    gamma, alpha = [parse_formula("q * ~q")], parse_formula("~(q * ~q) -> (q * ~q)")
    for algebra in (C, renamed(C, "other")):
        with pytest.raises(CapExceeded, match=f"free algebra over {algebra.name} on 1 "):
            maehara_interpolant([], gamma, alpha, [algebra], element_cap=2)


def test_interpolant_caps_hold_on_a_warm_cache():
    gamma, alpha = [parse_formula("~q & p")], parse_formula("~q | r")
    assert maehara_interpolant([], gamma, alpha, [C]).delta == Not(Var("q"))
    with pytest.raises(CapExceeded):
        maehara_interpolant([], gamma, alpha, [C], element_cap=1)


def test_interpolant_coordinate_cap_holds_at_its_default():
    # four shared crystal variables need 6^4 = 1296 > 216 coordinates
    gamma = [parse_formula("p & q & r & s")]
    alpha = parse_formula("p | q | r | s")
    with pytest.raises(CapExceeded):
        maehara_interpolant([], gamma, alpha, [C])


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("algebra", [C, M], ids=["crystal", "belnap-m"])
def test_interpolant_masks_match_reference(algebra):
    """On entailed problems of the reproduce suite's shape the masks from the
    lazy sweep equal the whole-grid listing; on the others the reference
    masks meet, and the sweep raises NotEntailed with a countermodel."""
    rng = random.Random(20250808)
    compared = refuted = 0
    while compared < 120:
        sigma = [random_formula(rng) for _ in range(rng.randrange(3))]
        gamma = [random_formula(rng) for _ in range(1 + rng.randrange(2))]
        alpha = random_formula(rng)
        shared = tuple(sorted(
            set(alpha.variables()).union(*[f.variables() for f in sigma])
            & set().union(*[f.variables() for f in gamma])))
        if not shared:
            continue
        compared += 1
        required, forbidden = reference_interpolant_masks(
            algebra, sigma, gamma, alpha, shared)
        try:
            masks = _interpolant_masks(algebra, sigma, gamma, alpha, shared)
        except NotEntailed as exc:
            refuted += 1
            assert required & forbidden
            assert verify_countermodel(
                algebra, exc.countermodel.valuation, sigma + gamma, alpha)
            continue
        assert masks == (required, forbidden)
    assert 0 < refuted < compared


def test_maehara_sweeps_each_side_once_and_never_calls_entails(monkeypatch):
    """Synthesis, and a refutation, come from the two mask sweeps alone."""
    calls = []

    def counted(*args):
        calls.append(args)
        return designating_valuations(*args)

    def refuse(*args):
        raise AssertionError("maehara_interpolant called entails")

    monkeypatch.setattr(interp, "designating_valuations", counted)
    monkeypatch.setattr(interp, "entails", refuse)
    sigma, gamma = parse_premises("p -> q"), parse_premises("p, q -> r")
    assert maehara_interpolant(sigma, gamma, parse_formula("q | r"), [C]).delta
    assert len(calls) == 2
    calls.clear()
    with pytest.raises(NotEntailed):
        maehara_interpolant([], [Var("p")], parse_formula("p & q"), [C])
    assert len(calls) == 2


def test_maehara_decides_a_union_grid_over_the_valuation_cap():
    """Eleven crystal variables (6^11 valuations) in all, six on each side:
    each mask sweeps 6^6 valuations."""
    gamma = [parse_formula("p & (q1 | q2 | q3 | q4 | q5)")]
    alpha = parse_formula("p | r1 | r2 | r3 | r4 | r5")
    with pytest.raises(SizeCapExceeded):
        entails([C], gamma, alpha)
    assert maehara_interpolant([], gamma, alpha, [C]).delta == Var("p")


def test_maehara_checks_the_coordinate_cap_before_the_masks():
    """Not entailed, and four shared crystal variables: the cap answers."""
    gamma = [parse_formula("p & q & r & s")]
    with pytest.raises(CapExceeded):
        maehara_interpolant([], gamma, parse_formula("p & q & r & s & ~p"), [C])


def test_maehara_takes_exactly_one_algebra():
    gamma, alpha = [parse_formula("p & q")], parse_formula("q")
    with pytest.raises(ValueError):
        maehara_interpolant([], gamma, alpha, [C, M])


def test_interpolant_masks_do_not_hold_the_grid():
    """Five crystal variables on the gamma side, one shared: the masks walk
    6^5 valuations without holding them."""
    gamma = [parse_formula("p & (q0 | q1 | q2 | q3)")]
    alpha = parse_formula("p")
    assert maehara_interpolant([], gamma, alpha, [C]).delta == Var("p")
    tracemalloc.start()
    try:
        maehara_interpolant([], gamma, alpha, [C])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 2**20


def test_maehara_shared_variable_projection():
    result = maehara_interpolant(
        [], [parse_formula("p & q")], parse_formula("q | r"), [C]
    )
    assert result.delta == Var("q")
    assert verify_interpolant(
        [], [parse_formula("p & q")], parse_formula("q | r"), result.delta, [C]
    ).ok


def test_maehara_alpha_over_shared_set():
    result = maehara_interpolant(
        [parse_formula("q")], [parse_formula("p")], parse_formula("p"), [C]
    )
    assert result.delta == Var("p")


def test_maehara_rejects_empty_shared_set():
    with pytest.raises(NoSharedVariables):
        maehara_interpolant(
            [parse_formula("p")], [parse_formula("q")], parse_formula("p"), [C]
        )


def test_maehara_rejects_non_entailment():
    with pytest.raises(NotEntailed) as info:
        maehara_interpolant([], [parse_formula("p")], parse_formula("p & q"), [C])
    assert info.value.countermodel is not None


def test_deductive_special_cases():
    assert deductive_interpolant([Var("p")], Var("p"), [C]).delta == Var("p")
    assert deductive_interpolant(
        [parse_formula("p & q")], Var("q"), [C]
    ).delta == Var("q")
    result = deductive_interpolant(
        parse_premises("p, p -> q"), Var("q"), [C]
    )
    assert result.delta.variables() <= {"q"}
    assert result.delta == Var("q")


def test_interpolant_variable_condition_is_asymmetric():
    """delta draws from var(sigma+alpha) & var(gamma), not the symmetric set."""
    sigma = [parse_formula("r")]
    gamma = [parse_formula("p & q")]
    alpha = parse_formula("q")
    result = maehara_interpolant(sigma, gamma, alpha, [C])
    assert set(result.shared) == {"q"}
    assert result.delta.variables() <= {"q"}


def test_verify_interpolant_round_trip():
    sigma = parse_premises("p -> q")
    gamma = parse_premises("p, q -> r")
    alpha = parse_formula("q | r")
    result = maehara_interpolant(sigma, gamma, alpha, [C])
    assert verify_interpolant(sigma, gamma, alpha, result.delta, [C]).ok


def test_verify_interpolant_flags_variable_violation():
    transcript = verify_interpolant(
        [], [Var("q")], parse_formula("q | r"), parse_formula("q | r"), [C]
    )
    assert not transcript.variable_condition
    assert not transcript.ok


def test_verify_interpolant_flags_failed_entailment():
    transcript = verify_interpolant(
        [], [Var("p")], Var("p"), parse_formula("p -> q"), [C]
    )
    # delta = p -> q is not provable from {p} and mentions q outside the
    # shared set; accept either failure shape
    assert not transcript.ok
    transcript2 = verify_interpolant(
        [Var("q")], [Var("p")], Var("p"), parse_formula("p & p"), [C]
    )
    assert transcript2.variable_condition
    assert transcript2.gamma_verdict.holds
    assert transcript2.alpha_verdict.holds


def test_interpolants_for_belnap_m_small_cases():
    """Exploratory: the interpolant search also runs over Belnap's model."""
    result = deductive_interpolant([parse_formula("p & q")], Var("q"), [M])
    assert result.delta == Var("q")


def test_mini_randomized_suite_all_verify():
    rng = random.Random(20240601)
    pool = ["p", "q", "r"]

    def gen(depth=0):
        if depth >= 3 or rng.random() < 0.45:
            return Var(rng.choice(pool))
        k = rng.randrange(4)
        if k == 0:
            return Not(gen(depth + 1))
        return (And, Or, Fuse)[k - 1](gen(depth + 1), gen(depth + 1))

    def small():
        while True:
            f = gen()
            if f.size() <= 4:
                return f

    valid = 0
    attempts = 0
    while valid < 60 and attempts < 2000:
        attempts += 1
        sigma = [small() for _ in range(rng.randrange(3))]
        gamma = [small() for _ in range(1 + rng.randrange(2))]
        alpha = small()
        try:
            result = maehara_interpolant(sigma, gamma, alpha, [C])
        except (NoSharedVariables, NotEntailed):
            continue
        valid += 1
        assert verify_interpolant(sigma, gamma, alpha, result.delta, [C]).ok
        assert result.delta.variables() <= set(result.shared)
    assert valid == 60
