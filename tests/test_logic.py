import random

import pytest

from relog.algebra import (
    arrow,
    builtin_belnap_m,
    builtin_boolean2,
    builtin_crystal,
    product as direct_product,
)
from relog.errors import ParseError, SizeCapExceeded, UnboundVariable
from relog.interp import vsp_scan
from relog.logic import (
    MAX_FORMULA_DEPTH,
    And,
    Fuse,
    Not,
    Or,
    R_THEOREM_SCHEMATA,
    Var,
    arrow_formula,
    designating_valuations,
    entails,
    evaluate,
    parse_formula,
    parse_premises,
    theorem,
    verify_countermodel,
)
from relog.subcon import hs_class
from tests_oracle_helper import brute_force_designating_valuations, brute_force_min_sizes

C = builtin_crystal()
B2 = builtin_boolean2()
M = builtin_belnap_m()

P, Q, R = Var("p"), Var("q"), Var("r")


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------

def test_arrow_desugars():
    assert parse_formula("p -> p") == Not(Fuse(P, Not(P)))


def test_precedence():
    assert parse_formula("p & q | r") == Or(And(P, Q), R)
    assert parse_formula("~p * q & r | s") == Or(
        And(Fuse(Not(P), Q), R), Var("s")
    )
    assert parse_formula("p -> q -> r") == arrow_formula(P, arrow_formula(Q, R))


def test_parse_error_has_position():
    with pytest.raises(ParseError) as info:
        parse_formula("p -> (")
    assert info.value.position is not None
    with pytest.raises(ParseError):
        parse_formula("p q")
    with pytest.raises(ParseError):
        parse_formula("p -> )q")
    with pytest.raises(ParseError):
        parse_formula("P")  # upper case is not in the grammar


def test_nesting_at_the_depth_limit_parses_and_evaluates():
    a = C.el("a")  # a = ~a = a & a = a -> a
    for text in (
        "~" * MAX_FORMULA_DEPTH + "p",
        "(" * MAX_FORMULA_DEPTH + "p" + ")" * MAX_FORMULA_DEPTH,
        " & ".join(["p"] * (MAX_FORMULA_DEPTH + 1)),  # left-deep chain
        "(" * (MAX_FORMULA_DEPTH - 3) + "p -> p" + ")" * (MAX_FORMULA_DEPTH - 3),
    ):
        formula = parse_formula(text)
        assert parse_formula(str(formula)) == formula
        assert hash(formula) == hash(parse_formula(text))
        assert evaluate(C, {"p": a}, formula) == a


@pytest.mark.parametrize("text", [
    "~" * (MAX_FORMULA_DEPTH + 1) + "p",
    "(" * (MAX_FORMULA_DEPTH + 1) + "p" + ")" * (MAX_FORMULA_DEPTH + 1),
    " & ".join(["p"] * (MAX_FORMULA_DEPTH + 2)),
    " -> ".join(["p"] * (MAX_FORMULA_DEPTH // 3 + 2)),
    "~" * 3000 + "p",
    "(" * 600 + "p" + ")" * 600,
], ids=["neg", "parens", "chain", "arrows", "neg-3000", "parens-600"])
def test_nesting_past_the_depth_limit_is_a_parse_error(text):
    with pytest.raises(ParseError, match="nested deeper") as info:
        parse_formula(text)
    assert info.value.position is not None


def test_parse_premises():
    assert parse_premises("p, p -> q") == [P, arrow_formula(P, Q)]
    assert parse_premises("") == []
    assert parse_premises("  ") == []


def _random_formula(rng, variables, depth):
    if depth == 0 or rng.random() < 0.3:
        return Var(rng.choice(variables))
    kind = rng.randrange(4)
    if kind == 0:
        return Not(_random_formula(rng, variables, depth - 1))
    ctor = (And, Or, Fuse)[kind - 1]
    return ctor(
        _random_formula(rng, variables, depth - 1),
        _random_formula(rng, variables, depth - 1),
    )


def test_print_parse_round_trip():
    rng = random.Random(20250808)
    for _ in range(300):
        formula = _random_formula(rng, ["p", "q", "r"], 4)
        assert parse_formula(str(formula)) == formula


def test_size_counts_nodes():
    assert parse_formula("p & ~p").size() == 4
    assert Var("p").size() == 1
    assert parse_formula("p -> p").size() == 5           # ~(p * ~p)
    assert parse_formula("p -> p").connective_count() == 3


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def test_evaluate_fusion_of_a_and_b_is_top():
    value = evaluate(C, {"p": C.el("a"), "q": C.el("b")}, parse_formula("p * q"))
    assert C.elements[value] == "top"


def test_evaluate_negation():
    assert C.elements[evaluate(C, {"p": C.el("f")}, parse_formula("~p"))] == "t"


def test_evaluate_identity_at_f():
    assert C.elements[evaluate(C, {"p": C.el("f")}, parse_formula("p -> p"))] == "t"


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        evaluate(C, {}, P)


def test_substitution_compatibility():
    rng = random.Random(99)
    for _ in range(200):
        outer = _random_formula(rng, ["p", "q"], 3)
        inner = _random_formula(rng, ["p", "q"], 3)
        valuation = {"p": rng.randrange(C.size), "q": rng.randrange(C.size)}
        substituted = outer.substitute({"p": inner})
        shifted = dict(valuation, p=evaluate(C, valuation, inner))
        assert evaluate(C, valuation, substituted) == evaluate(C, shifted, outer)


# ---------------------------------------------------------------------------
# Designation
# ---------------------------------------------------------------------------

def test_designated_sets():
    assert set(C.names(sorted(C.designated))) == {"t", "a", "b", "f", "top"}
    assert set(B2.names(sorted(B2.designated))) == {"1"}
    assert set(M.names(sorted(M.designated))) == {"p0", "p1", "p2", "p3"}


def test_one_element_algebra_designates_its_element():
    from relog.algebra import quotient

    one = quotient(C, [list(range(C.size))])
    assert one.is_designated(0)


# ---------------------------------------------------------------------------
# Consequence
# ---------------------------------------------------------------------------

def test_modus_ponens_over_crystal():
    assert entails([C], parse_premises("p, p -> q"), Q).holds


def test_single_premise_does_not_entail_fresh_variable():
    verdict = entails([C], [P], Q)
    assert not verdict.holds
    cm = verdict.countermodel
    assert cm.named() == {"p": "t", "q": "bot"}
    assert verify_countermodel(C, cm.valuation, [P], Q)


def test_identity_is_a_theorem():
    assert theorem([C], parse_formula("p -> p")).holds


def test_explosion_only_classically():
    explosion = parse_formula("(p & ~p) -> q")
    assert theorem([B2], explosion).holds
    verdict = theorem([C], explosion)
    assert not verdict.holds
    assert verify_countermodel(
        C, {"p": C.el("a"), "q": C.el("bot")}, [], explosion
    )


def test_bare_variable_is_not_a_theorem():
    assert not theorem([C], Q).holds


def test_shipped_schemata_hold_over_crystal():
    assert len(R_THEOREM_SCHEMATA) == 10
    for name, text in R_THEOREM_SCHEMATA:
        assert theorem([C], parse_formula(text)).holds, name


def test_schemata_also_hold_over_belnap_m():
    for name, text in R_THEOREM_SCHEMATA:
        assert theorem([M], parse_formula(text)).holds, name


def test_mingle_fails_over_both_maximal_algebras():
    mingle = parse_formula("p -> (p -> p)")
    assert not theorem([C], mingle).holds
    assert not theorem([M], mingle).holds
    assert theorem([B2], mingle).holds


def test_valuation_cap():
    # 6^10 valuations, over the default cap of 10^7
    ten_variables = parse_formula(" | ".join(f"p{i}" for i in range(10)))
    with pytest.raises(SizeCapExceeded):
        theorem([C], ten_variables)
    with pytest.raises(SizeCapExceeded):
        next(designating_valuations(C, [ten_variables]))


# (premises, conclusion or None)
SWEEP_CASES = [
    ("p", None),
    ("p, p -> q", None),
    ("p & ~q, r | s", None),
    ("", "p -> p"),
    ("", "p | ~p"),
    ("p", "q"),
    ("p, p -> q", "q"),
    ("q1 | q2, ~r", "(q1 & r) | p"),
    ("~(p * p)", "p -> (p -> p)"),
]


@pytest.mark.parametrize("algebra", [C, M, B2], ids=["crystal", "belnap-m", "boolean2"])
def test_designating_valuations_match_brute_force(algebra):
    for premises_text, conclusion_text in SWEEP_CASES:
        premises = parse_premises(premises_text)
        conclusion = None if conclusion_text is None else parse_formula(conclusion_text)
        assert list(designating_valuations(algebra, premises, conclusion)) == \
            brute_force_designating_valuations(algebra, premises, conclusion)


def test_entails_monotone_reflexive_cut():
    rng = random.Random(7)
    pool = ["p", "q"]
    for _ in range(40):
        gamma = [_random_formula(rng, pool, 2) for _ in range(rng.randrange(3))]
        alpha = _random_formula(rng, pool, 2)
        beta = _random_formula(rng, pool, 2)
        # reflexivity
        assert entails([C], gamma + [alpha], alpha).holds
        # monotonicity
        if entails([C], gamma, alpha).holds:
            assert entails([C], gamma + [beta], alpha).holds
        # cut on a single formula
        if entails([C], gamma, beta).holds and entails([C], gamma + [beta], alpha).holds:
            assert entails([C], gamma, alpha).holds


def test_countermodels_reverify():
    rng = random.Random(13)
    pool = ["p", "q"]
    for _ in range(60):
        gamma = [_random_formula(rng, pool, 2) for _ in range(rng.randrange(2))]
        alpha = _random_formula(rng, pool, 2)
        verdict = entails([C], gamma, alpha)
        if not verdict.holds:
            cm = verdict.countermodel
            assert verify_countermodel(cm.algebra, cm.valuation, gamma, alpha)


def test_single_crystal_agrees_with_hs_class():
    """Consequence over {C} matches consequence over HS(C) on sampled instances."""
    K = hs_class(C)
    rng = random.Random(4242)
    pool = ["p", "q"]
    for _ in range(40):
        gamma = [_random_formula(rng, pool, 2) for _ in range(rng.randrange(3))]
        alpha = _random_formula(rng, pool, 2)
        assert entails([C], gamma, alpha).holds == entails(K, gamma, alpha).holds


# ---------------------------------------------------------------------------
# VSP scanning
# ---------------------------------------------------------------------------

def test_vsp_scan_crystal_and_belnap_clean():
    assert vsp_scan(C, 4) == []
    assert vsp_scan(M, 4) == []


def test_vsp_scan_boolean2_finds_explosion():
    violations = vsp_scan(B2, 4)
    assert violations
    found = {(str(v.antecedent), str(v.consequent)) for v in violations}
    assert ("p & ~p", "q") in found
    # every reported violation really is a cross-variable theorem
    for violation in violations:
        assert theorem([B2], violation.implication()).holds
        assert violation.antecedent.variables() == {"p"}
        assert violation.consequent.variables() == {"q"}


def _named(name):
    """boolean2, or the member of HS(crystal) or HS(belnap-m) with this name."""
    if name == "boolean2":
        return B2
    base = C if name.startswith("crystal") else M
    return next(a for a in hs_class(base) if a.name == name)


def _vsp_oracle(algebras, bound):
    """Cross-variable theorems between all formula classes, by brute force."""
    sizes = brute_force_min_sizes(algebras, 1, bound)
    segments, start = [], 0
    for a in algebras:
        segments.append((a, slice(start, start + a.size)))
        start += a.size
    pairs = {
        (left, right)
        for left in sizes
        for right in sizes
        if all(a.is_designated(arrow(a, x, y))
               for a, part in segments for x in left[part] for y in right[part])
    }
    return pairs, sizes


@pytest.mark.parametrize("names, bound", [
    (("crystal[bot+t+f+top]%4",), 11),
    (("belnap_m[n3+n0+p0+p3]%4",), 10),
    (("boolean2",), 4),
    (("boolean2", "crystal[bot+top]%2"), 8),
], ids=["crystal-chain4", "belnap-m-chain4", "boolean2", "boolean2-and-crystal2"])
def test_vsp_scan_matches_brute_force_oracle(names, bound):
    algebras = [_named(name) for name in names]
    expected, min_sizes = _vsp_oracle(algebras, bound)
    scanned = algebras[0] if len(algebras) == 1 else direct_product(algebras)
    violations = vsp_scan(scanned, bound)

    def vector(formula, var):
        return tuple(evaluate(a, {var: x}, formula)
                     for a in algebras for x in range(a.size))

    pairs = [(vector(v.antecedent, "p"), vector(v.consequent, "q")) for v in violations]
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == expected
    for violation, (left, right) in zip(violations, pairs):
        assert violation.antecedent.variables() == {"p"}
        assert violation.consequent.variables() == {"q"}
        assert violation.antecedent.size() == min_sizes[left]
        assert violation.consequent.size() == min_sizes[right]
    sizes = [v.antecedent.size() for v in violations]
    assert sizes == sorted(sizes)
