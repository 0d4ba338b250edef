import os
from itertools import product

import pytest

from relog.algebra import (
    AXIOM_NAMES,
    FiniteAlgebra,
    arrow,
    builtin_belnap_m,
    builtin_boolean2,
    builtin_crystal,
    data_dir,
    load_algebra,
    load_algebra_file,
    power,
    quotient,
    serialize,
    subalgebra,
    validate_relevant_algebra,
)
from relog.errors import (
    ArityError,
    DataFileMissing,
    NotACongruence,
    ParseError,
    SizeCapExceeded,
    UnknownElement,
)

C = builtin_crystal()
B2 = builtin_boolean2()
M = builtin_belnap_m()

BOT, T, A, B, F, TOP = range(6)


# ---------------------------------------------------------------------------
# Builtin crystal: pinned table values
# ---------------------------------------------------------------------------

def test_crystal_fusion_of_incomparables_is_top():
    assert C.fusion[A][B] == TOP
    assert C.fusion[F][F] == TOP


def test_crystal_neg_fixed_points_and_swaps():
    assert C.neg[F] == T
    assert C.neg[A] == A
    assert C.neg[B] == B
    assert C.neg[TOP] == BOT
    assert C.neg[BOT] == TOP
    assert C.neg[T] == F


def test_crystal_fusion_a_f():
    assert C.fusion[A][F] == TOP


def test_crystal_t_is_fusion_identity():
    for x in range(C.size):
        assert C.fusion[T][x] == x
        assert C.fusion[x][T] == x


def test_crystal_order():
    # bot < t < a,b < f < top with a,b incomparable
    assert C.leq[BOT][T] and C.leq[T][A] and C.leq[T][B]
    assert C.leq[A][F] and C.leq[B][F] and C.leq[F][TOP]
    assert not C.leq[A][B] and not C.leq[B][A]


def test_crystal_arrow_values():
    assert arrow(C, F, T) == BOT
    assert arrow(C, F, F) == T
    assert arrow(C, T, T) == T
    assert arrow(C, A, T) == BOT


def test_boolean2_arrow_is_material_implication():
    for x, y in product(range(2), repeat=2):
        assert arrow(B2, x, y) == (1 if (x == 0 or y == 1) else 0)


def test_binary_tables_give_each_transpose_once():
    for table, transpose, commutative in C.binary_tables:
        assert commutative and transpose is table
    implication = [[arrow(B2, x, y) for y in range(2)] for x in range(2)]
    skew = FiniteAlgebra("b2->", B2.elements, B2.meet, B2.join, implication, B2.neg)
    (_, meet_t, meet_c), _, (fusion, fusion_t, fusion_c) = skew.binary_tables
    assert meet_c and meet_t is skew.meet
    assert not fusion_c
    assert all(fusion_t[y][x] == fusion[x][y] for x, y in product(range(2), repeat=2))
    assert skew.binary_tables is skew.binary_tables


# ---------------------------------------------------------------------------
# Axiom checklist
# ---------------------------------------------------------------------------

def test_builtins_validate():
    for algebra in (C, B2, M):
        reports = validate_relevant_algebra(algebra)
        assert len(reports) == len(AXIOM_NAMES)
        failing = [r.axiom for r in reports if not r.holds]
        assert failing == [], f"{algebra.name}: {failing}"


def test_mutated_neg_flags_residuation_but_keeps_de_morgan():
    neg = list(C.neg)
    neg[A], neg[B] = B, A
    mutated = FiniteAlgebra("crystal_negswap", C.elements, C.meet, C.join, C.fusion, neg)
    by_name = {r.axiom: r for r in validate_relevant_algebra(mutated)}
    assert by_name["neg-involution"].holds
    assert by_name["neg-de-morgan"].holds
    assert not by_name["residuation"].holds
    cx = by_name["residuation"].counterexample
    assert set(cx) == {"x", "y", "z"}


def test_counterexample_falsifies_axiom():
    fusion = [list(row) for row in C.fusion]
    fusion[A][B] = F  # break commutativity one-sidedly
    broken = FiniteAlgebra("broken", C.elements, C.meet, C.join, fusion, C.neg)
    report = {r.axiom: r for r in validate_relevant_algebra(broken)}["fusion-commutative"]
    assert not report.holds
    x, y = broken.el(report.counterexample["x"]), broken.el(report.counterexample["y"])
    assert broken.fusion[x][y] != broken.fusion[y][x]


def test_arrow_diagonal_designated_everywhere():
    for algebra in (C, B2, M):
        for x in range(algebra.size):
            assert algebra.is_designated(arrow(algebra, x, x))


# ---------------------------------------------------------------------------
# Fusion completion oracle: the partly labeled table has a unique completion
# ---------------------------------------------------------------------------

def _relevant_fusion_ok(a):
    n = a.size
    rng = range(n)
    for x in rng:
        if not a.leq[x][a.fusion[x][x]]:
            return False
    for x, y in product(rng, repeat=2):
        if a.fusion[x][y] != a.fusion[y][x]:
            return False
    for x, y, z in product(rng, repeat=3):
        if a.fusion[a.fusion[x][y]][z] != a.fusion[x][a.fusion[y][z]]:
            return False
        if a.fusion[x][a.join[y][z]] != a.join[a.fusion[x][y]][a.fusion[x][z]]:
            return False
        if a.leq[a.fusion[x][y]][z] != a.leq[y][arrow(a, x, z)]:
            return False
    return True


def test_crystal_fusion_completion_is_unique():
    """Exhaustive search: fixing the labeled entries (a*a=a, b*b=b, a*b=f*f=top),
    commutativity, t as identity and bot as annihilator, exactly one assignment
    of the six remaining products passes the fusion axioms."""
    unknown_pairs = [(A, F), (B, F), (A, TOP), (B, TOP), (F, TOP), (TOP, TOP)]
    survivors = []
    for values in product(range(6), repeat=len(unknown_pairs)):
        fusion = [[None] * 6 for _ in range(6)]
        for x in range(6):
            fusion[BOT][x] = fusion[x][BOT] = BOT
            fusion[T][x] = fusion[x][T] = x
        fusion[A][A] = A
        fusion[B][B] = B
        fusion[A][B] = fusion[B][A] = TOP
        fusion[F][F] = TOP
        for (x, y), v in zip(unknown_pairs, values):
            fusion[x][y] = fusion[y][x] = v
        candidate = FiniteAlgebra("cand", C.elements, C.meet, C.join, fusion, C.neg)
        if _relevant_fusion_ok(candidate):
            survivors.append(candidate.fusion)
    assert len(survivors) == 1
    assert survivors[0] == C.fusion


# ---------------------------------------------------------------------------
# Belnap model
# ---------------------------------------------------------------------------

def test_belnap_m_basic_properties():
    assert M.size == 8
    for x in range(8):
        assert M.neg[M.neg[x]] == x
    # designated elements are exactly the +-signed ones
    assert set(M.names(sorted(M.designated))) == {"p0", "p1", "p2", "p3"}


def test_belnap_m_missing_data_file(tmp_path, monkeypatch):
    monkeypatch.setenv("RELOG_DATA_DIR", str(tmp_path))
    with pytest.raises(DataFileMissing):
        builtin_belnap_m()


def test_data_dir_override(monkeypatch, tmp_path):
    monkeypatch.delenv("RELOG_DATA_DIR", raising=False)
    default = data_dir()
    assert os.path.exists(os.path.join(default, "belnap_m.alg"))
    monkeypatch.setenv("RELOG_DATA_DIR", str(tmp_path))
    assert data_dir() == str(tmp_path)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

TWO_ELEMENT_SOURCE = """\
# smallest relevant algebra
algebra tiny
elements 0 1
op meet 2
0 0
0 1
op join 2
0 1
1 1
op fusion 2
0 0
0 1
op neg 1
1 0
"""


def test_load_two_element_boolean():
    tiny = load_algebra(TWO_ELEMENT_SOURCE)
    assert tiny.size == 2
    assert tiny.fusion == tiny.meet
    assert all(r.holds for r in validate_relevant_algebra(tiny))


def test_load_missing_neg_entry_is_arity_error():
    bad = TWO_ELEMENT_SOURCE.replace("op neg 1\n1 0\n", "op neg 1\n1\n")
    with pytest.raises(ArityError):
        load_algebra(bad)


def test_load_unknown_element():
    bad = TWO_ELEMENT_SOURCE.replace("op neg 1\n1 0\n", "op neg 1\n1 2\n")
    with pytest.raises(UnknownElement):
        load_algebra(bad)


def test_load_malformed_header():
    with pytest.raises(ParseError):
        load_algebra("algebr oops\nelements x\n")


def test_shipped_files_match_builtins_byte_level():
    for fname, builtin_algebra in (("crystal.alg", C), ("boolean2.alg", B2)):
        path = os.path.join(data_dir(), fname)
        with open(path, "r", encoding="utf-8") as fh:
            content = fh.read()
        assert content == serialize(builtin_algebra)
        assert load_algebra(content) == builtin_algebra


def test_serialize_round_trip_all_builtins():
    for algebra in (C, B2, M):
        again = load_algebra(serialize(algebra))
        assert again == algebra
        assert serialize(again) == serialize(algebra)


def test_load_algebra_file(tmp_path):
    path = tmp_path / "tiny.alg"
    path.write_text(TWO_ELEMENT_SOURCE)
    assert load_algebra_file(str(path)).size == 2
    with pytest.raises(DataFileMissing):
        load_algebra_file(str(tmp_path / "nope.alg"))


# ---------------------------------------------------------------------------
# Power and quotient
# ---------------------------------------------------------------------------

def test_power_identity_exponent():
    assert power(C, 1).table_key()[1:] == C.table_key()[1:]
    assert power(C, 1).elements == C.elements


def test_power_boolean2_squared():
    sq = power(B2, 2)
    assert sq.size == 4
    # The truth filter of the square is the componentwise one: only (1,1).
    assert sq.names(sorted(sq.designated)) == ("1.1",)
    assert all(r.holds for r in validate_relevant_algebra(sq))


def test_power_cap():
    with pytest.raises(SizeCapExceeded):
        power(C, 40)


def test_power_preserves_validation():
    assert all(r.holds for r in validate_relevant_algebra(power(C, 2)))


def test_quotient_by_identity_and_full():
    identity = [[x] for x in range(C.size)]
    q = quotient(C, identity)
    assert q.size == C.size
    assert q.fusion == C.fusion and q.neg == C.neg
    full = [list(range(C.size))]
    q1 = quotient(C, full)
    assert q1.size == 1
    assert all(r.holds for r in validate_relevant_algebra(q1))


def test_quotient_rejects_non_congruence():
    with pytest.raises(NotACongruence):
        quotient(C, [[BOT, T], [A], [B], [F], [TOP]])  # collapsing bot,t is not compatible
    with pytest.raises(NotACongruence):
        quotient(C, [[0, 1, 2]])  # not a partition


def test_subalgebra_construction():
    chain = subalgebra(C, (BOT, T, F, TOP))
    assert chain.elements == ("bot", "t", "f", "top")
    assert all(r.holds for r in validate_relevant_algebra(chain))
    with pytest.raises(UnknownElement):
        subalgebra(C, (T, F))  # not closed: t*f etc. fine but neg t = f ok; t meet f = t ok; f*f = top missing
