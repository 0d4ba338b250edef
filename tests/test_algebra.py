import os
from itertools import product

import pytest

from relog.algebra import (
    _BUILTINS,
    AXIOM_NAMES,
    BUILTIN_NAMES,
    FiniteAlgebra,
    arrow,
    builtin,
    builtin_belnap_m,
    builtin_boolean2,
    builtin_crystal,
    data_dir,
    derived,
    load_algebra,
    load_algebra_file,
    power,
    product as product_of,
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
from relog.subcon import hs_class
from tests_oracle_helper import (
    IMPLICATION_FUSION,
    LEFT_BLIND_MEET,
    NOT_A_LATTICE,
    lattice_tables_from_covers,
    reference_direct_product,
    renamed,
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


def test_crystal_lattice_is_its_hasse_diagram():
    covers = [(BOT, T), (T, A), (T, B), (A, F), (B, F), (F, TOP)]
    assert lattice_tables_from_covers(6, covers) == (C.meet, C.join)


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


def _mutated(algebra, table, x, y, value):
    tables = {op: [list(row) for row in getattr(algebra, op)] for op in ("meet", "join", "fusion")}
    neg = list(algebra.neg)
    if table == "neg":
        neg[x] = value
    else:
        tables[table][x][y] = value
    return FiniteAlgebra(algebra.name + "~", algebra.elements, tables["meet"],
                         tables["join"], tables["fusion"], neg)


# (builtin, table, x, y, new value) -> every failing axiom with its first
# counterexample, as the per-arity checkers reported them before they became one
MUTATED_COUNTEREXAMPLES = [
    (("crystal", "meet", 1, 2, 0), {
        "meet-commutative": {"x": "t", "y": "a"},
        "meet-associative": {"x": "t", "y": "a", "z": "t"},
        "absorption": {"x": "t", "y": "a"},
        "distributivity": {"x": "t", "y": "t", "z": "a"},
        "neg-de-morgan": {"x": "t", "y": "a"},
        "residuation": {"x": "a", "y": "t", "z": "a"},
    }),
    (("belnap-m", "join", 2, 5, 7), {
        "join-commutative": {"x": "n1", "y": "p1"},
        "join-associative": {"x": "n1", "y": "n1", "z": "p0"},
        "distributivity": {"x": "n2", "y": "n1", "z": "p1"},
        "neg-de-morgan": {"x": "p1", "y": "n1"},
        "fusion-join-distributive": {"x": "n1", "y": "n1", "z": "p1"},
    }),
    (("belnap-m", "neg", 0, None, 3), {
        "neg-involution": {"x": "n3"},
        "neg-de-morgan": {"x": "n3", "y": "n2"},
        "residuation": {"x": "n3", "y": "p0", "z": "n3"},
    }),
    (("boolean2", "fusion", 1, 1, 0), {"fusion-square-increasing": {"x": "1"}}),
]


@pytest.mark.parametrize("mutation, expected", MUTATED_COUNTEREXAMPLES)
def test_checklist_pins_the_first_counterexample_of_each_axiom(mutation, expected):
    name, *change = mutation
    reports = validate_relevant_algebra(_mutated(builtin(name), *change))
    failed = {r.axiom: list(r.counterexample.items()) for r in reports if not r.holds}
    assert failed == {axiom: list(cx.items()) for axiom, cx in expected.items()}


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


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtins_load_once_from_their_data_files(name, tmp_path, monkeypatch):
    algebra = builtin(name)
    assert builtin(name) is algebra
    with open(os.path.join(data_dir(), _BUILTINS[name][0]), encoding="utf-8") as fh:
        assert load_algebra(fh.read()) == algebra
    monkeypatch.setenv("RELOG_DATA_DIR", str(tmp_path))
    with pytest.raises(DataFileMissing):
        builtin(name)


def test_builtin_with_the_wrong_element_count_is_refused(tmp_path, monkeypatch):
    (tmp_path / "crystal.alg").write_text(serialize(B2))
    monkeypatch.setenv("RELOG_DATA_DIR", str(tmp_path))
    with pytest.raises(ParseError, match="has 2 elements, expected 6"):
        builtin_crystal()


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


# factor lists whose product, folded by index arithmetic, must equal the
# coordinate-tuple construction, element names included
PRODUCT_CASES = {
    "crystal^2": lambda: [C, C],
    "boolean2^5": lambda: [B2] * 5,
    "crystal x belnap-m x boolean2": lambda: [C, M, B2],
    "proper HS(crystal) members": lambda: hs_class(C)[:-1],
    "non-commutative fixtures": lambda: [IMPLICATION_FUSION, LEFT_BLIND_MEET, NOT_A_LATTICE],
}


@pytest.mark.parametrize("case", PRODUCT_CASES)
def test_product_matches_the_coordinate_tuple_construction(case):
    factors = PRODUCT_CASES[case]()
    built = product_of(factors)
    reference = reference_direct_product(built.name, factors)
    assert built.table_key() == reference.table_key()


def test_product_past_256_elements_shares_one_int_per_element():
    """A product of 512 elements holds each element index as one object, not
    one per table entry: a fresh int per entry took 42 MiB for the
    720-element product of HS(crystal), against 16 MiB."""
    big = power(B2, 9)
    entries = [v for table in (big.meet, big.join, big.fusion) for row in table for v in row]
    assert len({id(v) for v in entries + list(big.neg)}) == big.size


def test_construction_builds_no_order_and_no_hash():
    fresh = renamed(C, "fresh")
    assert "leq" not in vars(fresh) and "_table_hash" not in vars(fresh)


@pytest.mark.parametrize("algebra", [C, B2, M, power(B2, 5), product_of([C, M, B2])],
                         ids=lambda a: a.name)
def test_lazy_order_equality_and_hash_match_the_eager_definitions(algebra):
    n = algebra.size
    assert algebra.leq == tuple(tuple(algebra.meet[x][y] == x for y in range(n))
                                for x in range(n))
    copy = renamed(algebra, "copy")
    assert hash(copy) == hash(algebra) == hash(algebra.table_key())
    assert copy == algebra and copy is not algebra
    assert _mutated(algebra, "neg", 0, None, algebra.neg[1]) != algebra


def test_derived_values_live_on_their_algebra_keyed_by_arguments():
    calls = []

    @derived
    def build(algebra, k=None):
        calls.append((algebra.name, k))
        return None if k is None else [algebra.name, k]

    one, twin = renamed(C, "one"), renamed(C, "twin")
    assert build(one) is None and build(one) is None
    first = build(twin, 2)
    assert build(twin, 2) is first and build(twin, 3) == ["twin", 3]
    assert calls == [("one", None), ("twin", 2), ("twin", 3)]


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
    # collapsing bot,t is not compatible: bot meet a = bot but t meet a = a
    with pytest.raises(NotACongruence,
                       match=r"not well defined on blocks \('bot', 't'\) and \('a',\)"):
        quotient(C, [[BOT, T], [A], [B], [F], [TOP]])
    with pytest.raises(NotACongruence, match="do not partition"):
        quotient(C, [[0, 1, 2]])


def test_quotient_names_a_block_where_neg_is_not_well_defined():
    """boolean2^2 with meet, join and fusion the left projection: every
    partition respects them, and {0.0, 0.1} is split by neg alone."""
    square = power(B2, 2)
    left = [[x] * 4 for x in range(4)]
    projected = FiniteAlgebra("left", square.elements, left, left, left, square.neg)
    with pytest.raises(NotACongruence, match=r"neg not well defined on block \('0.0', '0.1'\)"):
        quotient(projected, [[0, 1], [2], [3]])


def test_subalgebra_construction():
    chain = subalgebra(C, (BOT, T, F, TOP))
    assert chain.elements == ("bot", "t", "f", "top")
    assert all(r.holds for r in validate_relevant_algebra(chain))
    # a member list is a set: a repeated index counts once, in name and elements
    assert subalgebra(C, (TOP, BOT, TOP)).name == "crystal[bot+top]"
    # neg swaps t and f, and t meet f = t, but f fusion f = top is missing
    with pytest.raises(UnknownElement, match="^subset not closed at f,f$"):
        subalgebra(C, (T, F))
    with pytest.raises(UnknownElement, match="^subset not closed under neg at t$"):
        subalgebra(C, (T,))
