"""Property tests on random small tables, commutative or not: the closures
that skip a commutative table's second argument position, the subuniverse
closure on member masks, the congruence closure on byte labels and its
lattice check, consequence over byte and tuple lanes,
interpolation decided from its two masks, and the morphism search, against
their oracles; and the file format's round trip on products."""

import math
from functools import lru_cache
from itertools import chain, combinations, product as product_of
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from relog import logic, subcon
from relog.algebra import (
    ByteLanes,
    FiniteAlgebra,
    TupleLanes,
    builtin_belnap_m,
    builtin_boolean2,
    builtin_crystal,
    load_algebra,
    power,
    product,
    quotient,
    serialize,
    subalgebra,
    validate_relevant_algebra,
)
from relog.errors import (
    InterpolantNotFound,
    NoSharedVariables,
    NotACongruence,
    NotEntailed,
    UnknownElement,
)
from relog.interp import FreeAlgebra, maehara_interpolant, verify_interpolant
from relog.logic import (
    And,
    Fuse,
    Not,
    Or,
    Var,
    entails,
    parse_formula,
    parse_premises,
    verify_countermodel,
)
from relog.morph import _search_maps
from relog.subcon import (
    LATTICE_AXIOMS,
    Congruence,
    all_subuniverses,
    check_cep_pair,
    congruence_lattice,
    generated_subuniverse,
    hs_class,
    is_fsi,
    is_simple,
    principal_congruence,
)
from tests_oracle_helper import (
    CHAIN17,
    IMPLICATION_FUSION,
    LEFT_BLIND_MEET,
    NOT_A_LATTICE,
    SKEW_MEET,
    ReferenceFreeAlgebra,
    brute_force_congruence_lattice,
    brute_force_maps,
    brute_force_designating_valuations,
    brute_force_principal_congruences,
    closure_state,
    is_closed,
    is_compatible,
    lattice_tables_from_covers,
    powerset_subuniverses,
    reference_cep_pair,
    reference_generated_subuniverse,
    reference_interpolant_masks,
    reference_quotient,
    reference_simple_and_fsi,
    reference_subalgebra,
    reference_subuniverses,
    set_partitions,
)


@st.composite
def small_algebras(draw, sizes=(2, 4)):
    """An algebra of `sizes` elements, 2 to 4 by default, with random
    tables.  Each binary table is drawn as it comes, commutative (mirrored
    from its upper triangle), blind to its left argument, x op y = g(y), or
    as the left projection x op y = x with up to two products redrawn.
    Random tables mostly generate only the full congruence; a table blind to
    one argument keeps congruences that a closure visiting one argument
    position would get wrong.  Random tables also make most products close
    to the whole carrier; a projection keeps every subset closed, so the
    subuniverses that the other tables leave are many."""
    n = draw(st.integers(*sizes))
    entry = st.integers(0, n - 1)

    def binary():
        shape = draw(st.sampled_from(("projection", "any", "commutative", "left-blind")))
        if shape == "projection":
            rows = [[x] * n for x in range(n)]
            for x, y, z in draw(st.lists(st.tuples(entry, entry, entry), max_size=2)):
                rows[x][y] = z
            return rows
        rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                             min_size=n, max_size=n))
        if shape == "commutative":
            rows = [[rows[min(x, y)][max(x, y)] for y in range(n)] for x in range(n)]
        elif shape == "left-blind":
            rows = [rows[0]] * n
        return rows

    meet, join, fusion = binary(), binary(), binary()
    if draw(st.booleans()):
        neg = draw(st.lists(entry, min_size=n, max_size=n))
    else:
        neg = list(range(n))
        for x, z in draw(st.lists(st.tuples(entry, entry), max_size=1)):
            neg[x] = z
    return FiniteAlgebra("random", [f"e{i}" for i in range(n)], meet, join, fusion, neg)


def grown_closure_state(cls, base, elements):
    fa = cls(base, 1)
    fa.ensure(elements - 1)
    return closure_state(fa)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(small_algebras(), small_algebras(sizes=(5, 6)))
def test_closures_match_their_oracles_on_random_tables(algebra, other):
    assert closure_state(FreeAlgebra(algebra, 1).freeze()) == \
        closure_state(ReferenceFreeAlgebra(algebra, 1).freeze())
    # 10 to 24 elements: byte lanes up to 16, table rows past it
    pair = product([algebra, other])
    assert grown_closure_state(FreeAlgebra, pair, 60) == \
        grown_closure_state(ReferenceFreeAlgebra, pair, 60)
    for (x, y), labels in brute_force_principal_congruences(algebra).items():
        assert principal_congruence(algebra, x, y).block_of == labels, (x, y)
    assert all_subuniverses(algebra) == powerset_subuniverses(algebra)
    # Member masks of two or three bytes.  Tables whose products are all one
    # element make every subset holding it closed, 2**19 + 1 subuniverses on
    # 20 elements, so the enumerations are compared up to 4096 of them.
    for seed in combinations(range(pair.size), 2):
        assert generated_subuniverse(pair, seed) == \
            reference_generated_subuniverse(pair, seed), seed
    reference = reference_subuniverses(pair, limit=4096)
    if reference is not None:
        assert all_subuniverses(pair, cap=pair.size) == reference
    # Projections make every partition a congruence, 115,975 of them on 10
    # elements, so the lattices are compared up to 256 congruences.
    reference = brute_force_congruence_lattice(pair, limit=256)
    if reference is not None:
        assert congruence_lattice(pair) == reference
        assert (is_simple(pair), is_fsi(pair)) == reference_simple_and_fsi(reference)
    assert (is_simple(algebra), is_fsi(algebra)) == \
        reference_simple_and_fsi(congruence_lattice(algebra))
    for labels in set_partitions(algebra.size):
        blocks = [[x for x in range(algebra.size) if labels[x] == b]
                  for b in set(labels)]
        try:
            Congruence(algebra, blocks)
            accepted = True
        except NotACongruence:
            accepted = False
        assert accepted == is_compatible(algebra, labels), labels


@lru_cache(maxsize=None)
def _lattice_bases():
    """The builtins, their nonempty subalgebras and their HS members."""
    builtins = (builtin_crystal(), builtin_belnap_m(), builtin_boolean2())
    return [*builtins,
            *(subalgebra(a, s) for a in builtins for s in all_subuniverses(a) if s),
            *(h for a in builtins for h in hs_class(a))]


@st.composite
def redrawn_lattices(draw):
    """A builtin, or a subalgebra or HS member of one, with one or two meet
    or join entries redrawn: near a lattice, and sometimes still one."""
    base = draw(st.sampled_from(_lattice_bases()))
    entry = st.integers(0, base.size - 1)
    tables = {"meet": [list(row) for row in base.meet],
              "join": [list(row) for row in base.join]}
    for op, x, y, z in draw(st.lists(st.tuples(st.sampled_from(tuple(tables)),
                                               entry, entry, entry),
                                     min_size=1, max_size=2)):
        tables[op][x][y] = z
    return FiniteAlgebra(base.name, base.elements, tables["meet"], tables["join"],
                         base.fusion, base.neg)


def _two_tables(meet, join):
    n = len(meet)
    return FiniteAlgebra("two-tables", [f"e{i}" for i in range(n)], meet, join, meet, range(n))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.one_of(small_algebras(), redrawn_lattices()))
# x meet y = x: every element below every other, not antisymmetric
@example(_two_tables([[0, 0], [1, 1]], [[0, 1], [0, 1]]))
# meet a semilattice with 0 at the bottom, join one with 1 at the top: 1 and
# 2 have no upper bound in meet's order, and only the up-set check says so
@example(_two_tables([[0, 0, 0], [0, 1, 0], [0, 0, 2]], [[0, 1, 1], [1, 1, 1], [1, 1, 2]]))
def test_lattice_check_matches_the_checklist(algebra):
    """The mask check finds a lattice exactly when LATTICE_AXIOMS hold, and
    then the pairs with nothing strictly between them."""
    covers = subcon._lattice_covers(algebra)
    assert (covers is not None) == all(
        r.holds for r in validate_relevant_algebra(algebra, axioms=LATTICE_AXIOMS))
    if covers is not None:
        leq, n = algebra.leq, algebra.size
        assert covers == [
            (x, y) for x in range(n) for y in range(n)
            if x != y and leq[x][y]
            and not any(leq[x][z] and leq[z][y] for z in range(n) if z not in (x, y))
        ]


# Hasse diagrams on range(n), bottom 0 and top n - 1: the pentagon N5 (not
# modular), the diamond M3 (modular, not distributive), a 4-chain and the
# 2 x 3 grid.
LATTICE_SHAPES = {
    "N5": (5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]),
    "M3": (5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]),
    "chain4": (4, [(0, 1), (1, 2), (2, 3)]),
    "grid2x3": (6, [(0, 1), (1, 2), (0, 3), (1, 4), (2, 5), (3, 4), (4, 5)]),
}


@st.composite
def shaped_lattices(draw):
    """A lattice of LATTICE_SHAPES whose fusion is its meet, its join or a
    random table, and whose neg is the identity or a random map."""
    n, covers = LATTICE_SHAPES[draw(st.sampled_from(sorted(LATTICE_SHAPES)))]
    meet, join = lattice_tables_from_covers(n, covers)
    entry = st.integers(0, n - 1)
    fusion = draw(st.sampled_from((meet, join, None)))
    if fusion is None:
        fusion = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                               min_size=n, max_size=n))
    neg = draw(st.one_of(st.just(list(range(n))), st.lists(entry, min_size=n, max_size=n)))
    return FiniteAlgebra("shaped", [f"e{i}" for i in range(n)], meet, join, fusion, neg)


def lattice_algebras():
    """A builtin or a subalgebra or HS member of one, a shaped lattice, or a
    product of two of these with at most 25 elements."""
    one = st.one_of(st.sampled_from(_lattice_bases()), shaped_lattices())
    pairs = st.tuples(one, one).filter(lambda p: p[0].size * p[1].size <= 25).map(product)
    return st.one_of(one, pairs)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(lattice_algebras())
@example(power(builtin_crystal(), 2))  # 72 covers in 8 perspectivity classes
def test_congruence_engine_matches_its_oracles_on_lattices(algebra):
    """One closed cover per perspectivity class gives the label table, and the
    first cover, of every cover's principal congruence; the lattice, simple
    and FSI match the all-pairs oracle."""
    covers = subcon._lattice_covers(algebra)
    assert covers is not None
    rows = subcon._congruence_rows(algebra)
    every_cover = {}
    for pair in covers:
        every_cover.setdefault(subcon._close(rows, subcon._IDENTITY_LABELS, (pair,)), pair)
    assert subcon._principal_seeds(algebra) == every_cover
    reference = brute_force_congruence_lattice(algebra)
    assert congruence_lattice(algebra) == reference
    assert (is_simple(algebra), is_fsi(algebra)) == reference_simple_and_fsi(reference)


def cep_algebras():
    """One of `lattice_algebras`; a table that is not a lattice, drawn at
    random, redrawn from a lattice or one of the fixtures; or a product of
    SKEW_MEET, whose meet does not commute, with a builtin, a subalgebra or
    HS member of one, a random table or a fixture, of at most 24 elements."""
    fixtures = st.sampled_from((NOT_A_LATTICE, LEFT_BLIND_MEET, IMPLICATION_FUSION))
    factors = st.one_of(st.sampled_from(_lattice_bases()), small_algebras(), fixtures)
    skewed = factors.filter(lambda a: a.size <= 8).map(lambda a: product([a, SKEW_MEET]))
    return st.one_of(lattice_algebras(), small_algebras(), redrawn_lattices(), fixtures,
                     skewed)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(cep_algebras(), st.lists(st.lists(st.integers(0, 23), min_size=1, max_size=3),
                                 max_size=3))
@example(power(builtin_crystal(), 2), [[8], [3, 26], [0, 31, 17]])
def test_subalgebra_congruences_match_their_oracles(algebra, seeds):
    """The congruences of a closed subset S, closed on the rows of the whole
    algebra restricted to S, are those of the subalgebra on S, in the same
    order; and `check_cep_pair` gives the witnesses of the reference that
    builds the subalgebra: the same blocks, verdicts, extension objects and
    theta.  Each subset is generated by up to three indices, taken modulo
    the size.  Tables with many congruences are compared up to 64 of them:
    the join oracle is quadratic in their number."""
    big_lattice = brute_force_congruence_lattice(algebra, limit=64)
    if big_lattice is None:
        return
    assert congruence_lattice(algebra) == big_lattice
    for seed in seeds:
        members = generated_subuniverse(algebra, [x % algebra.size for x in seed])
        reference = brute_force_congruence_lattice(subalgebra(algebra, members), limit=64)
        if reference is None:
            continue
        assert subcon._congruence_blocks(algebra, members) == \
            (members, [theta.blocks for theta in reference])
        witnesses = check_cep_pair(algebra, members, big_lattice=big_lattice)
        expected = reference_cep_pair(algebra, members, big_lattice)
        assert [(w.members, w.blocks, w.extendable) for w in witnesses] == \
            [(members, theta.blocks, ok) for theta, ok, _ in expected]
        assert all(w.extension is extension for w, (_, _, extension) in zip(witnesses, expected))
        assert [w.theta for w in witnesses] == [theta for theta, _, _ in expected]


def assert_same_algebra(got, expected):
    assert (got.name, got) == (expected.name, expected)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.one_of(small_algebras(), cep_algebras(),
                 small_algebras().map(lambda a: product([a, SKEW_MEET]))),
       st.lists(st.sets(st.integers(0, 23)), max_size=6),
       st.lists(st.lists(st.integers(0, 2), min_size=25, max_size=25), max_size=6))
@example(product([builtin_crystal(), SKEW_MEET]), [{3, 4}, {0, 9}], [[0, 1, 2] * 9])
# left projections respect every partition, so only neg splits {0, 2}
@example(FiniteAlgebra("left", "abc", *[[[x] * 3 for x in range(3)]] * 3, (1, 0, 2)), [], [])
def test_induced_algebras_match_their_oracles(algebra, subsets, partitions):
    """`subalgebra` refuses exactly the subsets that are not closed, and
    `quotient` exactly the partitions that are not compatible; what they
    build, and every candidate `hs_class` builds, has the name, elements and
    tables of the reference that checks closure first and collects the
    block of every product.  Up to 5 elements every subset and partition is
    tried; past that the drawn ones, taken modulo the size or cut to it,
    the first subuniverses and the first congruences."""
    n = algebra.size
    if n <= 5:
        subsets = list(chain.from_iterable(combinations(range(n), r) for r in range(n + 1)))
        partitions = set_partitions(n)
    else:
        subsets = [{x % n for x in s} for s in subsets] + all_subuniverses(algebra, cap=n)[:8]
        partitions = [labels[:n] for labels in partitions]
        partitions += [theta.block_of for theta in congruence_lattice(algebra)[:8]]
    for members in subsets:
        if is_closed(algebra, members):
            assert_same_algebra(subalgebra(algebra, members),
                                reference_subalgebra(algebra, members))
        else:
            with pytest.raises(UnknownElement, match="not closed"):
                subalgebra(algebra, members)
    for labels in partitions:
        blocks = subcon._blocks(labels)
        if is_compatible(algebra, labels):
            assert_same_algebra(quotient(algebra, blocks), reference_quotient(algebra, blocks))
        else:
            with pytest.raises(NotACongruence, match="not well defined"):
                quotient(algebra, blocks)
    if n > 8:
        return
    built, induced = [], subcon._induced

    def recorded(*args):
        built.append((args, induced(*args)))
        return built[-1][1]

    # every candidate is built before its isomorphism check: skip the checks
    with patch.object(subcon, "_induced", recorded), \
            patch.object(subcon, "_embeds", lambda source, target: False):
        hs_class(algebra)
    assert built or n < 2
    for (_, blocks, _), candidate in built:
        members = sorted(chain.from_iterable(blocks))
        position = {x: p for p, x in enumerate(members)}
        sub = reference_subalgebra(algebra, members)
        assert_same_algebra(candidate, reference_quotient(
            sub, [[position[x] for x in block] for block in blocks]))


def formulas(names):
    """Formulas over the variables `names` with at most four leaves.  Half
    are a binary connective over two different formulas of at most two
    leaves: a formula drawn as it comes is mostly a variable or a negation,
    and a table seen only at equal arguments hides its argument order."""
    def binary(inner):
        return st.builds(lambda ctor, left, right: ctor(left, right),
                         st.sampled_from((And, Or, Fuse)), inner, inner)

    def extend(inner):
        return st.one_of(inner.map(Not), binary(inner))

    def trees(leaves):
        return st.recursive(st.sampled_from(names).map(Var), extend, max_leaves=leaves)

    return st.one_of(trees(4), binary(trees(2)).filter(lambda f: f.left != f.right))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(small_algebras(),
       st.lists(formulas(("p", "r")), max_size=2),
       st.lists(formulas(("p", "q")), min_size=1, max_size=2),
       formulas(("p", "r")))
def test_interpolation_matches_its_oracles_on_random_tables(algebra, sigma, gamma, alpha):
    """NotEntailed exactly when consequence fails, with a countermodel that
    re-verifies; every interpolant re-verifies; and InterpolantNotFound only
    when no element of the reference free algebra meets the reference masks."""
    shared = {"p"} & alpha.variables().union(*[f.variables() for f in sigma]) \
        & set().union(*[f.variables() for f in gamma])
    verdict = entails([algebra], sigma + gamma, alpha)
    try:
        result = maehara_interpolant(sigma, gamma, alpha, [algebra])
    except NoSharedVariables:
        assert not shared
        return
    except NotEntailed as exc:
        assert not verdict.holds
        assert verify_countermodel(
            algebra, exc.countermodel.valuation, sigma + gamma, alpha)
        return
    except InterpolantNotFound:
        assert verdict.holds
        required, forbidden = reference_interpolant_masks(
            algebra, sigma, gamma, alpha, ("p",))
        designated = algebra.is_designated
        assert not any(
            all(designated(vector[i]) for i in required)
            and not any(designated(vector[i]) for i in forbidden)
            for vector in ReferenceFreeAlgebra(algebra, 1).freeze().vectors)
        return
    assert verdict.holds
    assert verify_interpolant(sigma, gamma, alpha, result.delta, [algebra]).ok


def lane_countermodels(algebra, premises, conclusion):
    """Every valuation that designates each premise and not the conclusion,
    in lexicographic order, read off one lane of `algebra.lanes` per
    subformula over the whole grid."""
    formulas = premises + [conclusion]
    variables = sorted(set().union(*[f.variables() for f in formulas]))
    lanes = algebra.lanes
    steps, (*premise_slots, goal) = logic._lane_program(variables, formulas)
    values = lanes.grid(len(variables))
    for op, left, right in steps:
        values.append(lanes.neg(values[left]) if op is None
                      else lanes.apply(op, values[left], values[right]))
    bad = lanes.mask(values[goal], False)
    for slot in premise_slots:
        bad &= lanes.mask(values[slot], True)
    grid = product_of(range(algebra.size), repeat=len(variables))
    hits = bad.to_bytes(algebra.size ** len(variables), "big")
    return [dict(zip(variables, point)) for point, hit in zip(grid, hits) if hit]


def assert_entails_matches_the_sweep_oracle(algebras, premises, conclusion,
                                           chunks=(logic._LANE_BYTES,)):
    """Under each lane length in `chunks`, the verdict of `entails`, and its
    countermodel's algebra and valuation, are those of the first algebra
    whose listed grid has a designating valuation, and its first one.  The
    lanes of every algebra also find the oracle's whole list of designating
    valuations, not only the first, which is often the all-zeros point where
    every binary table sees equal arguments."""
    premises = list(premises)
    verdicts = []
    for chunk in chunks:
        with patch.object(logic, "_LANE_BYTES", chunk):
            verdicts.append(entails(algebras, premises, conclusion))
    first = None
    for algebra in algebras:
        found = brute_force_designating_valuations(algebra, premises, conclusion)
        assert lane_countermodels(algebra, premises, conclusion) == found, algebra.name
        if found and first is None:
            first = algebra, found[0]
    if first is None:
        assert all(verdict.holds for verdict in verdicts)
        return
    algebra, valuation = first
    for verdict in verdicts:
        model = verdict.countermodel
        assert not verdict.holds
        assert model.algebra is algebra and model.valuation == valuation
        assert verify_countermodel(algebra, model.valuation, premises, conclusion)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(small_algebras(), small_algebras(sizes=(5, 6)),
       st.lists(formulas(("p", "q", "r")), max_size=2),
       formulas(("p", "q", "r")))
def test_entails_matches_the_sweep_oracle_on_random_tables(algebra, other, premises, conclusion):
    """Byte lanes on up to 16 elements and tuple lanes on a product of more
    than 16, one grid point per lane entry, each with the grid in one chunk
    and, under a 4-point chunk, in many (one point each on the product); r
    is renamed to p on the product to keep its grid small.  No table of the
    product commutes, as none of SKEW_MEET's does; on the square of a random
    algebra, a tuple lane that read a table's arguments in the wrong order
    passed every case."""
    assert isinstance(other.lanes, ByteLanes)
    assert_entails_matches_the_sweep_oracle([algebra, other], premises, conclusion)
    assert_entails_matches_the_sweep_oracle([other, algebra], premises, conclusion, chunks=(4,))
    big = product([algebra, SKEW_MEET, SKEW_MEET])
    assert isinstance(big.lanes, TupleLanes)
    rename = {"r": Var("p")}
    assert_entails_matches_the_sweep_oracle(
        [big], [f.substitute(rename) for f in premises], conclusion.substitute(rename),
        chunks=(logic._LANE_BYTES, 4))


@pytest.mark.parametrize("big", [CHAIN17, product([CHAIN17, builtin_boolean2()])],
                         ids=["chain17", "chain17 x boolean2"])
def test_tuple_lanes_keep_the_argument_order_of_a_non_commutative_table(big):
    """The 17-element chain designates 7 of its elements and its fusion does
    not commute, so the argument order shows in every case here."""
    for premises, conclusion in (("", "p * q"), ("", "q * p"), ("p * q", "q * p"),
                                 ("q * p", "p * q"), ("p", "(p * q) | ~(q * p)"),
                                 ("(p * ~q) & q", "p"), ("p & q", "q * p")):
        assert_entails_matches_the_sweep_oracle(
            [big], parse_premises(premises), parse_formula(conclusion),
            chunks=(logic._LANE_BYTES, big.size, 4))


PAST_256 = {
    "boolean2^9": lambda: power(builtin_boolean2(), 9),
    "crystal x belnap-m x boolean2^3": lambda: product(
        [builtin_crystal(), builtin_belnap_m(), power(builtin_boolean2(), 3)]),
}


@pytest.mark.parametrize("case", PAST_256)
def test_entails_past_256_elements_matches_the_sweep_oracle(case):
    """Tuple lanes whose element indices no longer fit in a byte, on
    one-variable problems, in one chunk and one point at a time."""
    big = PAST_256[case]()
    for premises, conclusion in (("", "p"), ("", "~p"), ("p", "p * p"), ("~p", "p -> ~p"),
                                 ("p | ~p", "p & ~p"), ("~(p * ~p)", "p")):
        assert_entails_matches_the_sweep_oracle(
            [big], parse_premises(premises), parse_formula(conclusion),
            chunks=(logic._LANE_BYTES, 4))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(small_algebras(), small_algebras(), st.data())
def test_morphism_search_matches_brute_force_on_random_tables(algebra, other, data):
    """Every map that preserves the operations, and only those, in
    lexicographic order, with and without injectivity, with and without a
    pinned image.  An algebra always maps to itself, and projections map to
    many tables, so the lists are seldom all empty."""
    for source, target in ((algebra, algebra), (algebra, other), (other, algebra)):
        forced = data.draw(st.dictionaries(st.integers(0, source.size - 1),
                                           st.integers(0, target.size - 1), max_size=2))
        for injective in (False, True):
            for pins in (None, forced):
                found = [m.mapping for m in _search_maps(source, target, injective, pins)]
                assert found == [m.mapping for m in brute_force_maps(
                    source, target, injective, pins)], (injective, pins)


@lru_cache(maxsize=None)
def _builtins_and_their_hs_members():
    builtins = (builtin_crystal(), builtin_belnap_m(), builtin_boolean2())
    return builtins + tuple(member for b in builtins for member in hs_class(b))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_serialize_round_trips_products_of_builtins_and_their_hs_members(data):
    """Names with spaces (`a x b`), dots and plus signs read back."""
    factors = data.draw(st.lists(st.sampled_from(_builtins_and_their_hs_members()),
                                 min_size=1, max_size=3)
                        .filter(lambda fs: math.prod(f.size for f in fs) <= 64))
    pair = product(factors)
    text = serialize(pair)
    again = load_algebra(text)
    assert serialize(again) == text
    assert again == pair and again.name == pair.name
