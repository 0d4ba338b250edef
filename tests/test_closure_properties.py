"""Property tests on random small tables, commutative or not: the closures
that skip a commutative table's second argument position, and interpolation
decided from its two masks, against their oracles."""

from hypothesis import given, settings, strategies as st

from relog.algebra import FiniteAlgebra, product
from relog.errors import (
    InterpolantNotFound,
    NoSharedVariables,
    NotACongruence,
    NotEntailed,
)
from relog.interp import FreeAlgebra, maehara_interpolant, verify_interpolant
from relog.logic import And, Fuse, Not, Or, Var, entails, verify_countermodel
from relog.subcon import Congruence, all_subuniverses, principal_congruence
from tests_oracle_helper import (
    ReferenceFreeAlgebra,
    brute_force_principal_congruences,
    closure_state,
    is_compatible,
    powerset_subuniverses,
    reference_interpolant_masks,
    set_partitions,
)


@st.composite
def small_algebras(draw, sizes=(2, 4)):
    """An algebra of `sizes` elements, 2 to 4 by default, with random
    tables.  Each binary table is drawn as it comes, commutative (mirrored
    from its upper triangle), or blind to its left argument, x op y = g(y).
    Random tables mostly generate only the full congruence; a table blind to
    one argument keeps congruences that a closure visiting one argument
    position would get wrong."""
    n = draw(st.integers(*sizes))
    entry = st.integers(0, n - 1)

    def binary():
        rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                             min_size=n, max_size=n))
        shape = draw(st.sampled_from(("any", "commutative", "left-blind")))
        if shape == "commutative":
            rows = [[rows[min(x, y)][max(x, y)] for y in range(n)] for x in range(n)]
        elif shape == "left-blind":
            rows = [rows[0]] * n
        return rows

    meet, join, fusion = binary(), binary(), binary()
    neg = draw(st.lists(entry, min_size=n, max_size=n))
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
    for labels in set_partitions(algebra.size):
        blocks = [[x for x in range(algebra.size) if labels[x] == b]
                  for b in set(labels)]
        try:
            Congruence(algebra, blocks)
            accepted = True
        except NotACongruence:
            accepted = False
        assert accepted == is_compatible(algebra, labels), labels


def formulas(names):
    """Formulas over the variables `names` with at most four leaves."""
    def extend(inner):
        return st.one_of(
            inner.map(Not),
            st.builds(lambda ctor, left, right: ctor(left, right),
                      st.sampled_from((And, Or, Fuse)), inner, inner),
        )

    return st.recursive(st.sampled_from(names).map(Var), extend, max_leaves=4)


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
