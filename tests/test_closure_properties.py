"""Property tests: the closures that skip a commutative table's second
argument position, against their oracles on random small tables, commutative
or not."""

from hypothesis import given, settings, strategies as st

from relog.algebra import FiniteAlgebra
from relog.errors import NotACongruence
from relog.interp import FreeAlgebra
from relog.subcon import Congruence, all_subuniverses, principal_congruence
from tests_oracle_helper import (
    ReferenceFreeAlgebra,
    brute_force_principal_congruences,
    closure_state,
    is_compatible,
    powerset_subuniverses,
    set_partitions,
)


@st.composite
def small_algebras(draw):
    """A 2- to 4-element algebra with random tables.  Each binary table is
    drawn as it comes, commutative (mirrored from its upper triangle), or
    blind to its left argument, x op y = g(y).  Random tables mostly generate
    only the full congruence; a table blind to one argument keeps congruences
    that a closure visiting one argument position would get wrong."""
    n = draw(st.integers(2, 4))
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


@settings(derandomize=True, max_examples=25, deadline=None)
@given(small_algebras())
def test_closures_match_their_oracles_on_random_tables(algebra):
    assert closure_state(FreeAlgebra(algebra, 1).freeze()) == \
        closure_state(ReferenceFreeAlgebra(algebra, 1).freeze())
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
