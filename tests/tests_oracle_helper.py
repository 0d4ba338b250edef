"""Brute-force oracles shared by the test suites.

The value-vector oracle enumerates raw formula trees by node count, with no
closure machinery in common with the implementation under test.  The
reference free-algebra closure builds every product coordinate by coordinate
and pushes both orientations of every table.  The subuniverse oracle filters
the whole powerset, and the congruence-lattice oracle joins the principal
congruences of all pairs with every congruence found.  The principal-congruence
oracle searches all set partitions.  The valuation oracles list every
valuation of a grid before filtering it.  The fixture tables below are not
commutative, so they tell a closure that skips an argument position apart.
"""

import heapq
from itertools import combinations, product

from relog.algebra import FiniteAlgebra, builtin_boolean2, power
from relog.interp import FreeAlgebra
from relog.logic import evaluate
from relog.subcon import congruence_join, identity_congruence, principal_congruence

_B2 = builtin_boolean2()
_B2_SQUARE = power(_B2, 2)

# boolean2^2 with meet replaced by the right projection x meet y = y.  Meet is
# not commutative, and its order has no covering pair, though the kernels of
# the two coordinate projections are congruences.  A projection's product is
# always one of its arguments, so its two orientations never differ in a
# closure.
NOT_A_LATTICE = FiniteAlgebra("boolean2^2~", _B2_SQUARE.elements,
                              [range(4)] * 4, _B2_SQUARE.join, _B2_SQUARE.fusion,
                              _B2_SQUARE.neg)

# boolean2 with fusion replaced by implication ~x | y: a table whose two
# orientations give new, different products.
IMPLICATION_FUSION = FiniteAlgebra(
    "boolean2->", _B2.elements, _B2.meet, _B2.join,
    [[_B2.join[_B2.neg[x]][y] for y in range(2)] for x in range(2)], _B2.neg,
)

# A four-element algebra whose meet ignores its left argument, x meet y = g(y)
# with g swapping 0 with 2 and 1 with 3; join and fusion are the left
# projection and neg the identity.  Only meet's right argument position
# carries the pair (0, 1) to (2, 3).
_SWAP = (2, 3, 0, 1)
LEFT_BLIND_MEET = FiniteAlgebra(
    "left-blind", ("a", "b", "c", "d"), [_SWAP] * 4,
    [[x] * 4 for x in range(4)], [[x] * 4 for x in range(4)], range(4),
)

# A three-element algebra whose meet is 0 everywhere except 2 meet 0 = 1;
# join and fusion are the left projection and neg the identity.  {0, 2} is
# not closed, but a closure that takes only x meet y for each new x, with y
# already a member, never forms 2 meet 0: 0 joins after 2 and contributes
# only 0 meet 2 = 0.
SKEW_MEET = FiniteAlgebra(
    "skew", ("a", "b", "c"), [(0, 0, 0), (0, 0, 0), (1, 0, 0)],
    [[x] * 3 for x in range(3)], [[x] * 3 for x in range(3)], range(3),
)


def brute_force_min_sizes(algebras, k, max_size):
    """Value vector -> least node count of a formula over k variables with it.

    A vector holds the formula's value under every valuation of every algebra
    in `algebras`, the algebras' valuation grids one after the other."""
    coordinates = [
        (algebra, point)
        for algebra in algebras
        for point in product(range(algebra.size), repeat=k)
    ]
    owners = [algebra for algebra, _ in coordinates]
    binary = [[getattr(a, op) for a in owners] for op in ("meet", "join", "fusion")]
    by_size = {1: {tuple(point[d] for _, point in coordinates) for d in range(k)}}
    for size in range(2, max_size + 1):
        fresh = set()
        for vec in by_size.get(size - 1, ()):
            fresh.add(tuple(a.neg[x] for a, x in zip(owners, vec)))
        for lsize in range(1, size - 1):
            rsize = size - 1 - lsize
            for lv in by_size.get(lsize, ()):
                for rv in by_size.get(rsize, ()):
                    for tables in binary:
                        fresh.add(tuple(t[x][y] for t, x, y in zip(tables, lv, rv)))
        by_size[size] = fresh
    sizes = {}
    for size in sorted(by_size):
        for vec in by_size[size]:
            sizes.setdefault(vec, size)
    return sizes


def brute_force_vectors(algebra, k, max_size):
    return set(brute_force_min_sizes([algebra], k, max_size))


def brute_force_designating_valuations(algebra, premises, conclusion=None):
    """Every valuation over the formulas' sorted variables, in lexicographic
    order, that designates each premise and leaves the conclusion, if any,
    undesignated."""
    formulas = list(premises) + ([] if conclusion is None else [conclusion])
    names = sorted(set().union(*[f.variables() for f in formulas]))
    grid = [dict(zip(names, point))
            for point in product(range(algebra.size), repeat=len(names))]
    return [
        valuation for valuation in grid
        if all(algebra.is_designated(evaluate(algebra, valuation, f)) for f in premises)
        and (conclusion is None
             or not algebra.is_designated(evaluate(algebra, valuation, conclusion)))
    ]


def _shared_valuation_indices(scope_vars, shared, base_size):
    """Map each valuation over `scope_vars` to the index of its restriction to
    `shared` in the free algebra's valuation grid (lexicographic, sorted names)."""
    positions = [scope_vars.index(v) for v in shared]
    indices = []
    for assignment in product(range(base_size), repeat=len(scope_vars)):
        idx = 0
        for p in positions:
            idx = idx * base_size + assignment[p]
        indices.append((assignment, idx))
    return indices


def reference_interpolant_masks(algebra, sigma, gamma, alpha, shared):
    """The shared-grid points where an interpolant must be designated (gamma
    side) and where it must not be (sigma/alpha side), from a listing of each
    side's whole valuation grid."""
    n = algebra.size
    is_designated = algebra.is_designated
    gamma_scope = sorted(set().union(*[g.variables() for g in gamma]) | set(shared))
    required = set()
    for assignment, idx in _shared_valuation_indices(gamma_scope, shared, n):
        valuation = dict(zip(gamma_scope, assignment))
        if all(is_designated(evaluate(algebra, valuation, g)) for g in gamma):
            required.add(idx)
    alpha_scope = sorted(set(alpha.variables()).union(*[s.variables() for s in sigma])
                         | set(shared))
    forbidden = set()
    for assignment, idx in _shared_valuation_indices(alpha_scope, shared, n):
        valuation = dict(zip(alpha_scope, assignment))
        if all(is_designated(evaluate(algebra, valuation, s)) for s in sigma) \
                and not is_designated(evaluate(algebra, valuation, alpha)):
            forbidden.add(idx)
    return required, forbidden


def is_closed(algebra, members):
    """Whether `members` is closed under the four operations."""
    ms = set(members)
    if any(algebra.neg[x] not in ms for x in ms):
        return False
    for x, y in product(ms, repeat=2):
        for table in (algebra.meet, algebra.join, algebra.fusion):
            if table[x][y] not in ms:
                return False
    return True


def powerset_subuniverses(algebra):
    """Every subuniverse, by filtering the whole powerset, sorted by (size, members)."""
    out = []
    for r in range(algebra.size + 1):
        for subset in combinations(range(algebra.size), r):
            if is_closed(algebra, subset):
                out.append(subset)
    return sorted(out, key=lambda s: (len(s), s))


def brute_force_congruence_lattice(algebra):
    """Every congruence, finest first: the principal congruences of all pairs,
    closed under joins of every found congruence with every other."""
    found = {identity_congruence(algebra)}
    for x, y in combinations(range(algebra.size), 2):
        found.add(principal_congruence(algebra, x, y))
    frontier = list(found)
    while frontier:
        new = []
        for theta in frontier:
            for phi in list(found):
                joined = congruence_join(theta, phi)
                if joined not in found:
                    found.add(joined)
                    new.append(joined)
        frontier = new
    return sorted(found, key=lambda c: (-len(c.blocks), c.block_of))


class ReferenceFreeAlgebra(FreeAlgebra):
    """FreeAlgebra with its closure step built one coordinate at a time.

    Both orientations of every binary table are pushed for every pair, so no
    commutativity is assumed anywhere."""

    def _pop_next(self):
        neg = self.base.neg
        tables = {"and": self.base.meet, "or": self.base.join, "fuse": self.base.fusion}
        while self._heap:
            size, _, vector, parent = heapq.heappop(self._heap)
            if vector in self.index:
                continue
            new_id = len(self.vectors)
            self.index[vector] = new_id
            self.vectors.append(vector)
            self.sizes.append(size)
            self.parents.append(parent)
            self._push(tuple(neg[v] for v in vector), size + 1, ("neg", new_id, None))
            for other_id in range(new_id + 1):
                ovec = self.vectors[other_id]
                osize = self.sizes[other_id]
                for op in ("and", "or", "fuse"):
                    table = tables[op]
                    if other_id != new_id:
                        self._push(
                            tuple(table[u][v] for u, v in zip(ovec, vector)),
                            osize + size + 1, (op, other_id, new_id),
                        )
                    self._push(
                        tuple(table[u][v] for u, v in zip(vector, ovec)),
                        size + osize + 1, (op, new_id, other_id),
                    )
            return new_id
        self.closed = True
        return None


def closure_state(fa):
    """What a closure has built so far: vectors, sizes, parents and the heap."""
    return fa.vectors, fa.sizes, fa.parents, sorted(fa._heap)


def set_partitions(n):
    """Every partition of range(n), each as a block-label tuple."""
    labels = [()]
    for _ in range(n):
        labels = [
            lab + (b,) for lab in labels for b in range(max(lab, default=-1) + 2)
        ]
    return labels


def is_compatible(algebra, labels):
    """Whether the partition with these block labels respects every operation,
    checking both argument positions of each binary table."""
    n = algebra.size
    for x, y in combinations(range(n), 2):
        if labels[x] != labels[y]:
            continue
        if labels[algebra.neg[x]] != labels[algebra.neg[y]]:
            return False
        for table in (algebra.meet, algebra.join, algebra.fusion):
            for w in range(n):
                if labels[table[x][w]] != labels[table[y][w]]:
                    return False
                if labels[table[w][x]] != labels[table[w][y]]:
                    return False
    return True


def brute_force_principal_congruences(algebra):
    """(x, y) -> block labels of the finest compatible partition relating x
    and y, for every pair x < y, found among all set partitions."""
    compatible = [p for p in set_partitions(algebra.size) if is_compatible(algebra, p)]
    out = {}
    for x, y in combinations(range(algebra.size), 2):
        relating = [p for p in compatible if p[x] == p[y]]
        finest = max(relating, key=lambda p: len(set(p)))
        assert all(
            q[u] == q[v] for q in relating
            for u, v in combinations(range(algebra.size), 2) if finest[u] == finest[v]
        ), "the finest compatible partition refines every other"
        out[x, y] = finest
    return out
