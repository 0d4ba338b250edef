"""Brute-force oracles shared by the test suites.

The value-vector oracle enumerates raw formula trees by node count, with no
closure machinery in common with the implementation under test.  The
subuniverse oracle filters the whole powerset, and the congruence-lattice
oracle joins the principal congruences of all pairs with every congruence found.
"""

from itertools import combinations, product

from relog.subcon import congruence_join, identity_congruence, principal_congruence


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
