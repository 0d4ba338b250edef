"""Brute-force value-vector oracle shared by the acceptance suite.

Enumerates raw formula trees by node count, with no closure machinery in
common with the implementation under test.
"""

from itertools import product


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
