"""The map search: homomorphisms, embeddings, isomorphisms and automorphisms.

This module is the search alone, with its size guard; spans, amalgams and
extensibility, which also need subuniverses, live in `relog.amalgam`.  The
search propagates: assigning an image forces the image of its negation and
of its products with every element already assigned, and each forced image
is checked against an earlier one or assigned in turn, with an undo trail to
back out of a conflict.  The search branches only where nothing is forced,
on the lowest unassigned index with images in increasing order, so results
come out in lexicographic order of the map vector and reports are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import FiniteAlgebra
from .errors import SizeCapExceeded

DEFAULT_HOM_SIZE_CAP = 4096


@dataclass(frozen=True)
class Morphism:
    source: FiniteAlgebra
    target: FiniteAlgebra
    mapping: tuple  # source index -> target index

    @property
    def is_injective(self):
        return len(set(self.mapping)) == len(self.mapping)

    @property
    def is_surjective(self):
        return len(set(self.mapping)) == self.target.size

    @property
    def is_embedding(self):
        return self.is_injective

    @property
    def is_isomorphism(self):
        return self.is_injective and self.is_surjective

    def __call__(self, x):
        return self.mapping[x]

    def to_pairs(self):
        return [
            [self.source.elements[x], self.target.elements[v]]
            for x, v in enumerate(self.mapping)
        ]

    def __repr__(self):
        pairs = ", ".join(f"{a}->{b}" for a, b in self.to_pairs())
        return f"Morphism({self.source.name} => {self.target.name}: {pairs})"


def _search_maps(source, target, injective=False, forced=None):
    """Operation-preserving maps source -> target, in lexicographic order.

    Maps are yielded as the search finds them.  `forced` pins images for some
    source indices before the search starts.  Every index below the one the
    search branches on is fixed in its subtree, so trying values in
    increasing order keeps the maps in lexicographic order.
    """
    n, m = source.size, target.size
    sneg, tneg = source.neg, target.neg
    # (source table, target table) per argument order; the second order
    # repeats the first only if both the source and the target table commute
    sides = []
    for (s, st, sc), (t, tt, tc) in zip(source.binary_tables, target.binary_tables):
        sides.append((s, t))
        if not (sc and tc):
            sides.append((st, tt))
    mapping = [None] * n
    used = [False] * m
    trail = []  # assigned source indices, in assignment order
    values = []  # their images

    def assign(x, v):
        """Assign x -> v and every image it forces; False on a conflict,
        which leaves its partial work on the trail to be undone.

        The trail is also the work queue.  An entry x -> v forces neg x ->
        neg v and, for each binary table and each entry y up to x, the images
        of x·y and y·x; a forced image of an assigned element is checked at
        once, one of an unassigned element is assigned and queued.  So each
        pair of assigned elements is checked once, when the later is taken.
        """
        k = len(trail)
        pending = ((x, v),)
        while True:
            for r, w in pending:
                image = mapping[r]
                if image is None:
                    if injective and used[w]:
                        return False
                    used[w] = True
                    mapping[r] = w
                    trail.append(r)
                    values.append(w)
                elif image != w:
                    return False
            if k == len(trail):
                return True
            x = trail[k]
            v = values[k]
            k += 1
            done = trail[:k]
            images = values[:k]
            pending = [(sneg[x], tneg[v])]
            for s, t in sides:
                sx, tv = s[x], t[v]
                products = [sx[y] for y in done]
                want = [tv[w] for w in images]
                got = [mapping[r] for r in products]
                if got != want:
                    for r, g, w in zip(products, got, want):
                        if g != w:
                            if g is not None:
                                return False
                            pending.append((r, w))

    for x, v in (forced or {}).items():
        if not assign(x, v):
            return

    def lowest_free(x):
        while x < n and mapping[x] is not None:
            x += 1
        return x

    # an explicit stack of [index, next value, trail mark], so that deep
    # searches do not recurse once per element
    stack = [[lowest_free(0), 0, len(trail)]]
    while stack:
        frame = stack[-1]
        x, v, mark = frame
        if x == n:
            yield Morphism(source, target, tuple(mapping))
            stack.pop()
            continue
        while len(trail) > mark:  # undo back to the mark
            mapping[trail.pop()] = None
            used[values.pop()] = False
        if v == m:
            stack.pop()
            continue
        frame[1] = v + 1
        if assign(x, v):
            stack.append([lowest_free(x + 1), 0, len(trail)])


def _embeds(source, target):
    """Whether some injective homomorphism source -> target exists: the
    search stops at its first map, with no size guard."""
    return next(_search_maps(source, target, injective=True), None) is not None


def _guard_sizes(source, target):
    if source.size * target.size > DEFAULT_HOM_SIZE_CAP:
        raise SizeCapExceeded(
            f"morphism search {source.name} -> {target.name} exceeds cap "
            f"{DEFAULT_HOM_SIZE_CAP}"
        )


def homomorphisms(source, target):
    """All homomorphisms source -> target, lexicographically ordered."""
    _guard_sizes(source, target)
    return list(_search_maps(source, target))


def embeddings(source, target, forced=None):
    """All injective homomorphisms source -> target; `forced` pins images
    of some source indices, as in `_search_maps`."""
    _guard_sizes(source, target)
    if source.size > target.size:
        return []
    return list(_search_maps(source, target, injective=True, forced=forced))


def isomorphisms(source, target):
    """All isomorphisms source -> target (bijective homs; inverses are automatic)."""
    if source.size != target.size:
        return []
    return embeddings(source, target)


def automorphisms(algebra):
    return isomorphisms(algebra, algebra)
