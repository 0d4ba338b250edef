"""Homomorphism enumeration, extensibility, and span amalgamation.

Morphism search propagates: assigning an image forces the image of its
negation and of its products with every element already assigned, and each
forced image is checked against an earlier one or assigned in turn, with an
undo trail to back out of a conflict.  The search branches only where nothing
is forced, on the lowest unassigned index with images in increasing order, so
results come out in lexicographic order of the map vector and reports are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from .algebra import FiniteAlgebra, derived, subalgebra
from .errors import RelogError, SizeCapExceeded
from .subcon import _lattice_covers, all_subuniverses, hs_class, is_fsi

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


# ---------------------------------------------------------------------------
# Extensibility
# ---------------------------------------------------------------------------

@dataclass
class ExtensionCertificate:
    """An isomorphism between two subalgebras together with an automorphism
    of the whole algebra restricting to it."""
    left_members: tuple
    right_members: tuple
    iso: Morphism          # between the two subalgebras
    extension: Morphism    # automorphism of the ambient algebra


@dataclass
class ExtensibilityReport:
    algebra: FiniteAlgebra
    extensible: bool
    certificates: list
    failure: tuple | None = None  # (left_members, right_members, iso) with no extension

    def __bool__(self):
        return self.extensible


def is_extensible(algebra):
    """Does every isomorphism between non-trivial (>= 2 element) subalgebras
    extend to an automorphism?  Returns a report with a certificate per
    isomorphism, or the first failing isomorphism."""
    autos = automorphisms(algebra)
    subs = [s for s in all_subuniverses(algebra) if len(s) >= 2]
    subalgebras = {s: subalgebra(algebra, s) for s in subs}
    certificates = []
    for s1 in subs:
        for s2 in subs:
            if len(s1) != len(s2):
                continue
            for phi in isomorphisms(subalgebras[s1], subalgebras[s2]):
                extension = None
                for auto in autos:
                    if all(auto.mapping[s1[i]] == s2[phi.mapping[i]]
                           for i in range(len(s1))):
                        extension = auto
                        break
                if extension is None:
                    return ExtensibilityReport(
                        algebra, False, certificates, failure=(s1, s2, phi)
                    )
                certificates.append(ExtensionCertificate(s1, s2, phi, extension))
    return ExtensibilityReport(algebra, True, certificates)


# ---------------------------------------------------------------------------
# Spans and amalgams
# ---------------------------------------------------------------------------

@dataclass
class Span:
    """Two morphisms out of a common apex.  In AP mode both legs must embed;
    in TIP mode only the right leg must."""
    left: Morphism   # apex -> B
    right: Morphism  # apex -> C

    def __post_init__(self):
        if self.left.source != self.right.source:
            raise ValueError("span legs must share their source")

    @property
    def apex(self):
        return self.left.source


@dataclass
class Amalgam:
    """An amalgam of a span as a family of commuting pairs (h: B -> D, k: C -> D),
    h∘left = k∘right, that jointly separate the elements of B, and of C in AP
    mode.  The amalgam is the product of the targets D, with the arms taken
    coordinatewise; a one-pair family lies in that pair's target, the empty
    family in the trivial algebra."""
    span: Span
    family: tuple

    @property
    def target_name(self):
        return " x ".join(h.target.name for h, _ in self.family)

    def image(self, side, x):
        """The name of x's image in the product under the left (0) or right (1) arm."""
        return ".".join(pair[side].target.elements[pair[side].mapping[x]]
                        for pair in self.family)

    def arm_pairs(self, side):
        source = (self.span.left, self.span.right)[side].target
        return [[source.elements[x], self.image(side, x)] for x in range(source.size)]

    def commutes(self):
        legs = self.span.left.mapping, self.span.right.mapping
        return all(h.mapping[legs[0][x]] == k.mapping[legs[1][x]]
                   for h, k in self.family for x in range(self.span.apex.size))

    def evidence(self):
        a = self.span.apex
        return [
            {
                "apex": a.elements[x],
                "via_left": self.image(0, self.span.left.mapping[x]),
                "via_right": self.image(1, self.span.right.mapping[x]),
            }
            for x in range(a.size)
        ]


@dataclass
class AmalgamSearchResult:
    amalgam: Amalgam | None
    mode: str

    @property
    def found(self):
        return self.amalgam is not None


def all_spans(algebra):
    """Every span of embeddings among the nontrivial (>= 2 element) subalgebras
    of `algebra`: by apex, left and right subalgebra in subuniverse order, then
    by left and right leg in lexicographic order."""
    nontrivial = [subalgebra(algebra, s) for s in all_subuniverses(algebra) if len(s) >= 2]
    legs = [[embeddings(apex, target) for target in nontrivial] for apex in nontrivial]
    for row in legs:
        for lefts in row:
            for rights in row:
                for left in lefts:
                    for right in rights:
                        yield Span(left, right)


@derived
def _si_targets(generator):
    """The subdirectly irreducible members of HS(generator) that embed in no
    larger one, by size then name.  A finite FSI algebra is SI, and a map into
    a subalgebra is a map into the larger algebra, so these targets suffice."""
    members = [d for d in hs_class(generator) if is_fsi(d)]
    return tuple(d for i, d in enumerate(members) if not any(
        e.size > d.size and next(_search_maps(d, e, injective=True), None)
        for e in members[i + 1:]))


def _commuting_pairs(span, target, left_injective, right_injective):
    """Every pair (h: B -> target, k: C -> target) with h∘left = k∘right: h in
    lexicographic order, then each k with the images that h forces on the
    right leg's image, which is injective in both modes."""
    for arm_left in _search_maps(span.left.target, target, injective=left_injective):
        forced = {span.right.mapping[x]: arm_left.mapping[span.left.mapping[x]]
                  for x in range(span.apex.size)}
        for arm_right in _search_maps(span.right.target, target,
                                      injective=right_injective, forced=forced):
            yield arm_left, arm_right


def amalgamate_span(span, generator, mode="AP"):
    """Decide whether the span has an amalgam in the variety V(generator).

    AP mode needs both legs and both arms injective; TIP mode needs only the
    right leg and the left arm injective.  An amalgam inside the generator
    comes first: the first in canonical order, as a one-pair family.
    Otherwise the generator's lattice reduct makes V congruence-distributive,
    so by Jónsson's lemma every subdirectly irreducible member of V lies in
    HS(generator), and an amalgam is a subdirect product of such members.
    The span therefore has an amalgam in V iff commuting pairs into them
    separate every two elements of B, and of C in AP mode; these pairs are
    collected greedily, and a result with `amalgam=None` is a proof that V
    has none.  A generator whose meet and join are not a lattice raises
    RelogError before any search.
    """
    if mode not in ("AP", "TIP"):
        raise ValueError("mode must be AP or TIP")
    if mode == "AP" and not (span.left.is_embedding and span.right.is_embedding):
        raise ValueError("AP-mode span needs both legs injective")
    if mode == "TIP" and not span.right.is_embedding:
        raise ValueError("TIP-mode span needs an injective right leg")
    if _lattice_covers(generator) is None:
        raise RelogError(f"the meet and join of {generator.name} are not a lattice: Jonsson's "
                         "lemma, which the amalgam decision rests on, does not apply")
    for pair in _commuting_pairs(span, generator, True, mode == "AP"):
        return AmalgamSearchResult(Amalgam(span, (pair,)), mode)

    sides = (span.left.target, span.right.target)[:2 if mode == "AP" else 1]
    unseparated = [{(x, y) for x in range(s.size) for y in range(x)} for s in sides]
    pairs = (pair for target in _si_targets(generator)
             for pair in _commuting_pairs(span, target, False, False))
    family = []
    while any(unseparated):
        pair = next(pairs, None)
        if pair is None:
            return AmalgamSearchResult(None, mode)
        split = [{(x, y) for x, y in todo if arm.mapping[x] != arm.mapping[y]}
                 for todo, arm in zip(unseparated, pair)]
        if any(split):
            family.append(pair)
            for todo, done in zip(unseparated, split):
                todo -= done
    return AmalgamSearchResult(Amalgam(span, tuple(family)), mode)
