"""Homomorphism enumeration, extensibility, and span amalgamation.

Morphism search is plain backtracking over element images with incremental
operation-preservation checks; results are always returned in lexicographic
order of the map vector so reports are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from .algebra import FiniteAlgebra, power, subalgebra
from .errors import SizeCapExceeded
from .subcon import DEFAULT_SUBUNIVERSE_CAP, all_subuniverses

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
    """Backtracking enumeration of operation-preserving maps, lexicographic order.

    Maps are yielded as the search finds them.  `forced` pins images for some
    source indices before the search starts.
    """
    n, m = source.size, target.size
    mapping = [None] * n
    if forced:
        for x, v in forced.items():
            if mapping[x] is not None and mapping[x] != v:
                return
            mapping[x] = v
    if injective:
        used = [False] * m
        seen = set()
        for v in mapping:
            if v is None:
                continue
            if v in seen:
                return
            seen.add(v)
            used[v] = True

    # reverse index: for each source element r, the (table pair, x, y) producing it,
    # so constraints where r is only a *result* are re-checked when r is assigned
    tables = ((source.meet, target.meet), (source.join, target.join),
              (source.fusion, target.fusion))
    produced_by = [[] for _ in range(n)]
    for stable, ttable in tables:
        for x in range(n):
            for y in range(n):
                produced_by[stable[x][y]].append((ttable, x, y))
    neg_preimage = [[] for _ in range(n)]
    for x in range(n):
        neg_preimage[source.neg[x]].append(x)

    def consistent(k):
        # every constraint whose participants are all assigned and that touches k
        mk = mapping[k]
        nk = mapping[source.neg[k]]
        if nk is not None and nk != target.neg[mk]:
            return False
        for x in neg_preimage[k]:
            mx = mapping[x]
            if mx is not None and target.neg[mx] != mk:
                return False
        for y in range(n):
            my = mapping[y]
            if my is None:
                continue
            for stable, ttable in tables:
                r = mapping[stable[k][y]]
                if r is not None and r != ttable[mk][my]:
                    return False
                r = mapping[stable[y][k]]
                if r is not None and r != ttable[my][mk]:
                    return False
        for ttable, x, y in produced_by[k]:
            mx, my = mapping[x], mapping[y]
            if mx is not None and my is not None and ttable[mx][my] != mk:
                return False
        return True

    order = [x for x in range(n) if mapping[x] is None]
    pinned = [x for x in range(n) if mapping[x] is not None]
    for x in pinned:
        if not consistent(x):
            return

    def extend(i):
        if i == len(order):
            yield Morphism(source, target, tuple(mapping))
            return
        x = order[i]
        for v in range(m):
            if injective and used[v]:
                continue
            mapping[x] = v
            if injective:
                used[v] = True
            if consistent(x):
                yield from extend(i + 1)
            mapping[x] = None
            if injective:
                used[v] = False

    yield from extend(0)


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


def embeddings(source, target):
    """All injective homomorphisms source -> target."""
    _guard_sizes(source, target)
    if source.size > target.size:
        return []
    return list(_search_maps(source, target, injective=True))


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
    span: Span
    target: FiniteAlgebra
    arm_left: Morphism   # B -> target
    arm_right: Morphism  # C -> target

    def commutes(self):
        a = self.span.apex
        return all(
            self.arm_left.mapping[self.span.left.mapping[x]]
            == self.arm_right.mapping[self.span.right.mapping[x]]
            for x in range(a.size)
        )

    def evidence(self):
        a = self.span.apex
        return [
            {
                "apex": a.elements[x],
                "via_left": self.target.elements[
                    self.arm_left.mapping[self.span.left.mapping[x]]],
                "via_right": self.target.elements[
                    self.arm_right.mapping[self.span.right.mapping[x]]],
            }
            for x in range(a.size)
        ]


@dataclass
class AmalgamSearchResult:
    amalgam: Amalgam | None
    mode: str
    power_bound: int
    targets_tried: int

    @property
    def found(self):
        return self.amalgam is not None


def _candidate_targets(generator, power_bound):
    """Search order: the generator itself, then subalgebras of its direct powers;
    a power too large to enumerate raises SizeCapExceeded before it is built."""
    yield generator
    for exponent in range(1, power_bound + 1):
        size = generator.size ** exponent
        if size > DEFAULT_SUBUNIVERSE_CAP:
            raise SizeCapExceeded(
                f"amalgam search needs the subuniverses of {generator.name}^{exponent} "
                f"({size} elements), over cap {DEFAULT_SUBUNIVERSE_CAP}"
            )
        big = generator if exponent == 1 else power(generator, exponent)
        for members in all_subuniverses(big):
            if not members:
                continue
            candidate = subalgebra(big, members)
            if exponent == 1 and len(members) == big.size:
                continue  # the generator itself, already tried
            yield candidate


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


def amalgamate_span(span, generator, mode="AP", power_bound=1):
    """Search for an amalgam of the span among subalgebras of powers of `generator`.

    AP mode needs both legs and both arms injective; TIP mode needs only the
    right leg and the left arm injective.  Returns the first amalgam found in
    canonical order, or a result with `amalgam=None` once the bound is exhausted.
    Reaching a power over the subuniverse cap raises SizeCapExceeded.
    """
    if mode not in ("AP", "TIP"):
        raise ValueError("mode must be AP or TIP")
    if mode == "AP" and not (span.left.is_embedding and span.right.is_embedding):
        raise ValueError("AP-mode span needs both legs injective")
    if mode == "TIP" and not span.right.is_embedding:
        raise ValueError("TIP-mode span needs an injective right leg")

    b_alg, c_alg, apex = span.left.target, span.right.target, span.apex
    min_size = max(b_alg.size, c_alg.size) if mode == "AP" else b_alg.size
    tried = 0
    for target in _candidate_targets(generator, power_bound):
        if target.size < min_size:
            continue
        tried += 1
        left_arms = _search_maps(b_alg, target, injective=True)
        for arm_left in left_arms:
            forced = {}
            ok = True
            for x in range(apex.size):
                pos = span.right.mapping[x]
                want = arm_left.mapping[span.left.mapping[x]]
                if forced.get(pos, want) != want:
                    ok = False
                    break
                forced[pos] = want
            if not ok:
                continue
            for arm_right in _search_maps(
                c_alg, target, injective=(mode == "AP"), forced=forced,
            ):
                return AmalgamSearchResult(
                    Amalgam(span, target, arm_left, arm_right),
                    mode, power_bound, tried,
                )
    return AmalgamSearchResult(None, mode, power_bound, tried)
