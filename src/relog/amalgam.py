"""Spans, amalgams and extensibility: questions about a finite algebra's
subalgebras that the map search of `relog.morph` answers over the
subuniverses and HS class of `relog.subcon`.

An amalgam is decided in V(A) through Jónsson's lemma: its targets are the
subdirectly irreducible members of HS(A) (B. Jónsson, Math. Scand. 21, 1967).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import FiniteAlgebra, derived, subalgebra
from .errors import RelogError
from .morph import Morphism, _embeds, _search_maps, automorphisms, embeddings, isomorphisms
from .subcon import _lattice_covers, all_subuniverses, hs_class, is_fsi


def _nontrivial_subalgebras(algebra):
    """The subalgebras on the subuniverses of two or more elements, keyed by
    their members, in subuniverse order."""
    return {s: subalgebra(algebra, s) for s in all_subuniverses(algebra) if len(s) >= 2}


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
    subalgebras = _nontrivial_subalgebras(algebra)
    certificates = []
    for s1 in subalgebras:
        for s2 in subalgebras:
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


def all_spans(algebra):
    """Every span of embeddings among the nontrivial (>= 2 element) subalgebras
    of `algebra`: by apex, left and right subalgebra in subuniverse order, then
    by left and right leg in lexicographic order."""
    nontrivial = list(_nontrivial_subalgebras(algebra).values())
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
        e.size > d.size and _embeds(d, e)
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
    collected greedily.  The result is the Amalgam found, or None, which is
    a proof that V has none.  A generator whose meet and join are not a lattice raises
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
        return Amalgam(span, (pair,))

    sides = (span.left.target, span.right.target)[:2 if mode == "AP" else 1]
    unseparated = [{(x, y) for x in range(s.size) for y in range(x)} for s in sides]
    pairs = (pair for target in _si_targets(generator)
             for pair in _commuting_pairs(span, target, False, False))
    family = []
    while any(unseparated):
        pair = next(pairs, None)
        if pair is None:
            return None
        split = [{(x, y) for x, y in todo if arm.mapping[x] != arm.mapping[y]}
                 for todo, arm in zip(unseparated, pair)]
        if any(split):
            family.append(pair)
            for todo, done in zip(unseparated, split):
                todo -= done
    return Amalgam(span, tuple(family))
