"""Subuniverses, congruences, simplicity and the congruence extension property.

Congruences are generated by closing pairs under one-step translations of the
basic operations (unary polynomial closure), on block representatives after
R. Freese, "Computing congruences efficiently", Algebra Universalis 59 (2008).
A partition is a 256-byte label table that sends each element to the least
element of its block, so merging two blocks is one `bytes.replace`, and all
translations of a pair are compared at once by translating two rows built
once per algebra through the labels.  One closure serves principal
congruences, joins and the whole lattice, on at most 256 elements.  The
congruence lattice is the join-closure of the principal congruences of
covering pairs: on a lattice-based algebra these generate every congruence,
and perspective covers generate the same one, so one cover is closed per
perspectivity class.  A table that fails a lattice law, found from down-set
and up-set bitmasks in O(n²), falls back to all pairs as generators.  The
same loop closes the congruences of a closed subset S: its rows are the
algebra's with only the positions in S, and its covers come from the same
bitmasks restricted to S, so the CEP and HS checks build no subalgebra to
read Con(S).  Simplicity and finite subdirect irreducibility are read off
these generators alone, without the lattice.  Subuniverses are bitmasks over
the elements, enumerated by Close-by-One over the one-generated
subuniverses, so each is kept from exactly one closure; a new element is
combined with all members by one lookup per byte of the member mask, in
tables built once per algebra.
Everything here is exhaustive: the results are exact, not sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from operator import itemgetter

from .algebra import (FiniteAlgebra, _check_indices, _induced, _not_closed, _partition_blocks,
                      derived, quotient, subalgebra)
from .errors import SizeCapExceeded
from .morph import _embeds

DEFAULT_SUBUNIVERSE_CAP = 24
DEFAULT_CONGRUENCE_CAP = 100

# The checklist entries that make meet and join a lattice, so that `leq` is
# its order and covering pairs generate the congruence lattice.
# `_lattice_covers` decides exactly these.
LATTICE_AXIOMS = (
    "meet-idempotent", "meet-commutative", "meet-associative",
    "join-idempotent", "join-commutative", "join-associative", "absorption",
)


class Congruence:
    """An operation-compatible partition, held as canonical blocks."""

    def __init__(self, algebra, blocks, check=True):
        self.algebra = algebra
        self.blocks = tuple(_partition_blocks(algebra, blocks))
        if check:
            quotient(algebra, self.blocks)  # raises NotACongruence
        block_of = [None] * algebra.size
        for bi, block in enumerate(self.blocks):
            for x in block:
                block_of[x] = bi
        self.block_of = tuple(block_of)

    def related(self, x, y):
        return self.block_of[x] == self.block_of[y]

    @property
    def is_identity(self):
        return len(self.blocks) == self.algebra.size

    @property
    def is_full(self):
        return len(self.blocks) == 1

    def restrict(self, members):
        """Partition induced on a subset, as blocks of positions into `members`."""
        block_of = self.block_of
        return _blocks([block_of[x] for x in sorted(members)])

    def block_names(self):
        return [list(self.algebra.names(block)) for block in self.blocks]

    def __eq__(self, other):
        if not isinstance(other, Congruence):
            return NotImplemented
        return self.algebra == other.algebra and self.block_of == other.block_of

    def __hash__(self):
        return hash((self.algebra, self.block_of))

    def __repr__(self):
        if self.is_identity:
            return f"Congruence({self.algebra.name}, identity)"
        if self.is_full:
            return f"Congruence({self.algebra.name}, full)"
        return f"Congruence({self.algebra.name}, {self.block_names()})"


def identity_congruence(algebra):
    return Congruence(algebra, [[x] for x in range(algebra.size)], check=False)


def full_congruence(algebra):
    return Congruence(algebra, [list(range(algebra.size))], check=False)


def _translation_tables(algebra):
    """Tables whose row x holds every binary product with x as one argument:
    each binary table, and its transpose unless the table commutes."""
    return [
        side
        for table, transpose, commutative in algebra.binary_tables
        for side in ((table,) if commutative else (table, transpose))
    ]


# A label is one byte, so a label table covers at most 256 elements.
_MAX_LABELLED = 256
_IDENTITY_LABELS = bytes(range(256))


@derived
def _congruence_rows(algebra):
    """Per element x, one `bytes` row: row x of every table of
    `_translation_tables`, then neg x.  Position i of two rows holds the
    images of x and y under one one-step translation."""
    if algebra.size > _MAX_LABELLED:
        raise SizeCapExceeded(
            f"congruences of {algebra.name} ({algebra.size} elements) need one "
            f"byte label per element, at most {_MAX_LABELLED} elements"
        )
    sides = _translation_tables(algebra)
    return tuple(
        bytes([v for side in sides for v in side[x]] + [algebra.neg[x]])
        for x in range(algebra.size)
    )


def _close(rows, labels, pairs):
    """Label table of the least congruence that contains the one `labels`
    stands for and relates each of `pairs`.

    A label table sends each element to the least element of its block, and
    `labels` must already be a congruence.  Merging blocks u < v is one
    `replace` of label v by u, and queues (u, v).  A popped pair is pushed
    through every one-step translation at once: its two rows are translated
    through the labels and compared, and only when they differ are their
    positions walked for blocks to merge.  The queued pairs generate the
    partition, and every translation of each of them is related, so the result
    is compatible; every merge is forced, so it is the least.
    """
    queue = []
    pending = pairs
    while True:
        for u, v in pending:
            if u != v:
                u, v = labels[u], labels[v]
                if u != v:
                    if u > v:
                        u, v = v, u
                    labels = labels.replace(bytes((v,)), bytes((u,)))
                    queue.append((u, v))
        if not queue:
            return labels
        x, y = queue.pop()
        left = rows[x].translate(labels)
        right = rows[y].translate(labels)
        pending = () if left == right else zip(left, right)


def _labels(theta):
    """The label table of a congruence."""
    labels = bytearray(_IDENTITY_LABELS)
    for block in theta.blocks:
        for x in block:
            labels[x] = block[0]
    return bytes(labels)


def _congruence(algebra, labels):
    """The Congruence whose blocks share a label in `labels`."""
    return Congruence(algebra, _blocks(labels[:algebra.size]), check=False)


def _carrier(algebra, members=None, cap=None):
    """(members, mask, rows) of a closed subset S, all of `algebra` by
    default: its elements in increasing order, its bitmask, and the rows of
    `_congruence_rows` keyed by element with only the positions y in S of
    each translation table, and neg.  They are S's rows in the subalgebra
    on S, in the ids of `algebra`.  An index out of range raises
    UnknownElement before any row is read, as does a subset whose rows
    leave it, which is not closed, naming where it leaves.  Past `cap`
    members, SizeCapExceeded names both sizes before any row is read."""
    n = algebra.size
    if members is None:
        members, mask = range(n), (1 << n) - 1
    else:
        mask = _mask(algebra, members)
        members = _members(mask)
    if cap is not None and len(members) > cap:
        label = algebra.name if len(members) == n else \
            f"a {len(members)}-element subalgebra of {algebra.name}"
        raise SizeCapExceeded(f"congruence lattice of {label} ({n} elements) exceeds cap {cap}")
    rows = _congruence_rows(algebra)
    if len(members) == n:
        return members, mask, rows
    width = len(rows[0]) - 1
    take = itemgetter(*[side + y for side in range(0, width, n) for y in members], width)
    inside = bytes(members)
    sliced = {}
    for x in members:
        row = sliced[x] = bytes(take(rows[x]))
        if row.translate(None, inside):
            raise _not_closed(algebra, members)
    return members, mask, sliced


def congruence_from_pairs(algebra, pairs):
    """Least congruence containing the given pairs (unary polynomial closure).

    An element outside range(algebra.size) raises UnknownElement, and an
    algebra of more than 256 elements SizeCapExceeded.
    """
    pairs = list(pairs)
    _check_indices(algebra, chain.from_iterable(pairs))
    rows = _congruence_rows(algebra)
    return _congruence(algebra, _close(rows, _IDENTITY_LABELS, pairs))


def principal_congruence(algebra, x, y):
    """Least congruence identifying x and y."""
    return congruence_from_pairs(algebra, [(x, y)])


def congruence_join(theta, phi):
    """Join in the congruence lattice: phi's pairs closed onto theta."""
    algebra = theta.algebra
    pairs = [(block[0], x) for block in phi.blocks for x in block[1:]]
    return _congruence(algebra, _close(_congruence_rows(algebra), _labels(theta), pairs))


@derived
def _order_masks(algebra):
    """Down-sets D[y] and up-sets U[x] of x <= y iff x meet y = x, as
    bitmasks, and each up-set as a list in increasing order."""
    n = algebra.size
    down = [0] * n
    up = [0] * n
    above = [[] for _ in range(n)]
    for x, row in enumerate(algebra.meet):
        for y, low in enumerate(row):
            if low == x:
                down[y] |= 1 << x
                up[x] |= 1 << y
                above[x].append(y)
    return down, up, above


@derived
def _lattice_covers(algebra):
    """The pairs (x, y) with y covering x in the order of meet and join, or
    None when the two tables do not form a lattice.

    With the down-sets D and up-sets U of `_order_masks`, the tables form a
    lattice iff D[x] & U[x] = {x}, so the relation is reflexive and
    antisymmetric, D[x meet y] = D[x] & D[y] and U[x join y] = U[x] & U[y]:
    the relation is then transitive, and meet and join are its greatest
    lower and least upper bounds (Davey and Priestley, Introduction to
    Lattices and Order, Thm 2.10).  This decides LATTICE_AXIOMS with O(n²)
    mask operations.
    """
    n = algebra.size
    meet, join = algebra.meet, algebra.join
    down, up, _ = _order_masks(algebra)
    if any(down[x] & up[x] != 1 << x for x in range(n)):
        return None
    for x in range(n):
        for y in range(n):
            if down[meet[x][y]] != down[x] & down[y] or up[join[x][y]] != up[x] & up[y]:
                return None
    return _covers(algebra, range(n), (1 << n) - 1)


def _covers(algebra, members, mask):
    """The covering pairs (x, y) of the order restricted to the elements of
    `mask`, by x and then y: y covers x when x and y are all of
    U[x] & D[y] within the mask."""
    down, up, above = _order_masks(algebra)
    covers = []
    for x in members:
        between = up[x] & mask
        for y in above[x]:
            if y != x and between & down[y] == 1 << x | 1 << y:
                covers.append((x, y))
    return covers


def _perspective_representatives(algebra, covers):
    """The first cover, in the order of `covers`, of each class of covers
    under perspectivity, in the sublattice whose covers `covers` lists.

    Covers (a, b) and (c, d) are perspective when b∧c = a and b∨c = d.  Then
    a congruence θ that relates a and b relates a∨c = c and b∨c = d, and one
    that relates c and d relates c∧b = a and d∧b = b: in any lattice, both
    covers generate the same principal congruence.  Since b∧c = a puts c
    above a, only the up-set of a is scanned, in the whole algebra: a c
    outside the sublattice starts no cover of it.  The classes are those of a
    union-find over covers whose roots are the least index of their class.
    """
    meet, join = algebra.meet, algebra.join
    above = _order_masks(algebra)[2]
    index = {pair: i for i, pair in enumerate(covers)}
    parent = list(range(len(covers)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, (a, b) in enumerate(covers):
        lows, highs = meet[b], join[b]
        root = find(i)
        for c in above[a]:
            if lows[c] == a:
                j = index.get((c, highs[c]))
                if j is not None:
                    other = find(j)
                    if other < root:
                        parent[root] = root = other
                    elif other > root:
                        parent[other] = root
    return [pair for i, pair in enumerate(covers) if find(i) == i]


def _principal_seeds(algebra, carrier=None):
    """The label tables of the principal congruences of covering pairs, each
    with the first cover that generates it; of all pairs when meet and join
    are not a lattice.  Every congruence but the identity contains one of
    them.  Perspective covers generate one congruence, so only the first
    cover of each perspectivity class is closed.  The covers are those of
    the `_carrier` S, all of `algebra` by default: a closed subset of a
    lattice is a sublattice, whose order is the restricted one."""
    members, mask, rows = carrier or _carrier(algebra)
    covers = _lattice_covers(algebra)
    if covers is None:
        pairs = combinations(members, 2)
    else:
        if len(members) < algebra.size:
            covers = _covers(algebra, members, mask)
        pairs = _perspective_representatives(algebra, covers)
    seeds = {}
    for pair in pairs:
        seeds.setdefault(_close(rows, _IDENTITY_LABELS, (pair,)), pair)
    return seeds


def _congruence_blocks(algebra, members=None):
    """(members, lattice): the `_carrier` members of a closed subset S, and
    every congruence of the subalgebra on S in the order of its
    `congruence_lattice`, as blocks of positions into them.  No subalgebra
    is built: each label table found is closed on S's rows with every seed
    pair it does not yet relate.  Past DEFAULT_CONGRUENCE_CAP members, or
    256 elements of `algebra`, SizeCapExceeded."""
    carrier = members, _, rows = _carrier(algebra, members, DEFAULT_CONGRUENCE_CAP)
    seeds = _principal_seeds(algebra, carrier)
    found = {_IDENTITY_LABELS, *seeds}
    frontier = list(seeds)
    while frontier:
        new = []
        for labels in frontier:
            for x, y in seeds.values():
                if labels[x] != labels[y]:
                    joined = _close(rows, labels, ((x, y),))
                    if joined not in found:
                        found.add(joined)
                        new.append(joined)
        frontier = new
    # A label is the least member of its block, so S's labels in order
    # compare as the block_of tuples do: finest first, then by block_of.
    lattice = sorted((bytes(labels[x] for x in members) for labels in found),
                     key=lambda labels: (-len(set(labels)), labels))
    return members, [_blocks(labels) for labels in lattice]


def _blocks(labels):
    """The blocks of positions that share a label, ordered by least position."""
    blocks = {}
    for pos, label in enumerate(labels):
        blocks.setdefault(label, []).append(pos)
    return tuple(map(tuple, blocks.values()))


def congruence_lattice(algebra):
    """All congruences, as joins of principal congruences; includes identity and full.

    The generators are the principal congruences of covering pairs.  On a
    lattice x θ y iff (x∧y) θ (x∨y), and an interval collapses iff every cover
    on one maximal chain in it collapses, so every congruence is the join of the
    covering pairs it relates.  A table that fails one of LATTICE_AXIOMS has no
    such order, and all pairs are the generators.  Only one cover of each
    perspectivity class is closed, and the generators are deduplicated by
    their label tables, keeping one seed pair each.  This is
    `_congruence_blocks` on all the elements, and refused past its cap.
    """
    return [Congruence(algebra, blocks, check=False)
            for blocks in _congruence_blocks(algebra)[1]]


def is_simple(algebra):
    """Simple: more than one element, and every principal seed is the full
    congruence (a full label table sends every element to 0)."""
    full = bytes(algebra.size)
    return algebra.size > 1 and all(labels[:algebra.size] == full
                                    for labels in _principal_seeds(algebra))


def is_fsi(algebra):
    """Finitely subdirectly irreducible: the identity congruence is meet-irreducible.

    Every congruence but the identity contains a principal seed, and in a
    finite lattice the identity is meet-irreducible iff the meet of all other
    elements is not the identity; so the seeds' meet, the partition by label
    tuples, must have fewer than n blocks.  An algebra of at most one element
    has the identity as its only congruence and counts as FSI.
    """
    n = algebra.size
    return n < 2 or len(set(zip(*(labels[:n] for labels in _principal_seeds(algebra))))) < n


# ---------------------------------------------------------------------------
# Subuniverses
# ---------------------------------------------------------------------------

def generated_subuniverse(algebra, seed):
    """Least subuniverse containing `seed`: fixed point under the four operations.

    The signature has no constants, so the empty seed closes to the empty set.
    A seed element outside range(algebra.size) raises UnknownElement.
    """
    mask = _mask(algebra, seed)
    return _members(_grow(_closure_tables(algebra), mask, mask))


@derived
def _closure_tables(algebra):
    """Per element z: the bit of neg z, and one table per byte of a member mask.

    Entry b of byte k's table is the mask of every product z op y and y op z,
    over the three binary tables and every y = 8k + i with bit i set in b.
    An algebra of fewer than eight elements has one table of 2**size entries.
    """
    n = algebra.size
    sides = _translation_tables(algebra)
    tables = []
    for z in range(n):
        products = [0] * n
        for side in sides:
            for y, v in enumerate(side[z]):
                products[y] |= 1 << v
        chunks = []
        for lo in range(0, n, 8):
            table = [0]
            for bits in products[lo:lo + 8]:
                table += [t | bits for t in table]
            chunks.append(table)
        tables.append((1 << algebra.neg[z], chunks))
    return tables


def _grow(tables, members, pending):
    """Close the member mask `members` to a subuniverse and return its mask.

    `pending` marks the members not yet combined; the other members must
    already form a closed set.  Each pending element z is combined, in both
    argument positions, with every member at the time it is taken: one table
    lookup per byte of the member mask.  A pair of members is thus combined
    when the later of the two is taken, and a closed base is never recombined.
    """
    while pending:
        low = pending & -pending
        pending ^= low
        products, chunks = tables[low.bit_length() - 1]
        for table, byte in zip(chunks, members.to_bytes(len(chunks), "little")):
            products |= table[byte]
        fresh = products & ~members
        members |= fresh
        pending |= fresh
    return members


@derived
def _one_generated(algebra):
    """The distinct one-generated subuniverses s_i = <g_i>, as masks, ordered
    by their least generators g_0 < g_1 < ...; each paired with `below`, the
    bits of g_0 ... g_(i-1)."""
    tables = _closure_tables(algebra)
    firsts = {}
    for x in range(algebra.size):
        firsts.setdefault(_grow(tables, 1 << x, 1 << x), 1 << x)
    seeds, below = [], 0
    for seed, bit in firsts.items():
        seeds.append((seed, below))
        below |= bit
    return tuple(seeds)


def _mask(algebra, indices):
    """The bitmask of `indices`, checked to lie in range(algebra.size)."""
    indices = set(indices)
    _check_indices(algebra, indices)
    return sum(1 << x for x in indices)


def _members(mask):
    """The elements whose bits are set in `mask`, in increasing order."""
    return tuple(x for x in range(mask.bit_length()) if mask >> x & 1)


def all_subuniverses(algebra, proper_nonempty_only=False, cap=DEFAULT_SUBUNIVERSE_CAP):
    """Every subuniverse, found by closure growth rather than powerset filtering.

    Subuniverses are bitmasks over the elements, enumerated by Close-by-One
    with the inherited test of FCbO (Outrata and Vychodil, "Fast algorithm
    for computing fixpoints of Galois connections induced by object-attribute
    relational data", Information Sciences 185, 2012) over the one-generated
    subuniverses s_i = <g_i>, ordered by their least generators.  A
    subuniverse B is the closure of the generators it holds, and s_i lies in
    B iff g_i does.  B, reached through s_j, is extended by each s_i with
    i > j that is not in it, to D = <B ∪ s_i>, and D is kept only when no g_l
    with l < i lies in D but not in B: the one canonical way to reach D.  So
    each subuniverse is appended exactly once.  No closure is taken when the
    union, or a closure <A ∪ s_i> taken at an ancestor A of B, already holds
    such a g_l, since D contains both.  Only the elements of s_i not in B are
    combined, never the base's own pairs, by lookups in tables built once per
    algebra.  The masks become member tuples once, at the end, and are
    canonically sorted by (size, members).
    """
    if algebra.size > cap:
        raise SizeCapExceeded(
            f"subuniverse enumeration of {algebra.name} ({algebra.size} elements) "
            f"exceeds cap {cap}"
        )
    tables = _closure_tables(algebra)
    seeds = _one_generated(algebra)
    universes = [0]
    # a universe B, the first seed that may extend it, and per seed i a
    # closure <A ∪ s_i> for some A ⊆ B: one that holds a g_l, l < i, outside B
    # shows <B ∪ s_i> is not canonical without closing it
    stack = [(0, 0, (0,) * len(seeds))]
    while stack:
        base, start, known = stack.pop()
        closures = list(known)
        for i in range(start, len(seeds)):
            seed, below = seeds[i]
            fresh = seed & ~base
            if fresh and not (fresh | known[i] & ~base) & below:
                grown = closures[i] = _grow(tables, base | seed, fresh)
                if not (grown ^ base) & below:
                    universes.append(grown)
                    stack.append((grown, i + 1, closures))
    result = sorted(map(_members, universes), key=lambda s: (len(s), s))
    if proper_nonempty_only:
        full = tuple(range(algebra.size))
        result = [s for s in result if s and s != full]
    return result


# ---------------------------------------------------------------------------
# Congruence extension property
# ---------------------------------------------------------------------------

@dataclass
class CepWitness:
    """One congruence θ of a subalgebra and whether some congruence of the
    big algebra restricts to it exactly.  θ is held as `blocks`, blocks of
    positions into `members`; `theta`, the Congruence of the subalgebra on
    `members`, builds that subalgebra on first read."""
    algebra: FiniteAlgebra        # the ambient algebra B
    members: tuple                # subuniverse of B carrying the inner algebra
    blocks: tuple                 # θ's blocks, positions into `members`
    extendable: bool
    extension: Congruence | None  # a congruence of B with restriction θ

    @cached_property
    def theta(self):
        return Congruence(subalgebra(self.algebra, self.members), self.blocks, check=False)

    def describe(self):
        inner = "+".join(self.algebra.names(self.members))
        verdict = "extends" if self.extendable else "NOT extendable"
        return f"{self.algebra.name} >= {inner}: {self.blocks} {verdict}"


def check_cep_pair(algebra, members, big_lattice=None):
    """One CepWitness per congruence of the subalgebra on `members`.

    Exhaustive: a congruence extends iff some member of Con(B) restricts to
    it.  The subalgebra's congruences are closed on B's rows restricted to
    `members` (`_congruence_blocks`), so no subalgebra is built; each
    is compared, as position blocks, with the restrictions of `big_lattice`.
    An index out of range or a subset that is not closed raises
    UnknownElement before any restriction is read.
    """
    members, inner_lattice = _congruence_blocks(algebra, members)
    if big_lattice is None:
        big_lattice = congruence_lattice(algebra)
    # each restriction once, kept with the first phi in big_lattice order
    extensions = {}
    for phi in big_lattice:
        extensions.setdefault(phi.restrict(members), phi)
    witnesses = []
    for blocks in inner_lattice:
        extension = extensions.get(blocks)
        witnesses.append(
            CepWitness(algebra, members, blocks, extension is not None, extension)
        )
    return witnesses


def hs_class(algebra):
    """All nontrivial quotients of all subalgebras, deduplicated up to
    isomorphism.  Each S/θ is induced straight from θ's blocks in A's ids."""
    representatives = []
    for members in all_subuniverses(algebra):
        if not members:
            continue
        prefix = f"{algebra.name}[{'+'.join(algebra.names(members))}]%"
        # the last congruence, the full one, has a one-element quotient
        for blocks in _congruence_blocks(algebra, members)[1][:-1]:
            q = _induced(algebra, [tuple(members[p] for p in block) for block in blocks],
                         f"{prefix}{len(blocks)}")
            if not any(q.size == r.size and _embeds(q, r) for r in representatives):
                representatives.append(q)
    return sorted(representatives, key=lambda a: (a.size, a.name))


def check_cep_class(algebras):
    """Class CEP: every congruence of every subalgebra of every member extends.

    Returns (verdict, non_extendable, checked) where `non_extendable` lists the
    failing witnesses and `checked` counts all examined witnesses.  Each
    congruence of a nonempty B extends to itself, so B's whole universe adds
    len(Con(B)) witnesses unchecked.
    """
    failures = []
    checked = 0
    for big in algebras:
        big_lattice = congruence_lattice(big)
        if big.size:
            checked += len(big_lattice)
        for members in all_subuniverses(big, proper_nonempty_only=True):
            for witness in check_cep_pair(big, members, big_lattice=big_lattice):
                checked += 1
                if not witness.extendable:
                    failures.append(witness)
    return (not failures), failures, checked
