"""Finite algebras in the relevant-algebra signature (meet, join, fusion, neg).

Elements are handled as 0-based indices into an ordered name list; the element
order of a file or builtin is canonical and all reported collections are sorted
by index so output is deterministic.  Algebras are immutable after construction
and every operation in this package is a pure function over them.
"""

from __future__ import annotations

import math
import os
from functools import cached_property, lru_cache, wraps
from itertools import chain, product as product_of
from operator import getitem, itemgetter

from .errors import (
    ArityError,
    DataFileMissing,
    NotACongruence,
    ParseError,
    SizeCapExceeded,
    UnknownElement,
)

DEFAULT_ELEMENT_CAP = 10**7
# Largest algebra with byte lanes: byte x*n + y must stay within 255.
MAX_LANE_SIZE = 16

_OP_NAMES = ("meet", "join", "fusion", "neg")


class FiniteAlgebra:
    """A finite algebra with binary meet/join/fusion tables and a unary neg table."""

    def __init__(self, name, elements, meet, join, fusion, neg):
        self.name = name
        self.elements = tuple(elements)
        n = len(self.elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != n:
            raise ParseError(f"duplicate element names in algebra {name!r}")
        self.meet = tuple(tuple(row) for row in meet)
        self.join = tuple(tuple(row) for row in join)
        self.fusion = tuple(tuple(row) for row in fusion)
        self.neg = tuple(neg)
        for label, table in (("meet", self.meet), ("join", self.join), ("fusion", self.fusion)):
            if len(table) != n or any(len(row) != n for row in table):
                raise ArityError(f"{label} table of {name!r} is not {n}x{n}")
            if any(min(row) < 0 or max(row) >= n for row in table):
                raise UnknownElement(f"{label} table of {name!r} has an out-of-range entry")
        if len(self.neg) != n:
            raise ArityError(f"neg table of {name!r} does not have {n} entries")
        if n and (min(self.neg) < 0 or max(self.neg) >= n):
            raise UnknownElement(f"neg table of {name!r} has an out-of-range entry")
        self._derived = {}        # see `derived`

    @property
    def size(self):
        return len(self.elements)

    def el(self, name):
        """Index of a named element; raises UnknownElement for bad names."""
        try:
            return self.index[name]
        except KeyError:
            raise UnknownElement(f"{name!r} is not an element of {self.name!r}") from None

    def names(self, indices):
        return tuple(self.elements[i] for i in indices)

    @cached_property
    def leq(self):
        """leq[x][y] iff x meet y == x; meaningful once meet is a semilattice."""
        return tuple(tuple(v == x for v in row) for x, row in enumerate(self.meet))

    @cached_property
    def designated(self):
        """Indices of the truth filter {x : x->x <= x}."""
        return frozenset(x for x in range(self.size) if self.leq[arrow(self, x, x)][x])

    def is_designated(self, x):
        return x in self.designated

    @cached_property
    def binary_tables(self):
        """(table, transpose, commutative) for meet, join and fusion, in that order.

        Row x of the transpose lists every product with x as right argument.
        A commutative table is its own transpose, the same object, so callers
        that visit both argument positions can skip the second.  Built once,
        on first use.
        """
        triples = []
        for table in (self.meet, self.join, self.fusion):
            transpose = tuple(zip(*table))
            commutative = transpose == table
            triples.append((table, table if commutative else transpose, commutative))
        return tuple(triples)

    @cached_property
    def lanes(self):
        """The lane evaluator of this algebra: `ByteLanes` up to MAX_LANE_SIZE
        elements, `TupleLanes` past it.  Built once, on first use."""
        return (ByteLanes if self.size <= MAX_LANE_SIZE else TupleLanes)(self)

    def table_key(self):
        """Hashable identity of the element list and the four tables."""
        return (self.elements, self.meet, self.join, self.fusion, self.neg)

    def __eq__(self, other):
        if not isinstance(other, FiniteAlgebra):
            return NotImplemented
        return self.table_key() == other.table_key()

    def __hash__(self):
        return self._table_hash

    @cached_property
    def _table_hash(self):
        return hash(self.table_key())

    def __repr__(self):
        return f"FiniteAlgebra({self.name!r}, {self.size} elements)"


def derived(build):
    """Cache `build(algebra, *args)` on the algebra, by `build` and `args`:
    built on first use, freed with the algebra, never shared by equal tables."""
    @wraps(build)
    def cached(algebra, *args):
        key = (build, *args)
        try:
            return algebra._derived[key]
        except KeyError:
            value = algebra._derived[key] = build(algebra, *args)
            return value
    return cached


def arrow(algebra, x, y):
    """The defined implication x -> y = neg(x fusion neg(y))."""
    return algebra.neg[algebra.fusion[x][algebra.neg[y]]]


# ---------------------------------------------------------------------------
# Lanes
# ---------------------------------------------------------------------------

class _Lanes:
    """Evaluation over lanes, one element index per point: an element's value
    vector in a free algebra, or a subformula's values over a chunk of a
    valuation grid.  `neg` and `apply` act pointwise and `products` pairs one
    lane with many.  `mask(lane, d)` is a big int whose byte i, point 0 the
    most significant, is 1 iff point i's designatedness is d."""

    def __init__(self, algebra):
        self.size, self._neg = algebra.size, algebra.neg
        # (name, table, transpose, commutative) for meet, join and fusion
        self._tables = [(name, *tables) for name, tables in zip(_OP_NAMES, algebra.binary_tables)]
        designated = bytes(x in algebra.designated for x in range(self.size))
        self._masks = (bytes(1 - d for d in designated), designated)  # by designatedness

    def grid(self, k):
        """The lanes of k variables over their n**k valuations in C order:
        the j-th takes each value on runs of n**(k-1-j) points."""
        n = self.size
        return [self._concat(self.encode((v,)) * n ** (k - 1 - j) for v in range(n)) * n ** j
                for j in range(k)]


class ByteLanes(_Lanes):
    """Lanes as `bytes`, up to MAX_LANE_SIZE elements.  A binary operation on
    lanes a and b is `a.translate(x -> x*n)` read as a big int, plus b read as
    one, so byte x*n + y holds the pair (x, y) and no carry crosses a byte;
    translating that through a flat 256-byte table gives the products."""

    encode = bytes
    _concat = b"".join

    def __init__(self, algebra):
        super().__init__(algebra)

        def pad(values):
            return bytes(values).ljust(256, b"\0")

        self._times_n = pad(x * self.size for x in range(self.size))
        self._neg, self._masks = pad(self._neg), tuple(map(pad, self._masks))
        # per table, x*n + y -> table[x][y] and -> table[y][x], None if equal
        self._flat = tuple((name, pad(chain.from_iterable(table)),
                            None if commutative else pad(chain.from_iterable(transpose)))
                           for name, table, transpose, commutative in self._tables)

    def neg(self, lane):
        return lane.translate(self._neg)

    def apply(self, op, left, right):
        """Table `op` (0 meet, 1 join, 2 fusion) at each point."""
        pairs = int.from_bytes(left.translate(self._times_n), "big") + int.from_bytes(right, "big")
        return pairs.to_bytes(len(left), "big").translate(self._flat[op][1])

    def products(self, vector, others):
        """Per table, the products of `vector` with each of `others` in both
        argument positions: (the table's name, table[other][vector] per other,
        table[vector][other] per other or None if it commutes), from one sum."""
        width, total = len(vector), len(vector) * len(others)
        pairs = (int.from_bytes(b"".join(others).translate(self._times_n), "big")
                 + int.from_bytes(vector * len(others), "big")).to_bytes(total, "big")

        def split(flat):
            lane = pairs.translate(flat)
            return [lane[i:i + width] for i in range(0, total, width)]

        return [(name, split(flat), None if transpose is None else split(transpose))
                for name, flat, transpose in self._flat]

    def mask(self, lane, designated):
        return int.from_bytes(lane.translate(self._masks[designated]), "big")


class TupleLanes(_Lanes):
    """Lanes as tuples, at any size, 8 bytes per point: a product is a
    C-level `map` over the table rows that one operand selects."""

    encode = tuple

    @staticmethod
    def _concat(pieces):
        return tuple(chain.from_iterable(pieces))

    def neg(self, lane):
        return tuple(map(self._neg.__getitem__, lane))

    def apply(self, op, left, right):
        return tuple(map(getitem, map(self._tables[op][1].__getitem__, left), right))

    def products(self, vector, others):
        """`ByteLanes.products`, from one row list per table and argument
        position; transpose[u][w] = table[w][u] for u in `vector`."""
        def build(rows):
            return [tuple(map(getitem, rows, other)) for other in others]

        return [(name, build([transpose[u] for u in vector]),
                 None if commutative else build([table[u] for u in vector]))
                for name, table, transpose, commutative in self._tables]

    def mask(self, lane, designated):
        return int.from_bytes(bytes(map(self._masks[designated].__getitem__, lane)), "big")


# ---------------------------------------------------------------------------
# Axiom checklist
# ---------------------------------------------------------------------------

class AxiomReport:
    """Outcome of checking a single axiom: holds, or a falsifying assignment."""

    def __init__(self, axiom, holds, counterexample=None):
        self.axiom = axiom
        self.holds = holds
        self.counterexample = counterexample  # dict var name -> element name

    def __repr__(self):
        if self.holds:
            return f"AxiomReport({self.axiom!r}, holds)"
        return f"AxiomReport({self.axiom!r}, fails at {self.counterexample})"

    def to_dict(self):
        return {
            "axiom": self.axiom,
            "holds": self.holds,
            "counterexample": self.counterexample,
        }


def _check(arity, pred):
    def run(a):
        for args in product_of(range(a.size), repeat=arity):
            if not pred(a, *args):
                return dict(zip("xyz", a.names(args)))
        return None
    return run


# The checklist is data: (name, exhaustive checker).  `validate_relevant_algebra`
# runs every entry (or a chosen subset) and reports rather than raising, so a
# mutated table can be inspected axiom by axiom.
AXIOM_CHECKLIST = (
    ("meet-idempotent", _check(1, lambda a, x: a.meet[x][x] == x)),
    ("meet-commutative", _check(2, lambda a, x, y: a.meet[x][y] == a.meet[y][x])),
    ("meet-associative", _check(3,
        lambda a, x, y, z: a.meet[a.meet[x][y]][z] == a.meet[x][a.meet[y][z]])),
    ("join-idempotent", _check(1, lambda a, x: a.join[x][x] == x)),
    ("join-commutative", _check(2, lambda a, x, y: a.join[x][y] == a.join[y][x])),
    ("join-associative", _check(3,
        lambda a, x, y, z: a.join[a.join[x][y]][z] == a.join[x][a.join[y][z]])),
    ("absorption", _check(2,
        lambda a, x, y: a.meet[x][a.join[x][y]] == x and a.join[x][a.meet[x][y]] == x)),
    ("distributivity", _check(3,
        lambda a, x, y, z: a.meet[x][a.join[y][z]] == a.join[a.meet[x][y]][a.meet[x][z]])),
    ("neg-involution", _check(1, lambda a, x: a.neg[a.neg[x]] == x)),
    ("neg-de-morgan", _check(2,
        lambda a, x, y: a.neg[a.meet[x][y]] == a.join[a.neg[x]][a.neg[y]])),
    ("fusion-commutative", _check(2, lambda a, x, y: a.fusion[x][y] == a.fusion[y][x])),
    ("fusion-associative", _check(3,
        lambda a, x, y, z: a.fusion[a.fusion[x][y]][z] == a.fusion[x][a.fusion[y][z]])),
    ("fusion-square-increasing", _check(1, lambda a, x: a.leq[x][a.fusion[x][x]])),
    ("fusion-monotone", _check(3,
        lambda a, x, y, z: (not a.leq[x][y]) or a.leq[a.fusion[x][z]][a.fusion[y][z]])),
    ("fusion-join-distributive", _check(3,
        lambda a, x, y, z:
        a.fusion[x][a.join[y][z]] == a.join[a.fusion[x][y]][a.fusion[x][z]])),
    ("residuation", _check(3,
        lambda a, x, y, z: a.leq[a.fusion[x][y]][z] == a.leq[y][arrow(a, x, z)])),
)

AXIOM_NAMES = tuple(name for name, _ in AXIOM_CHECKLIST)


def validate_relevant_algebra(algebra, axioms=None):
    """Run the relevant-algebra axiom checklist exhaustively over all tuples.

    Returns one AxiomReport per axiom; failures carry the first (lexicographic)
    falsifying assignment.  `axioms` may name a subset of AXIOM_NAMES.
    """
    wanted = set(AXIOM_NAMES if axioms is None else axioms)
    unknown = wanted - set(AXIOM_NAMES)
    if unknown:
        raise ValueError(f"unknown axioms: {sorted(unknown)}")
    reports = []
    for name, checker in AXIOM_CHECKLIST:
        if name not in wanted:
            continue
        counterexample = checker(algebra)
        reports.append(AxiomReport(name, counterexample is None, counterexample))
    return reports


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def load_algebra(source):
    """Parse the algebra text format.

    Format: `algebra <name>` (the name is the rest of the line, so a
    product's `a x b` reads back), `elements <e1> <e2> ...`, then one block per
    operation `op <meet|join|fusion|neg> <arity>` followed by n (unary) or
    n rows of n (binary) whitespace-separated element names; row index is the
    first argument.  `#` starts a comment.
    """
    lines = []
    for raw in source.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append(stripped)
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(lines):
            raise ParseError("unexpected end of algebra source", position=pos)
        line = lines[pos]
        pos += 1
        return line

    header = take().split(maxsplit=1)
    if len(header) != 2 or header[0] != "algebra":
        raise ParseError("expected `algebra <name>` header", position=pos - 1)
    name = header[1]
    elems_line = take().split()
    if not elems_line or elems_line[0] != "elements" or len(elems_line) < 2:
        raise ParseError("expected `elements <e1> <e2> ...`", position=pos - 1)
    elements = elems_line[1:]
    if len(set(elements)) != len(elements):
        raise ParseError("duplicate element names", position=pos - 1)
    n = len(elements)
    index = {e: i for i, e in enumerate(elements)}

    tables = {}
    while pos < len(lines):
        opline = take().split()
        if len(opline) != 3 or opline[0] != "op":
            raise ParseError("expected `op <name> <arity>`", position=pos - 1)
        opname, arity_text = opline[1], opline[2]
        if opname not in _OP_NAMES:
            raise ParseError(f"unknown operation {opname!r}", position=pos - 1)
        if opname in tables:
            raise ParseError(f"duplicate block for {opname!r}", position=pos - 1)
        expected_arity = 1 if opname == "neg" else 2
        if arity_text != str(expected_arity):
            raise ParseError(
                f"operation {opname!r} must have arity {expected_arity}",
                position=pos - 1,
            )
        tokens = []
        while pos < len(lines) and not lines[pos].startswith("op "):
            tokens.extend(take().split())
        expected = n if expected_arity == 1 else n * n
        if len(tokens) != expected:
            raise ArityError(
                f"operation {opname!r} needs {expected} entries, got {len(tokens)}"
            )
        for tok in tokens:
            if tok not in index:
                raise UnknownElement(f"unknown element {tok!r} in {opname!r} table")
        vals = [index[tok] for tok in tokens]
        if expected_arity == 1:
            tables[opname] = tuple(vals)
        else:
            tables[opname] = tuple(tuple(vals[r * n:(r + 1) * n]) for r in range(n))

    missing = [op for op in _OP_NAMES if op not in tables]
    if missing:
        raise ArityError(f"missing operation tables: {missing}")
    return FiniteAlgebra(name, elements, tables["meet"], tables["join"],
                         tables["fusion"], tables["neg"])


def serialize(algebra):
    """Emit the algebra file format; `load_algebra(serialize(A))` is table-identical to A."""
    out = [f"algebra {algebra.name}", "elements " + " ".join(algebra.elements)]
    for opname in ("meet", "join", "fusion"):
        table = getattr(algebra, opname)
        out.append(f"op {opname} 2")
        for row in table:
            out.append(" ".join(algebra.elements[v] for v in row))
    out.append("op neg 1")
    out.append(" ".join(algebra.elements[v] for v in algebra.neg))
    return "\n".join(out) + "\n"


def data_dir():
    """Directory holding the shipped .alg data files (RELOG_DATA_DIR overrides)."""
    override = os.environ.get("RELOG_DATA_DIR")
    if override:
        return override
    return os.path.join(os.path.dirname(__file__), "data")


def load_algebra_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise DataFileMissing(f"algebra file not found: {path}") from None
    except IsADirectoryError:
        raise DataFileMissing(f"algebra file is a directory: {path}") from None
    except OSError as exc:
        raise DataFileMissing(f"algebra file {path} cannot be read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"algebra file {path} is not UTF-8 text (byte {exc.start})"
        ) from None
    return load_algebra(text)


# ---------------------------------------------------------------------------
# Builtins
# ---------------------------------------------------------------------------

# Each builtin is its shipped data file, which carries its own provenance
# header, and the element count that file must have.
_BUILTINS = {
    "crystal": ("crystal.alg", 6),
    "belnap-m": ("belnap_m.alg", 8),
    "boolean2": ("boolean2.alg", 2),
}
BUILTIN_NAMES = tuple(_BUILTINS)


@lru_cache(maxsize=None)
def _load_builtin(path, size):
    algebra = load_algebra_file(path)
    if algebra.size != size:
        raise ParseError(f"{path} has {algebra.size} elements, expected {size}")
    return algebra


def builtin(name):
    """Look up a builtin by CLI name: crystal, belnap-m or boolean2.

    The file is read from data_dir() once per path; this checks only its
    element count and leaves axiom auditing to validate_relevant_algebra.
    """
    if name not in _BUILTINS:
        raise UnknownElement(f"unknown builtin algebra {name!r}")
    file, size = _BUILTINS[name]
    return _load_builtin(os.path.join(data_dir(), file), size)


def builtin_crystal():
    """The 6-element crystal algebra."""
    return builtin("crystal")


def builtin_belnap_m():
    """Belnap's 8-element model."""
    return builtin("belnap-m")


def builtin_boolean2():
    """The 2-element Boolean algebra with fusion = meet."""
    return builtin("boolean2")


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def product(algebras):
    """Direct product with componentwise tables; element names join coordinates
    with '.', in lexicographic order of the coordinate tuples."""
    return _direct_product(" x ".join(a.name for a in algebras), algebras)


def power(algebra, k):
    """The direct power algebra^k, named `<name>^k`."""
    if k < 1:
        raise ValueError("power exponent must be >= 1")
    return _direct_product(f"{algebra.name}^{k}", [algebra] * k)


def _direct_product(name, factors):
    if not factors:
        raise ValueError("a direct product needs at least one factor")
    size = math.prod(a.size for a in factors)
    if size > DEFAULT_ELEMENT_CAP:
        raise SizeCapExceeded(
            f"{name} would have {size} elements (cap {DEFAULT_ELEMENT_CAP})"
        )
    # Fold the factors pairwise: (x, a) is x*m + a for a factor of m elements.
    # `ids` holds one int object per element; CPython shares only ints <= 256.
    ids = list(range(size))
    first, *rest = factors
    names, neg = first.elements, first.neg
    tables = (first.meet, first.join, first.fusion)
    for factor in rest:
        m = factor.size
        names = [f"{x}.{a}" for x in names for a in factor.elements]
        neg = [ids[x * m + a] for x in neg for a in factor.neg]
        tables = [[[ids[xy + ab] for xy in scaled for ab in row]
                   for scaled in ([xy * m for xy in outer] for outer in table)
                   for row in inner]
                  for table, inner in zip(tables, (factor.meet, factor.join, factor.fusion))]
    return FiniteAlgebra(name, names, *tables, neg)


def _partition_blocks(algebra, partition):
    """Normalize a congruence-like argument to canonical blocks (sorted tuples)."""
    blocks = sorted((tuple(sorted(block)) for block in getattr(partition, "blocks", partition)),
                    key=lambda b: b[0])
    if sorted(chain.from_iterable(blocks)) != list(range(algebra.size)):
        raise NotACongruence("blocks do not partition the element set")
    return blocks


def quotient(algebra, congruence):
    """The algebra of a congruence's blocks, `<name>%<blocks>`, by `_induced`:
    NotACongruence, naming blocks, if they are not a compatible partition."""
    blocks = _partition_blocks(algebra, congruence)
    return _induced(algebra, blocks, f"{algebra.name}%{len(blocks)}")


def _check_indices(algebra, indices):
    """Raise UnknownElement for the first index outside range(algebra.size)."""
    for x in indices:
        if not 0 <= x < algebra.size:
            raise UnknownElement(f"{x!r} is not an element index of {algebra.name!r}")


def subalgebra(algebra, members):
    """The algebra induced on a closed subset of element indices,
    `<name>[<members joined by +>]`, by `_induced`; a repeated index counts
    once.  An index out of range, or a subset not closed, raises
    UnknownElement, naming what leaves it."""
    members = sorted(set(members))
    _check_indices(algebra, members)
    return _induced(algebra, [(x,) for x in members],
                    f"{algebra.name}[{'+'.join(algebra.names(members))}]")


def _induced(algebra, blocks, name):
    """The algebra whose element i is blocks[i], for disjoint blocks of ids
    ordered by least member, named by its members joined with '+'.  Tables
    are read off the first members, one lookup per entry.  A negation or
    product that leaves the union raises UnknownElement.  Only a block of two
    or more members can make an operation ill defined: its members' rows of
    product blocks, and columns where a table does not commute, must equal
    its first member's, and so must their negations' blocks, or
    NotACongruence.  Then x ~ x' and y ~ y' give xy ~ x'y ~ x'y'."""
    block_of = {x: i for i, block in enumerate(blocks) for x in block}
    at, union = block_of.__getitem__, sorted(block_of)
    firsts, binary = _getter([block[0] for block in blocks]), algebra.binary_tables
    large = [block for block in blocks if len(block) > 1]
    try:
        tables = [[tuple(map(at, firsts(row))) for row in firsts(table)] for table, _, _ in binary]
        neg = tuple(map(at, firsts(algebra.neg)))
        pick = _getter(union)
        for table, transpose, commutative in binary:
            for rows, block in product_of((table,) if commutative else (table, transpose), large):
                first, *others = [tuple(map(at, pick(rows[x]))) for x in block]
                for got in others:
                    if got != first:
                        y = union[[a == b for a, b in zip(got, first)].index(False)]
                        raise NotACongruence("operation not well defined on blocks "
                                             f"{algebra.names(block)} and "
                                             f"{algebra.names(blocks[block_of[y]])}")
        for block in large:
            if len({at(algebra.neg[x]) for x in block}) > 1:
                raise NotACongruence(f"neg not well defined on block {algebra.names(block)}")
    except KeyError:
        raise _not_closed(algebra, union) from None
    return FiniteAlgebra(name, ["+".join(algebra.names(b)) for b in blocks], *tables, neg)


def _not_closed(algebra, members):
    """UnknownElement naming the first escape from the sorted ids `members`
    that are not closed: a negation, else a product."""
    inside, names = set(members), algebra.elements
    escapes = chain((f"under neg at {names[x]}" for x in members if algebra.neg[x] not in inside),
                    (f"at {names[x]},{names[y]}" for x in members for y in members
                     if any(t[x][y] not in inside for t, _, _ in algebra.binary_tables)))
    return UnknownElement(f"subset not closed {next(escapes)}")


def _getter(indices):
    """`itemgetter(*indices)`, returning a tuple for any number of indices."""
    return itemgetter(*indices) if len(indices) > 1 else lambda row: tuple(row[i] for i in indices)
