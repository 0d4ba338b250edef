"""Finite algebras in the relevant-algebra signature (meet, join, fusion, neg).

Elements are handled as 0-based indices into an ordered name list; the element
order of a file or builtin is canonical and all reported collections are sorted
by index so output is deterministic.  Algebras are immutable after construction
and every operation in this package is a pure function over them.
"""

from __future__ import annotations

import math
import os
from itertools import product as product_of

from .errors import (
    ArityError,
    DataFileMissing,
    NotACongruence,
    ParseError,
    SizeCapExceeded,
    UnknownElement,
)

DEFAULT_ELEMENT_CAP = 10**7

_OP_NAMES = ("meet", "join", "fusion", "neg")


class FiniteAlgebra:
    """A finite algebra with binary meet/join/fusion tables and a unary neg table."""

    def __init__(self, name, elements, meet, join, fusion, neg):
        self.name = name
        self.elements = tuple(elements)
        n = len(self.elements)
        if len(set(self.elements)) != n:
            raise ParseError(f"duplicate element names in algebra {name!r}")
        self.meet = tuple(tuple(row) for row in meet)
        self.join = tuple(tuple(row) for row in join)
        self.fusion = tuple(tuple(row) for row in fusion)
        self.neg = tuple(neg)
        for label, table in (("meet", self.meet), ("join", self.join), ("fusion", self.fusion)):
            if len(table) != n or any(len(row) != n for row in table):
                raise ArityError(f"{label} table of {name!r} is not {n}x{n}")
            if any(not (0 <= v < n) for row in table for v in row):
                raise UnknownElement(f"{label} table of {name!r} has an out-of-range entry")
        if len(self.neg) != n:
            raise ArityError(f"neg table of {name!r} does not have {n} entries")
        if any(not (0 <= v < n) for v in self.neg):
            raise UnknownElement(f"neg table of {name!r} has an out-of-range entry")
        self.index = {e: i for i, e in enumerate(self.elements)}
        # x <= y iff x meet y == x; meaningful once meet is a semilattice.
        self.leq = tuple(
            tuple(self.meet[x][y] == x for y in range(n)) for x in range(n)
        )
        self._designated = None
        self._binary_tables = None
        self._hash = hash(self.table_key())

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

    @property
    def designated(self):
        """Indices of the truth filter {x : x->x <= x}."""
        if self._designated is None:
            self._designated = frozenset(
                x for x in range(self.size) if self.leq[arrow(self, x, x)][x]
            )
        return self._designated

    def is_designated(self, x):
        return x in self.designated

    @property
    def binary_tables(self):
        """(table, transpose, commutative) for meet, join and fusion, in that order.

        Row x of the transpose lists every product with x as right argument.
        A commutative table is its own transpose, the same object, so callers
        that visit both argument positions can skip the second.  Built once,
        on first use.
        """
        if self._binary_tables is None:
            triples = []
            for table in (self.meet, self.join, self.fusion):
                transpose = tuple(zip(*table))
                commutative = transpose == table
                triples.append((table, table if commutative else transpose, commutative))
            self._binary_tables = tuple(triples)
        return self._binary_tables

    def table_key(self):
        """Hashable identity of the element list and the four tables."""
        return (self.elements, self.meet, self.join, self.fusion, self.neg)

    def __eq__(self, other):
        if not isinstance(other, FiniteAlgebra):
            return NotImplemented
        return self.table_key() == other.table_key()

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FiniteAlgebra({self.name!r}, {self.size} elements)"


def arrow(algebra, x, y):
    """The defined implication x -> y = neg(x fusion neg(y))."""
    return algebra.neg[algebra.fusion[x][algebra.neg[y]]]


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


def _check1(pred):
    def run(a):
        for x in range(a.size):
            if not pred(a, x):
                return {"x": a.elements[x]}
        return None
    return run


def _check2(pred):
    def run(a):
        for x, y in product_of(range(a.size), repeat=2):
            if not pred(a, x, y):
                return {"x": a.elements[x], "y": a.elements[y]}
        return None
    return run


def _check3(pred):
    def run(a):
        for x, y, z in product_of(range(a.size), repeat=3):
            if not pred(a, x, y, z):
                return {"x": a.elements[x], "y": a.elements[y], "z": a.elements[z]}
        return None
    return run


# The checklist is data: (name, exhaustive checker).  `validate_relevant_algebra`
# runs every entry (or a chosen subset) and reports rather than raising, so a
# mutated table can be inspected axiom by axiom.
AXIOM_CHECKLIST = (
    ("meet-idempotent", _check1(lambda a, x: a.meet[x][x] == x)),
    ("meet-commutative", _check2(lambda a, x, y: a.meet[x][y] == a.meet[y][x])),
    ("meet-associative", _check3(
        lambda a, x, y, z: a.meet[a.meet[x][y]][z] == a.meet[x][a.meet[y][z]])),
    ("join-idempotent", _check1(lambda a, x: a.join[x][x] == x)),
    ("join-commutative", _check2(lambda a, x, y: a.join[x][y] == a.join[y][x])),
    ("join-associative", _check3(
        lambda a, x, y, z: a.join[a.join[x][y]][z] == a.join[x][a.join[y][z]])),
    ("absorption", _check2(
        lambda a, x, y: a.meet[x][a.join[x][y]] == x and a.join[x][a.meet[x][y]] == x)),
    ("distributivity", _check3(
        lambda a, x, y, z: a.meet[x][a.join[y][z]] == a.join[a.meet[x][y]][a.meet[x][z]])),
    ("neg-involution", _check1(lambda a, x: a.neg[a.neg[x]] == x)),
    ("neg-de-morgan", _check2(
        lambda a, x, y: a.neg[a.meet[x][y]] == a.join[a.neg[x]][a.neg[y]])),
    ("fusion-commutative", _check2(lambda a, x, y: a.fusion[x][y] == a.fusion[y][x])),
    ("fusion-associative", _check3(
        lambda a, x, y, z: a.fusion[a.fusion[x][y]][z] == a.fusion[x][a.fusion[y][z]])),
    ("fusion-square-increasing", _check1(lambda a, x: a.leq[x][a.fusion[x][x]])),
    ("fusion-monotone", _check3(
        lambda a, x, y, z: (not a.leq[x][y]) or a.leq[a.fusion[x][z]][a.fusion[y][z]])),
    ("fusion-join-distributive", _check3(
        lambda a, x, y, z:
        a.fusion[x][a.join[y][z]] == a.join[a.fusion[x][y]][a.fusion[x][z]])),
    ("residuation", _check3(
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

    Format: `algebra <name>`, `elements <e1> <e2> ...`, then one block per
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

    header = take().split()
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
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"algebra file {path} is not UTF-8 text (byte {exc.start})"
        ) from None
    return load_algebra(text)


# ---------------------------------------------------------------------------
# Builtins
# ---------------------------------------------------------------------------

# The 6-element crystal algebra.  The Hasse diagram fixes the lattice
# (bot < t < a,b < f < top, a and b incomparable) and the labels fix
# neg and the fusion entries a*a=a, b*b=b, a*b=f*f=top.  The remaining
# fusion entries are the unique completion under commutativity, t as
# identity, bot as annihilator, distribution over join and residuation;
# tests/test_algebra.py re-derives the completion by exhaustive search.
_CRYSTAL_ELEMENTS = ("bot", "t", "a", "b", "f", "top")
_CRYSTAL_FUSION = (
    (0, 0, 0, 0, 0, 0),
    (0, 1, 2, 3, 4, 5),
    (0, 2, 2, 5, 5, 5),
    (0, 3, 5, 3, 5, 5),
    (0, 4, 5, 5, 5, 5),
    (0, 5, 5, 5, 5, 5),
)
_CRYSTAL_NEG = (5, 4, 2, 3, 1, 0)
# Order relation as a covering-closed leq table, then meet/join from it.
_CRYSTAL_LEQ = {
    (0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
    (1, 1), (1, 2), (1, 3), (1, 4), (1, 5),
    (2, 2), (2, 4), (2, 5),
    (3, 3), (3, 4), (3, 5),
    (4, 4), (4, 5),
    (5, 5),
}


def _lattice_tables(n, leq_pairs):
    leq = [[False] * n for _ in range(n)]
    for x, y in leq_pairs:
        leq[x][y] = True
    meet = [[None] * n for _ in range(n)]
    join = [[None] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            lower = [z for z in range(n) if leq[z][x] and leq[z][y]]
            meet[x][y] = max(lower, key=lambda z: sum(leq[w][z] for w in lower))
            upper = [z for z in range(n) if leq[x][z] and leq[y][z]]
            join[x][y] = max(upper, key=lambda z: sum(leq[z][w] for w in upper))
    return meet, join


_BUILTIN_CACHE = {}


def builtin_crystal():
    """The 6-element crystal algebra."""
    if "crystal" not in _BUILTIN_CACHE:
        meet, join = _lattice_tables(6, _CRYSTAL_LEQ)
        _BUILTIN_CACHE["crystal"] = FiniteAlgebra(
            "crystal", _CRYSTAL_ELEMENTS, meet, join, _CRYSTAL_FUSION, _CRYSTAL_NEG
        )
    return _BUILTIN_CACHE["crystal"]


def builtin_boolean2():
    """The 2-element Boolean algebra with fusion = meet."""
    if "boolean2" not in _BUILTIN_CACHE:
        _BUILTIN_CACHE["boolean2"] = FiniteAlgebra(
            "boolean2",
            ("0", "1"),
            meet=((0, 0), (0, 1)),
            join=((0, 1), (1, 1)),
            fusion=((0, 0), (0, 1)),
            neg=(1, 0),
        )
    return _BUILTIN_CACHE["boolean2"]


def builtin_belnap_m():
    """Belnap's 8-element model, loaded from the shipped data file.

    The data file carries its own provenance header; this loader only checks
    shape (8 elements) and leaves axiom auditing to validate_relevant_algebra.
    """
    path = os.path.join(data_dir(), "belnap_m.alg")
    algebra = load_algebra_file(path)
    if algebra.size != 8:
        raise ParseError(f"belnap_m data file has {algebra.size} elements, expected 8")
    return algebra


BUILTIN_NAMES = ("crystal", "belnap-m", "boolean2")


def builtin(name):
    """Look up a builtin by CLI name: crystal, belnap-m or boolean2."""
    if name == "crystal":
        return builtin_crystal()
    if name == "belnap-m":
        return builtin_belnap_m()
    if name == "boolean2":
        return builtin_boolean2()
    raise UnknownElement(f"unknown builtin algebra {name!r}")


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
    coords = list(product_of(*(range(a.size) for a in factors)))
    names = [".".join(a.elements[c] for a, c in zip(factors, tup)) for tup in coords]
    pos = {tup: i for i, tup in enumerate(coords)}

    def lift2(tables):
        return [
            [pos[tuple(t[u][v] for t, u, v in zip(tables, x, y))] for y in coords]
            for x in coords
        ]

    meet = lift2([a.meet for a in factors])
    join = lift2([a.join for a in factors])
    fusion = lift2([a.fusion for a in factors])
    neg = [pos[tuple(a.neg[u] for a, u in zip(factors, x))] for x in coords]
    return FiniteAlgebra(name, names, meet, join, fusion, neg)


def _partition_blocks(algebra, partition):
    """Normalize a congruence-like argument to canonical blocks (sorted tuples)."""
    blocks = getattr(partition, "blocks", partition)
    seen = set()
    norm = []
    for block in blocks:
        tup = tuple(sorted(block))
        norm.append(tup)
        seen.update(tup)
    if sorted(seen) != list(range(algebra.size)) or sum(len(b) for b in norm) != algebra.size:
        raise NotACongruence("blocks do not partition the element set")
    return sorted(norm, key=lambda b: b[0])


def quotient(algebra, congruence):
    """Block algebra of a congruence; raises NotACongruence if tables are not well defined."""
    blocks = _partition_blocks(algebra, congruence)
    block_of = [None] * algebra.size
    for bi, block in enumerate(blocks):
        for x in block:
            block_of[x] = bi
    m = len(blocks)

    def induced(table):
        out = [[None] * m for _ in range(m)]
        for bi, bx in enumerate(blocks):
            for bj, by in enumerate(blocks):
                results = {block_of[table[x][y]] for x in bx for y in by}
                if len(results) != 1:
                    raise NotACongruence(
                        "operation not well defined on blocks "
                        f"{algebra.names(bx)} and {algebra.names(by)}"
                    )
                out[bi][bj] = results.pop()
        return out

    meet = induced(algebra.meet)
    join = induced(algebra.join)
    fusion = induced(algebra.fusion)
    neg = [None] * m
    for bi, block in enumerate(blocks):
        results = {block_of[algebra.neg[x]] for x in block}
        if len(results) != 1:
            raise NotACongruence(f"neg not well defined on block {algebra.names(block)}")
        neg[bi] = results.pop()

    names = ["+".join(algebra.elements[x] for x in block) for block in blocks]
    return FiniteAlgebra(f"{algebra.name}%{m}", names, meet, join, fusion, neg)


def subalgebra(algebra, members):
    """The algebra induced on a closed subset of elements (indices)."""
    members = tuple(sorted(members))
    pos = {x: i for i, x in enumerate(members)}
    for x in members:
        if algebra.neg[x] not in pos:
            raise UnknownElement(f"subset not closed under neg at {algebra.elements[x]}")
    for x in members:
        for y in members:
            for table in (algebra.meet, algebra.join, algebra.fusion):
                if table[x][y] not in pos:
                    raise UnknownElement(
                        f"subset not closed at {algebra.elements[x]},{algebra.elements[y]}"
                    )
    names = [algebra.elements[x] for x in members]
    take2 = lambda table: [[pos[table[x][y]] for y in members] for x in members]
    return FiniteAlgebra(
        f"{algebra.name}[{'+'.join(names)}]",
        names,
        take2(algebra.meet),
        take2(algebra.join),
        take2(algebra.fusion),
        [pos[algebra.neg[x]] for x in members],
    )
