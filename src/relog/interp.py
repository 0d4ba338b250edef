"""Free algebras over a finite generator, Maehara interpolant synthesis and
bounded VSP scanning.

The finite free algebra on k generators lives inside the direct power A^(n^k):
an element is the vector of its values under every valuation of the generators.
Closure runs in uniform-cost order on representative size, so the first formula
discovered for a vector is a minimal-size representative and interpolant
search in discovery order returns minimal-size interpolants.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from operator import getitem

from .algebra import arrow
from .errors import (
    CapExceeded,
    InterpolantNotFound,
    NoSharedVariables,
    NotEntailed,
)
from .logic import (
    And,
    Countermodel,
    EntailmentVerdict,
    Formula,
    Fuse,
    Not,
    Or,
    Var,
    arrow_formula,
    designating_valuations,
    entails,
)

DEFAULT_COORDINATE_CAP = 216     # valuation-grid width: 6**3
DEFAULT_FREE_ELEMENT_CAP = 10**6
DEFAULT_FREE_PENDING_CAP = 250_000  # heap entries: ~93 MiB for crystal, 2 generators

_GENERATOR = "gen"
_UNARY = "neg"
_BINARY_OPS = ("and", "or", "fuse")
_CTOR = {"and": And, "or": Or, "fuse": Fuse}


class FreeAlgebra:
    """Closure of the k projection vectors under the four operations.

    Elements are discovered lazily; `freeze()` drains the queue and fixes the
    exact element count.  Discovery order is deterministic: by representative
    size, ties by insertion.  A commutative table's product is pushed once,
    not in both argument orders; the skipped push could never enter the heap,
    so discovery order, sizes and parents are unchanged.

    Two builders make the products, chosen by the size n of `base`:

    - n <= 16 (every builtin): vectors are `bytes`.  As x*n + y <= 255, the
      products of the new vector with all admitted ones come from one big-int
      add over the concatenated vectors and one `bytes.translate` per table.
    - n > 16 (products, `vsp_scan` classes): vectors are tuples, and each
      product is a C-level `map` over precomputed table rows.
    """

    def __init__(self, base, k, coordinate_cap=DEFAULT_COORDINATE_CAP,
                 element_cap=DEFAULT_FREE_ELEMENT_CAP):
        if k < 1:
            raise NoSharedVariables("free algebra needs at least one generator")
        width = base.size ** k
        if width > coordinate_cap:
            raise CapExceeded(
                f"free algebra over {base.name} on {k} generators needs "
                f"{width} coordinates (cap {coordinate_cap})"
            )
        self.base = base
        self.k = k
        self.width = width
        self.element_cap = element_cap
        self.vectors = []        # element id -> value vector
        self.sizes = []          # element id -> minimal representative size
        self.parents = []        # element id -> (op, left, right)
        self.index = {}          # vector -> element id
        self.closed = False
        self._counter = 0
        self._heap = []
        self._best = {}
        n = base.size
        if n <= 16:
            # 256-byte tables: neg, x -> x*n, and x*n + y -> table[x][y] and
            # -> table[y][x], the latter None when the table commutes
            def flat(t):
                return bytes(t[x][y] for x in range(n) for y in range(n)) + bytes(256 - n * n)

            self._neg_lane = bytes(base.neg) + bytes(256 - n)
            self._times_n = bytes(x * n for x in range(n)) + bytes(256 - n)
            self._lane_tables = tuple(
                (op, flat(table), None if commutative else flat(transpose))
                for op, (table, transpose, commutative) in zip(_BINARY_OPS, base.binary_tables)
            )
            self._blob = bytearray()     # every admitted vector, concatenated
            self._encode, self._products = bytes, self._lane_products
        else:
            self._tables = tuple(zip(_BINARY_OPS, base.binary_tables))
            self._encode, self._products = tuple, self._row_products
        grid = list(product(range(n), repeat=k))
        for d in range(k):
            self._push(self._encode(val[d] for val in grid), 1, (_GENERATOR, d, None))

    def _push(self, vector, size, parent):
        # Elements are admitted in size order, at their best size, so `_best`
        # also refuses a vector already admitted.
        best = self._best.get(vector)
        if best is not None and best <= size:
            return
        self._best[vector] = size
        self._counter += 1
        heapq.heappush(self._heap, (size, self._counter, vector, parent))

    def _lane_products(self, vector):
        """Append `vector` to the blob; return its negation and, per
        operation, its products with every admitted vector in both argument
        positions: (op, table[other][new] by other id, table[new][other] or
        None).  Byte x*n + y of one sum holds the pair (other, new), and no
        carry crosses a byte."""
        blob = self._blob
        blob += vector
        total, width = len(blob), self.width
        pairs = (int.from_bytes(blob.translate(self._times_n), "big")
                 + int.from_bytes(vector * (total // width), "big")
                 ).to_bytes(total, "big")

        def split(flat):
            lane = pairs.translate(flat)
            return [lane[i:i + width] for i in range(0, total, width)]

        return vector.translate(self._neg_lane), [
            (op, split(right), None if left is None else split(left))
            for op, right, left in self._lane_tables
        ]

    def _row_products(self, vector):
        """`_lane_products` for tuple vectors: `map` builds each product in C
        from the rows that the new vector's coordinates select."""
        def build(rows):
            return [tuple(map(getitem, rows, ovec)) for ovec in self.vectors]

        # transpose[u][w] = table[w][u]: u is the new vector's coordinate
        return tuple(map(self.base.neg.__getitem__, vector)), [
            (op, build([transpose[u] for u in vector]),
             None if commutative else build([table[u] for u in vector]))
            for op, (table, transpose, commutative) in self._tables
        ]

    def _pop_next(self):
        """Admit the next new element; returns its id or None when closed.

        Pushes run in one loop over the admitted elements, whichever builder
        made the products: per other element, per operation, (other, new)
        and then (new, other).  A commutative table's mirrored product would
        repeat (other, new) at the same size, and `_push` would drop it, so
        it is not built.
        """
        push, heap = self._push, self._heap
        while heap:
            size, _, vector, parent = heap[0]
            if vector in self.index:
                heapq.heappop(heap)
                continue
            # a cap that fires leaves the closure as it was
            new_id = len(self.vectors)
            if new_id >= self.element_cap:
                raise CapExceeded(
                    f"free algebra over {self.base.name} on {self.k} generators "
                    f"exceeded {self.element_cap} elements"
                )
            if len(heap) > DEFAULT_FREE_PENDING_CAP:
                raise CapExceeded(
                    f"free algebra over {self.base.name} on {self.k} generators "
                    f"has {len(heap)} pending candidates after {new_id} "
                    f"elements (cap {DEFAULT_FREE_PENDING_CAP})"
                )
            heapq.heappop(heap)
            self.index[vector] = new_id
            self.vectors.append(vector)
            self.sizes.append(size)
            self.parents.append(parent)
            neg, products = self._products(vector)
            push(neg, size + 1, (_UNARY, new_id, None))
            for other_id, osize in enumerate(self.sizes):
                joint = osize + size + 1
                for op, right, left in products:
                    if left is None or other_id != new_id:
                        push(right[other_id], joint, (op, other_id, new_id))
                    if left is not None:
                        push(left[other_id], joint, (op, new_id, other_id))
            return new_id
        self.closed = True
        return None

    def ensure(self, element_id):
        """Grow until `element_id` exists; False once the closure is complete."""
        while len(self.vectors) <= element_id:
            if self._pop_next() is None:
                return False
        return True

    def freeze(self):
        """Drain the closure completely and return self."""
        while not self.closed:
            self._pop_next()
        return self

    @property
    def element_count(self):
        if not self.closed:
            raise ValueError("element count is exact only after freeze()")
        return len(self.vectors)

    def representative(self, element_id, names=None):
        """Minimal-size formula evaluating to the element's value vector."""
        names = names or tuple(f"g{d}" for d in range(self.k))
        memo = {}

        def build(i):
            if i in memo:
                return memo[i]
            op, left, right = self.parents[i]
            if op == _GENERATOR:
                node = Var(names[left])
            elif op == _UNARY:
                node = Not(build(left))
            else:
                node = _CTOR[op](build(left), build(right))
            memo[i] = node
            return node

        return build(element_id)

    def iter_discovery(self):
        """Yield element ids in discovery order, growing the closure on demand."""
        i = 0
        while True:
            if not self.ensure(i):
                return
            yield i
            i += 1


def free_algebra(base, k):
    """Fully closed free algebra of the variety of `base` on k generators."""
    return FreeAlgebra(base, k).freeze()


@lru_cache(maxsize=16)
def _shared_free_algebra(base, k, element_cap):
    return FreeAlgebra(base, k, element_cap=element_cap)


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------

@dataclass
class InterpolationResult:
    shared: tuple                 # sorted shared variable names
    delta: object                 # the interpolant formula
    scanned: int                  # candidates examined, successful one included

    @property
    def delta_size(self):
        return self.delta.size()


@dataclass
class VerificationTranscript:
    variable_condition: bool
    gamma_verdict: EntailmentVerdict | None
    alpha_verdict: EntailmentVerdict | None

    @property
    def ok(self):
        # a verdict is truthy iff it holds; None stands for "not checked"
        return bool(self.variable_condition and self.gamma_verdict and self.alpha_verdict)


def _variables(formulas):
    out = set()
    for f in formulas:
        out |= f.variables()
    return out


def _interpolant_masks(algebra, sigma, gamma, alpha, shared):
    """The points of the valuation grid over `shared` (C order over the sorted
    names) where a candidate must be designated, for gamma |- delta, and where
    it must not be, for sigma, delta |- alpha.  As `shared` is var(gamma) &
    var(sigma + [alpha]), sigma, gamma |- alpha fails iff the masks meet; the
    first common point raises NotEntailed, with the gamma and the sigma/alpha
    valuations there joined into a countermodel."""
    n = algebra.size

    def grid_index(valuation):
        idx = 0
        for name in shared:
            idx = idx * n + valuation[name]
        return idx

    required = {}                 # point -> the first gamma valuation there
    for valuation in designating_valuations(algebra, gamma):
        required.setdefault(grid_index(valuation), valuation)
    forbidden = set()
    for valuation in designating_valuations(algebra, sigma, alpha):
        idx = grid_index(valuation)
        if idx in required:
            raise NotEntailed(
                "the premises do not entail the conclusion",
                countermodel=Countermodel(algebra, {**required[idx], **valuation}),
            )
        forbidden.add(idx)
    return set(required), forbidden


def maehara_interpolant(sigma, gamma, alpha, algebras,
                        element_cap=DEFAULT_FREE_ELEMENT_CAP):
    """Find a formula delta over the shared variables with gamma |- delta and
    sigma, delta |- alpha over the one algebra in `algebras`.

    The shared set is var(sigma + [alpha]) & var(gamma) — the asymmetric reading:
    delta must be provable from gamma and usable alongside sigma.  Candidates
    are the elements of the free algebra on the shared variables in discovery
    order, and the first to meet both masks is a minimal-size interpolant.  Its
    coordinate cap is checked before the masks are built.  The free algebra is
    cached and grown in place across calls, so concurrent calls on one base
    algebra are not safe.
    """
    sigma, gamma = list(sigma), list(gamma)
    shared = tuple(sorted(_variables(sigma + [alpha]) & _variables(gamma)))
    if not shared:
        raise NoSharedVariables(
            "no variable is shared between the gamma side and the sigma/alpha side"
        )
    (algebra,) = algebras
    fa = _shared_free_algebra(algebra, len(shared), element_cap)
    required, forbidden = _interpolant_masks(algebra, sigma, gamma, alpha, shared)
    is_designated = algebra.is_designated

    scanned = 0
    for element_id in fa.iter_discovery():
        scanned += 1
        vector = fa.vectors[element_id]
        if all(is_designated(vector[i]) for i in required) and \
                not any(is_designated(vector[i]) for i in forbidden):
            return InterpolationResult(
                shared, fa.representative(element_id, names=shared), scanned)
    raise InterpolantNotFound(
        f"no interpolant among all {scanned} formulas over {shared} "
        f"up to logical equivalence",
        scanned=scanned,
    )


def deductive_interpolant(gamma, alpha, algebras):
    """Interpolation for plain deducibility: the sigma-free special case."""
    return maehara_interpolant([], gamma, alpha, algebras)


def verify_interpolant(sigma, gamma, alpha, delta, algebras):
    """Re-check the three interpolant conditions independently of synthesis."""
    sigma, gamma = list(sigma), list(gamma)
    shared = _variables(sigma + [alpha]) & _variables(gamma)
    variable_condition = delta.variables() <= shared
    if not variable_condition:
        return VerificationTranscript(False, None, None)
    gamma_verdict = entails(algebras, gamma, delta)
    alpha_verdict = entails(algebras, sigma + [delta], alpha)
    return VerificationTranscript(True, gamma_verdict, alpha_verdict)


# ---------------------------------------------------------------------------
# Bounded VSP scanning
# ---------------------------------------------------------------------------

@dataclass
class VspViolation:
    antecedent: Formula
    consequent: Formula

    def implication(self):
        return arrow_formula(self.antecedent, self.consequent)

    def __repr__(self):
        return f"VspViolation({self.antecedent} -> {self.consequent})"


def vsp_scan(algebra, size_bound=4):
    """Hunt for theorems alpha -> beta with var(alpha)={p}, var(beta)={q}.

    The candidates on each side are the classes of the one-generator free
    algebra of `algebra` whose minimal representatives have at most
    `size_bound` tree nodes.  Returns every pair whose implication is
    designated under all valuations, in discovery order.  A logic with the
    variable sharing property yields no violations.  To scan the logic of a
    class of algebras, pass their product, `vsp_scan(product([A, B]))`:
    V(A x B) = V(A, B), and a product element is designated iff every
    coordinate is.  The cost is quadratic in the size of `algebra`, whose
    tables the caller already holds.
    """
    size = algebra.size
    fa = FreeAlgebra(algebra, 1, coordinate_cap=size)
    classes = []
    for element_id in fa.iter_discovery():
        if fa.sizes[element_id] > size_bound:
            break
        classes.append(element_id)
    # alpha -> beta is designated everywhere iff every value of beta lies in
    # `theorem_rows[u]` for every value u of alpha.
    theorem_rows = [
        {y for y in range(size) if algebra.is_designated(arrow(algebra, x, y))}
        for x in range(size)
    ]
    violations = []
    for left in classes:
        allowed = set.intersection(*(theorem_rows[u] for u in set(fa.vectors[left])))
        for right in classes:
            if allowed.issuperset(fa.vectors[right]):
                violations.append(VspViolation(
                    fa.representative(left, names=("p",)),
                    fa.representative(right, names=("q",)),
                ))
    return violations
