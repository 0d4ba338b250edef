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

_GENERATOR = "gen"
_UNARY = "neg"
_BINARY_OPS = ("and", "or", "fuse")
_CTOR = {"and": And, "or": Or, "fuse": Fuse}


class FreeAlgebra:
    """Closure of the k projection vectors under the four operations.

    Elements are discovered lazily; `freeze()` drains the queue and fixes the
    exact element count.  Discovery order is deterministic: by representative
    size, ties by insertion.  Products are built from precomputed table rows,
    and a commutative table's product is pushed once, not in both argument
    orders; the skipped push could never enter the heap, so discovery order,
    sizes and parents are unchanged.
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
        self._tables = tuple(zip(_BINARY_OPS, base.binary_tables))
        grid = list(product(range(base.size), repeat=k))
        for d in range(k):
            vector = tuple(val[d] for val in grid)
            self._push(vector, 1, (_GENERATOR, d, None))

    def _push(self, vector, size, parent):
        if vector in self.index:
            return
        best = self._best.get(vector)
        if best is not None and best <= size:
            return
        self._best[vector] = size
        self._counter += 1
        heapq.heappush(self._heap, (size, self._counter, vector, parent))

    def _pop_next(self):
        """Admit the next new element; returns its id or None when closed.

        `map` builds each product in C from the rows that the new vector's
        coordinates select.  A commutative table's mirrored product
        (new, other) would repeat (other, new) at the same size, and `_push`
        would drop it, so it is not built.
        """
        push = self._push
        while self._heap:
            size, _, vector, parent = heapq.heappop(self._heap)
            if vector in self.index:
                continue
            if len(self.vectors) >= self.element_cap:
                raise CapExceeded(
                    f"free algebra over {self.base.name} on {self.k} generators "
                    f"exceeded {self.element_cap} elements"
                )
            new_id = len(self.vectors)
            self.index[vector] = new_id
            self.vectors.append(vector)
            self.sizes.append(size)
            self.parents.append(parent)
            push(tuple(map(self.base.neg.__getitem__, vector)), size + 1,
                 (_UNARY, new_id, None))
            # right_rows[i][w] = table[w][vector[i]] and left_rows[i][w] =
            # table[vector[i]][w]; None when the table commutes.
            lanes = [
                (op, [transpose[u] for u in vector],
                 None if commutative else [table[u] for u in vector])
                for op, (table, transpose, commutative) in self._tables
            ]
            for other_id, (ovec, osize) in enumerate(zip(self.vectors, self.sizes)):
                joint = osize + size + 1
                for op, right_rows, left_rows in lanes:
                    if left_rows is None or other_id != new_id:
                        push(tuple(map(getitem, right_rows, ovec)), joint,
                             (op, other_id, new_id))
                    if left_rows is not None:
                        push(tuple(map(getitem, left_rows, ovec)), joint,
                             (op, new_id, other_id))
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
