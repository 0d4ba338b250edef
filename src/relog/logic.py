"""Formulas, parsing, matrix evaluation and consequence.

The connectives are & (meet), | (join), * (fusion) and ~ (neg); the arrow is
defined, x -> y = ~(x * ~y), and is desugared at parse time.  Consequence is
finitary matrix consequence over a list of algebras: premises designated at a
valuation must force the conclusion designated.

`entails` decides it at every algebra size over `FiniteAlgebra.lanes`: each
distinct subformula is one lane, one element index per point of a chunk of
the valuation grid; a lane is `bytes` up to 16 elements and a tuple past 16.
`designating_valuations` sweeps one valuation at a time for the interpolant
masks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product

from .errors import ParseError, SizeCapExceeded, UnboundVariable

DEFAULT_VALUATION_CAP = 10**7
# Longest lane, in bytes, one per valuation: the grid is cut into chunks of
# at most this many points by its leading variables.
_LANE_BYTES = 1 << 14
# Parsing, str, hashing and evaluate recurse at most three frames a level, so
# this stays well inside Python's default recursion limit of 1000.
MAX_FORMULA_DEPTH = 100


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Formula:
    def variables(self):
        raise NotImplementedError

    def size(self):
        """Number of tree nodes, variable occurrences included."""
        raise NotImplementedError

    def connective_count(self):
        raise NotImplementedError

    def substitute(self, mapping):
        raise NotImplementedError


@dataclass(frozen=True)
class Var(Formula):
    name: str

    def variables(self):
        return frozenset((self.name,))

    def size(self):
        return 1

    def connective_count(self):
        return 0

    def substitute(self, mapping):
        return mapping.get(self.name, self)

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula

    def variables(self):
        return self.arg.variables()

    def size(self):
        return 1 + self.arg.size()

    def connective_count(self):
        return 1 + self.arg.connective_count()

    def substitute(self, mapping):
        return Not(self.arg.substitute(mapping))

    def __str__(self):
        inner = str(self.arg)
        if isinstance(self.arg, (Var, Not)):
            return f"~{inner}"
        return f"~({inner})"


@dataclass(frozen=True)
class _Binary(Formula):
    left: Formula
    right: Formula

    SYMBOL = "?"
    PRECEDENCE = 0

    def variables(self):
        return self.left.variables() | self.right.variables()

    def size(self):
        return 1 + self.left.size() + self.right.size()

    def connective_count(self):
        return 1 + self.left.connective_count() + self.right.connective_count()

    def substitute(self, mapping):
        return type(self)(self.left.substitute(mapping),
                          self.right.substitute(mapping))

    def __str__(self):
        def wrap(child, strict):
            prec = getattr(child, "PRECEDENCE", 9)
            if prec < self.PRECEDENCE or (strict and prec == self.PRECEDENCE):
                return f"({child})"
            return str(child)

        return f"{wrap(self.left, False)} {self.SYMBOL} {wrap(self.right, True)}"


@dataclass(frozen=True)
class And(_Binary):
    SYMBOL = "&"
    PRECEDENCE = 2


@dataclass(frozen=True)
class Or(_Binary):
    SYMBOL = "|"
    PRECEDENCE = 1


@dataclass(frozen=True)
class Fuse(_Binary):
    SYMBOL = "*"
    PRECEDENCE = 3


def arrow_formula(antecedent, consequent):
    """The defined implication: x -> y stands for ~(x * ~y)."""
    return Not(Fuse(antecedent, Not(consequent)))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(->|[a-z][a-z0-9_]*|[~*&|()])")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}",
                                 position=pos)
            break
        tokens.append((match.group(1), match.start(1)))
        pos = match.end()
    return tokens


# binary symbol -> (precedence, constructor); the arrow is desugared
_BINARY = {"->": (0, arrow_formula), "|": (1, Or), "&": (2, And), "*": (3, Fuse)}


def parse_formula(text):
    """Parse with precedence ~ > * > & > | > ->, right-associative arrow.

    Every connective on a path from the root to a variable (an arrow counts
    the three it stands for) and every pair of parentheses is a level; more
    than MAX_FORMULA_DEPTH levels raise ParseError before the parser recurses.
    """
    tokens = _tokenize(text)
    index = 0

    def peek():
        return tokens[index][0] if index < len(tokens) else None

    def advance():
        nonlocal index
        token = tokens[index]
        index += 1
        return token

    def expect(symbol):
        if peek() != symbol:
            at = tokens[index][1] if index < len(tokens) else len(text)
            raise ParseError(f"expected {symbol!r}", position=at)
        advance()

    def checked(depth, at):
        if depth > MAX_FORMULA_DEPTH:
            raise ParseError(f"formula nested deeper than {MAX_FORMULA_DEPTH} levels", at)
        return depth

    # `above` counts the levels known to enclose the formula being parsed;
    # each parser returns the formula and its depth, a variable's being 0.
    def parse_binary(min_precedence, above):
        """Precedence climbing: left-associative * & |, right-associative ->."""
        node, depth = parse_unary(above)
        while _BINARY.get(peek(), (-1,))[0] >= min_precedence:
            symbol, at = advance()
            precedence, ctor = _BINARY[symbol]
            if symbol == "->":  # right-associative; its right operand is 3 levels down
                right, right_depth = parse_binary(precedence, checked(above + 3, at))
                depth = max(depth + 2, right_depth + 3)
            else:
                right, right_depth = parse_binary(precedence + 1, checked(above + 1, at))
                depth = max(depth, right_depth) + 1
            node, depth = ctor(node, right), checked(depth, at)
        return node, depth

    def parse_unary(above):
        token = peek()
        if token in ("~", "("):
            at = advance()[1]
            inner = checked(above + 1, at)
            if token == "~":
                node, depth = parse_unary(inner)
                node = Not(node)
            else:
                node, depth = parse_binary(0, inner)
                expect(")")
            return node, checked(depth + 1, at)
        if token is None:
            raise ParseError("unexpected end of formula", position=len(text))
        if re.fullmatch(r"[a-z][a-z0-9_]*", token):
            advance()
            return Var(token), 0
        at = tokens[index][1]
        raise ParseError(f"unexpected token {token!r}", position=at)

    node, _ = parse_binary(0, 0)
    if index != len(tokens):
        raise ParseError(f"trailing input {tokens[index][0]!r}",
                         position=tokens[index][1])
    return node


def parse_premises(text):
    """Comma-separated formula list; empty/whitespace text means no premises."""
    if not text or not text.strip():
        return []
    return [parse_formula(part) for part in text.split(",")]


# ---------------------------------------------------------------------------
# Evaluation and consequence
# ---------------------------------------------------------------------------

def evaluate(algebra, valuation, formula):
    """Bottom-up table evaluation; valuation maps variable names to element indices."""
    if isinstance(formula, Var):
        try:
            return valuation[formula.name]
        except KeyError:
            raise UnboundVariable(f"variable {formula.name!r} has no value") from None
    if isinstance(formula, Not):
        return algebra.neg[evaluate(algebra, valuation, formula.arg)]
    left = evaluate(algebra, valuation, formula.left)
    right = evaluate(algebra, valuation, formula.right)
    if isinstance(formula, And):
        return algebra.meet[left][right]
    if isinstance(formula, Or):
        return algebra.join[left][right]
    return algebra.fusion[left][right]


@dataclass
class Countermodel:
    algebra: object
    valuation: dict  # variable name -> element index

    def named(self):
        return {v: self.algebra.elements[i] for v, i in self.valuation.items()}

    def __repr__(self):
        assign = ", ".join(f"{v}={e}" for v, e in sorted(self.named().items()))
        return f"Countermodel({self.algebra.name}: {assign})"


@dataclass
class EntailmentVerdict:
    holds: bool
    countermodel: Countermodel | None = None

    def __bool__(self):
        return self.holds


def verify_countermodel(algebra, valuation, premises, conclusion):
    """Independently re-check: all premises designated, conclusion not."""
    for premise in premises:
        if not algebra.is_designated(evaluate(algebra, valuation, premise)):
            return False
    return not algebra.is_designated(evaluate(algebra, valuation, conclusion))


def _grid_variables(algebra, formulas):
    """The sorted variables of `formulas`.  A valuation grid over
    DEFAULT_VALUATION_CAP points raises SizeCapExceeded."""
    variables = sorted(set().union(*[f.variables() for f in formulas]))
    if algebra.size ** len(variables) > DEFAULT_VALUATION_CAP:
        raise SizeCapExceeded(
            f"valuation space {algebra.size}^{len(variables)} exceeds cap "
            f"{DEFAULT_VALUATION_CAP}"
        )
    return variables


def designating_valuations(algebra, premises, conclusion=None):
    """Yield each valuation of `algebra` that designates every premise and,
    when a conclusion is given, leaves the conclusion undesignated.

    Valuations are dicts over the sorted variables of the formulas, walked
    lazily in lexicographic order.  A grid over DEFAULT_VALUATION_CAP
    valuations raises SizeCapExceeded.
    """
    premises = list(premises)
    formulas = premises if conclusion is None else premises + [conclusion]
    variables = _grid_variables(algebra, formulas)
    is_designated = algebra.is_designated
    for assignment in product(range(algebra.size), repeat=len(variables)):
        valuation = dict(zip(variables, assignment))
        if all(is_designated(evaluate(algebra, valuation, p)) for p in premises) and (
                conclusion is None
                or not is_designated(evaluate(algebra, valuation, conclusion))):
            yield valuation


def _lane_program(variables, formulas):
    """Number the distinct subformulas of `formulas`, the variables first, in
    the order of `variables`, and every operand before its result.  Returns
    one step (table index or None for neg, operand, operand or None) per
    number past the variables, and the numbers of `formulas`."""
    slots = {Var(name): i for i, name in enumerate(variables)}
    steps = []
    ops = {And: 0, Or: 1, Fuse: 2}

    def number(formula):
        slot = slots.get(formula)
        if slot is None:
            if isinstance(formula, Not):
                steps.append((None, number(formula.arg), None))
            else:
                steps.append((ops[type(formula)], number(formula.left),
                              number(formula.right)))
            slot = slots[formula] = len(variables) + len(steps) - 1
        return slot

    return steps, [number(f) for f in formulas]


def _lane_countermodel(algebra, premises, conclusion, variables):
    """The lexicographically least valuation over `variables` that designates
    every premise and not the conclusion, or None.

    The grid is walked in chunks of n**inner points, one per value of the
    leading k - inner variables, with n**inner <= _LANE_BYTES.  In a chunk,
    each distinct subformula is one lane of `algebra.lanes`.  The premises'
    designated masks and the conclusion's undesignated mask are ANDed, and
    the first set byte is the least countermodel of the chunk; the walk stops
    at the first chunk with one.
    """
    lanes = algebra.lanes
    n, k = algebra.size, len(variables)
    inner, width = 0, 1
    while inner < k and width * n <= _LANE_BYTES:
        inner, width = inner + 1, width * n
    inner_lanes = lanes.grid(inner)
    steps, (*premise_slots, goal) = _lane_program(variables, premises + [conclusion])
    for prefix in product(range(n), repeat=k - inner):
        values = [lanes.encode((v,)) * width for v in prefix] + inner_lanes
        for op, left, right in steps:
            values.append(lanes.neg(values[left]) if op is None
                          else lanes.apply(op, values[left], values[right]))
        bad = lanes.mask(values[goal], False)
        for slot in premise_slots:
            bad &= lanes.mask(values[slot], True)
        if bad:
            # the first set byte of the big-endian `bad`
            point = width - 1 - (bad.bit_length() - 1) // 8
            digits = []
            for _ in range(inner):
                point, digit = divmod(point, n)
                digits.append(digit)
            return dict(zip(variables, prefix + tuple(reversed(digits))))
    return None


def entails(algebras, premises, conclusion):
    """Finitary consequence over a list of algebras.

    Holds iff for every algebra and every valuation designating all premises,
    the conclusion is designated.  Countermodels are reported deterministically:
    first algebra in the list, lexicographically least valuation.  Each
    algebra's valuation cap is checked when its turn comes, before any of its
    valuations is evaluated.
    """
    premises = list(premises)
    for algebra in algebras:
        variables = _grid_variables(algebra, premises + [conclusion])
        valuation = _lane_countermodel(algebra, premises, conclusion, variables)
        if valuation is not None:
            return EntailmentVerdict(False, Countermodel(algebra, valuation))
    return EntailmentVerdict(True)


def theorem(algebras, formula):
    """Theoremhood: consequence from no premises."""
    return entails(algebras, [], formula)


# Ten standard theorem schemata of the base relevant logic, instantiated.
R_THEOREM_SCHEMATA = (
    ("identity", "p -> p"),
    ("suffixing", "(p -> q) -> ((q -> r) -> (p -> r))"),
    ("contraction", "(p -> (p -> q)) -> (p -> q)"),
    ("assertion", "p -> ((p -> q) -> q)"),
    ("double-negation", "~~p -> p"),
    ("contraposition", "(p -> ~q) -> (q -> ~p)"),
    ("conjunction-elimination", "(p & q) -> p"),
    ("disjunction-introduction", "p -> (p | q)"),
    ("distribution", "(p & (q | r)) -> ((p & q) | (p & r))"),
    ("excluded-middle", "p | ~p"),
)

