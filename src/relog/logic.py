"""Formulas, parsing, matrix evaluation and consequence.

The connectives are & (meet), | (join), * (fusion) and ~ (neg); the arrow is
defined, x -> y = ~(x * ~y), and is desugared at parse time.  Consequence is
finitary matrix consequence over a list of algebras: premises designated at a
valuation must force the conclusion designated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product

from .errors import ParseError, SizeCapExceeded, UnboundVariable

DEFAULT_VALUATION_CAP = 10**7
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


def designating_valuations(algebra, premises, conclusion=None):
    """Yield each valuation of `algebra` that designates every premise and,
    when a conclusion is given, leaves the conclusion undesignated.

    Valuations are dicts over the sorted variables of the formulas, walked
    lazily in lexicographic order.  A grid over DEFAULT_VALUATION_CAP
    valuations raises SizeCapExceeded.
    """
    premises = list(premises)
    formulas = premises if conclusion is None else premises + [conclusion]
    variables = sorted(set().union(*[f.variables() for f in formulas]))
    if algebra.size ** len(variables) > DEFAULT_VALUATION_CAP:
        raise SizeCapExceeded(
            f"valuation space {algebra.size}^{len(variables)} exceeds cap "
            f"{DEFAULT_VALUATION_CAP}"
        )
    is_designated = algebra.is_designated
    for assignment in product(range(algebra.size), repeat=len(variables)):
        valuation = dict(zip(variables, assignment))
        if all(is_designated(evaluate(algebra, valuation, p)) for p in premises) and (
                conclusion is None
                or not is_designated(evaluate(algebra, valuation, conclusion))):
            yield valuation


def entails(algebras, premises, conclusion):
    """Finitary consequence over a list of algebras.

    Holds iff for every algebra and every valuation designating all premises,
    the conclusion is designated.  Countermodels are reported deterministically:
    first algebra in the list, lexicographically least valuation.
    """
    premises = list(premises)
    for algebra in algebras:
        for valuation in designating_valuations(algebra, premises, conclusion):
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

