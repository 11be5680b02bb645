"""Terms and formulas of arithmetic: syntax, parsing, printing, evaluation.

The language has 0, successor, addition, multiplication, equality and <=,
the propositional connectives, and both unbounded and bounded quantifiers.
Bounded quantifiers are their own node types so that the decidable class
(every quantifier bounded) is a syntactic check, not a semantic one.

Truth is only ever computed for closed bounded sentences; `eval_bounded`
refuses anything else.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Union

# Formula trees built by the trace encoder nest one quantifier per digit and
# can be a few thousand nodes deep; the default CPython limit is too small.
if sys.getrecursionlimit() < 100_000:
    sys.setrecursionlimit(100_000)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_KEYWORDS = frozenset({"forall", "exists", "S"})


def is_identifier(name: str) -> bool:
    return bool(_IDENT_RE.match(name)) and name not in _KEYWORDS


class SyntaxError_(Exception):
    """Parse failure; carries the offset of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotBounded(Exception):
    """The sentence is outside the decidable fragment (or not closed)."""


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Zero:
    pass


@dataclass(frozen=True)
class Succ:
    arg: "Term"


@dataclass(frozen=True)
class Add:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Mul:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Var:
    name: str

    def __post_init__(self):
        if not _IDENT_RE.match(self.name) or self.name in _KEYWORDS:
            raise ValueError(f"bad variable name: {self.name!r}")


Term = Union[Zero, Succ, Add, Mul, Var]

ZERO = Zero()


# ---------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term


@dataclass(frozen=True)
class Le:
    left: Term
    right: Term


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class ForAll:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class BoundedForAll:
    var: str
    bound: Term
    body: "Formula"

    def __post_init__(self):
        if self.var in term_vars(self.bound):
            raise ValueError(f"bound of {self.var} mentions {self.var}")


@dataclass(frozen=True)
class BoundedExists:
    var: str
    bound: Term
    body: "Formula"

    def __post_init__(self):
        if self.var in term_vars(self.bound):
            raise ValueError(f"bound of {self.var} mentions {self.var}")


Formula = Union[
    Eq, Le, Not, And, Or, Implies, ForAll, Exists, BoundedForAll, BoundedExists
]

_BINDERS = (ForAll, Exists, BoundedForAll, BoundedExists)
_BOUNDED = (BoundedForAll, BoundedExists)


# ---------------------------------------------------------------------------
# Numerals


def numeral(n: int) -> Term:
    """The closed term with n successors over zero."""
    if n < 0:
        raise ValueError("numerals encode naturals only")
    t: Term = ZERO
    for _ in range(n):
        t = Succ(t)
    return t


def numeral_value(t: Term) -> int | None:
    """Decode a numeral; None if the term is not a pure successor chain."""
    n = 0
    while isinstance(t, Succ):
        n += 1
        t = t.arg
    return n if isinstance(t, Zero) else None


# ---------------------------------------------------------------------------
# Variables

def term_vars(t: Term) -> frozenset[str]:
    out: set[str] = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, Succ):
            stack.append(node.arg)
        elif isinstance(node, (Add, Mul)):
            stack.append(node.left)
            stack.append(node.right)
    return frozenset(out)


def free_vars(f: Formula) -> frozenset[str]:
    """Free variables of a formula (iterative; trees can be very deep)."""
    out: set[str] = set()
    # Each stack entry is (node, bound-variable frozenset).
    stack: list[tuple[Formula, frozenset[str]]] = [(f, frozenset())]
    while stack:
        node, bound = stack.pop()
        if isinstance(node, (Eq, Le)):
            out |= (term_vars(node.left) | term_vars(node.right)) - bound
        elif isinstance(node, Not):
            stack.append((node.body, bound))
        elif isinstance(node, (And, Or, Implies)):
            stack.append((node.left, bound))
            stack.append((node.right, bound))
        elif isinstance(node, (ForAll, Exists)):
            stack.append((node.body, bound | {node.var}))
        else:
            out |= term_vars(node.bound) - bound
            stack.append((node.body, bound | {node.var}))
    return frozenset(out)


def is_closed(f: Formula) -> bool:
    return not free_vars(f)


def is_delta0(f: Formula) -> bool:
    """True when every quantifier in the formula is bounded."""
    stack: list[Formula] = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, (ForAll, Exists)):
            return False
        if isinstance(node, Not):
            stack.append(node.body)
        elif isinstance(node, (And, Or, Implies)):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, _BOUNDED):
            stack.append(node.body)
    return True


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    if base not in avoid:
        return base
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


# ---------------------------------------------------------------------------
# Substitution


def term_substitute(t: Term, var: str, replacement: Term) -> Term:
    # Untouched subtrees are returned as-is, so trees that barely mention
    # the variable (encoder output, mostly) are shared, not copied.
    if isinstance(t, Var):
        return replacement if t.name == var else t
    if isinstance(t, Succ):
        arg = term_substitute(t.arg, var, replacement)
        return t if arg is t.arg else Succ(arg)
    if isinstance(t, (Add, Mul)):
        left = term_substitute(t.left, var, replacement)
        right = term_substitute(t.right, var, replacement)
        if left is t.left and right is t.right:
            return t
        return Add(left, right) if isinstance(t, Add) else Mul(left, right)
    return t


def substitute(f: Formula, var: str, replacement: Term) -> Formula:
    """Capture-avoiding substitution of `replacement` for free `var`."""
    repl_vars = term_vars(replacement)

    def go(node: Formula) -> Formula:
        if isinstance(node, (Eq, Le)):
            left = term_substitute(node.left, var, replacement)
            right = term_substitute(node.right, var, replacement)
            if left is node.left and right is node.right:
                return node
            return Eq(left, right) if isinstance(node, Eq) else Le(left, right)
        if isinstance(node, Not):
            body = go(node.body)
            return node if body is node.body else Not(body)
        if isinstance(node, (And, Or, Implies)):
            left = go(node.left)
            right = go(node.right)
            if left is node.left and right is node.right:
                return node
            kind = And if isinstance(node, And) else Or if isinstance(node, Or) else Implies
            return kind(left, right)
        # Binders.
        bound_term = getattr(node, "bound", None)
        new_bound = (
            term_substitute(bound_term, var, replacement)
            if bound_term is not None
            else None
        )
        if node.var == var:
            # Shadowed: only the bound term (which never mentions node.var)
            # is open to substitution.
            body = node.body
        elif node.var in repl_vars and (
            var in free_vars(node.body)
            or (bound_term is not None and var in term_vars(bound_term))
        ):
            # Renaming needed to avoid capturing a variable of `replacement`
            # (or violating the bound-term invariant of bounded binders).
            # Reached only for open replacements; closed terms skip the
            # free-variable scan entirely, which matters on encoder output.
            new_var = fresh_name(node.var, repl_vars | free_vars(node.body) | {var})
            body = go(substitute(node.body, node.var, Var(new_var)))
            return _rebuild_binder(node, new_var, new_bound, body)
        else:
            body = go(node.body)
        if body is node.body and new_bound is bound_term:
            return node
        return _rebuild_binder(node, node.var, new_bound, body)

    return go(f)


def _rebuild_binder(node, var, bound, body):
    if isinstance(node, ForAll):
        return ForAll(var, body)
    if isinstance(node, Exists):
        return Exists(var, body)
    if isinstance(node, BoundedForAll):
        return BoundedForAll(var, bound, body)
    return BoundedExists(var, bound, body)


# ---------------------------------------------------------------------------
# Printing

_TERM_ATOM, _TERM_MUL, _TERM_ADD = 3, 2, 1


def _print_term(t: Term, out: list[str], level: int) -> None:
    if isinstance(t, Zero):
        out.append("0")
    elif isinstance(t, Succ):
        out.append("S(")
        _print_term(t.arg, out, _TERM_ADD)
        out.append(")")
    elif isinstance(t, Var):
        out.append(t.name)
    elif isinstance(t, Add):
        if level > _TERM_ADD:
            out.append("(")
        _print_term(t.left, out, _TERM_ADD)
        out.append(" + ")
        _print_term(t.right, out, _TERM_ADD + 1)
        if level > _TERM_ADD:
            out.append(")")
    else:
        if level > _TERM_MUL:
            out.append("(")
        _print_term(t.left, out, _TERM_MUL)
        out.append(" * ")
        _print_term(t.right, out, _TERM_MUL + 1)
        if level > _TERM_MUL:
            out.append(")")


def print_term(t: Term) -> str:
    out: list[str] = []
    _print_term(t, out, _TERM_ADD)
    return "".join(out)


# Formula precedence levels: -> is 1 (right assoc), | is 2, & is 3, ~ is 4.
def print_formula(f: Formula) -> str:
    """Render in the concrete grammar; parse(print(f)) == f.

    Iterative: encoder output nests quantifiers one per trace digit and
    easily exceeds any recursion limit worth configuring.
    """
    out: list[str] = []
    # Work stack holds formulas to render (with their context level) and
    # literal strings to emit.
    stack: list[object] = [(f, 1)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, level = item
        if isinstance(node, Eq):
            out.append(print_term(node.left) + " = " + print_term(node.right))
        elif isinstance(node, Le):
            out.append(print_term(node.left) + " <= " + print_term(node.right))
        elif isinstance(node, Not):
            out.append("~")
            stack.append((node.body, 4))
        elif isinstance(node, (And, Or, Implies)):
            if isinstance(node, Implies):
                op, mine, left_lv, right_lv = " -> ", 1, 2, 1
            elif isinstance(node, Or):
                op, mine, left_lv, right_lv = " | ", 2, 2, 3
            else:
                op, mine, left_lv, right_lv = " & ", 3, 3, 4
            wrap = level > mine
            if wrap:
                stack.append(")")
            stack.append((node.right, right_lv))
            stack.append(op)
            stack.append((node.left, left_lv))
            if wrap:
                out.append("(")
        else:
            # All four binders; body extends as far right as possible.
            wrap = level > 1
            if wrap:
                stack.append(")")
            stack.append((node.body, 1))
            head = "forall " if isinstance(node, (ForAll, BoundedForAll)) else "exists "
            text = head + node.var
            if isinstance(node, _BOUNDED):
                text += " <= " + print_term(node.bound)
            text += ". "
            if wrap:
                text = "(" + text
            out.append(text)
    return "".join(out)


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<le><=)|(?P<sym>[()=~&|.+*])|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<zero>0))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos >= len(text):
                break
            raise SyntaxError_(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "arrow":
            tokens.append(("->", "->", m.start("arrow")))
        elif m.lastgroup == "le":
            tokens.append(("<=", "<=", m.start("le")))
        elif m.lastgroup == "sym":
            tokens.append((m.group("sym"), m.group("sym"), m.start("sym")))
        elif m.lastgroup == "zero":
            tokens.append(("0", "0", m.start("zero")))
        else:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise SyntaxError_(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    # Formulas.

    def formula(self) -> Formula:
        left = self.or_()
        if self.peek()[0] == "->":
            self.next()
            return Implies(left, self.formula())
        return left

    def or_(self) -> Formula:
        left = self.and_()
        while self.peek()[0] == "|":
            self.next()
            left = Or(left, self.and_())
        return left

    def and_(self) -> Formula:
        left = self.unary()
        while self.peek()[0] == "&":
            self.next()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "~":
            self.next()
            return Not(self.unary())
        if kind == "ident" and value in ("forall", "exists"):
            self.next()
            name_tok = self.expect("ident")
            if name_tok[1] in _KEYWORDS:
                raise SyntaxError_(f"{name_tok[1]!r} is reserved", name_tok[2])
            bound = None
            if self.peek()[0] == "<=":
                self.next()
                bound = self.term()
            self.expect(".")
            body = self.formula()
            if value == "forall":
                return (
                    ForAll(name_tok[1], body)
                    if bound is None
                    else BoundedForAll(name_tok[1], bound, body)
                )
            return (
                Exists(name_tok[1], body)
                if bound is None
                else BoundedExists(name_tok[1], bound, body)
            )
        return self.atom()

    def atom(self) -> Formula:
        # Either `term (=|<=) term` or a parenthesized formula; terms can
        # also start with '(', so try the relational reading first.
        save = self.pos
        try:
            left = self.term()
            kind, _, pos = self.next()
            if kind == "=":
                return Eq(left, self.term())
            if kind == "<=":
                return Le(left, self.term())
            raise SyntaxError_("expected '=' or '<='", pos)
        except SyntaxError_:
            self.pos = save
        self.expect("(")
        f = self.formula()
        self.expect(")")
        return f

    # Terms.

    def term(self) -> Term:
        left = self.mul()
        while self.peek()[0] == "+":
            self.next()
            left = Add(left, self.mul())
        return left

    def mul(self) -> Term:
        left = self.prim()
        while self.peek()[0] == "*":
            self.next()
            left = Mul(left, self.prim())
        return left

    def prim(self) -> Term:
        kind, value, pos = self.next()
        if kind == "0":
            return ZERO
        if kind == "ident":
            if value == "S":
                self.expect("(")
                inner = self.term()
                self.expect(")")
                return Succ(inner)
            if value in _KEYWORDS:
                raise SyntaxError_(f"{value!r} cannot appear in a term here", pos)
            return Var(value)
        if kind == "(":
            inner = self.term()
            self.expect(")")
            return inner
        raise SyntaxError_(f"expected a term, found {value!r}", pos)


def parse_formula(text: str) -> Formula:
    parser = _Parser(text)
    f = parser.formula()
    parser.expect("eof")
    return f


def parse_term(text: str) -> Term:
    parser = _Parser(text)
    t = parser.term()
    parser.expect("eof")
    return t


# ---------------------------------------------------------------------------
# Evaluation of closed bounded sentences


def eval_term(t: Term, env: dict[str, int]) -> int:
    if isinstance(t, Zero):
        return 0
    if isinstance(t, Succ):
        return eval_term(t.arg, env) + 1
    if isinstance(t, Add):
        return eval_term(t.left, env) + eval_term(t.right, env)
    if isinstance(t, Mul):
        return eval_term(t.left, env) * eval_term(t.right, env)
    return env[t.name]


def _eval(f: Formula, env: dict[str, int]) -> bool:
    if isinstance(f, Eq):
        return eval_term(f.left, env) == eval_term(f.right, env)
    if isinstance(f, Le):
        return eval_term(f.left, env) <= eval_term(f.right, env)
    if isinstance(f, Not):
        return not _eval(f.body, env)
    if isinstance(f, And):
        return _eval(f.left, env) and _eval(f.right, env)
    if isinstance(f, Or):
        return _eval(f.left, env) or _eval(f.right, env)
    if isinstance(f, Implies):
        return (not _eval(f.left, env)) or _eval(f.right, env)
    if isinstance(f, BoundedExists):
        limit = eval_term(f.bound, env)
        saved = env.get(f.var)
        try:
            for v in range(limit + 1):
                env[f.var] = v
                if _eval(f.body, env):
                    return True
            return False
        finally:
            if saved is None:
                env.pop(f.var, None)
            else:
                env[f.var] = saved
    if isinstance(f, BoundedForAll):
        limit = eval_term(f.bound, env)
        saved = env.get(f.var)
        try:
            for v in range(limit + 1):
                env[f.var] = v
                if not _eval(f.body, env):
                    return False
            return True
        finally:
            if saved is None:
                env.pop(f.var, None)
            else:
                env[f.var] = saved
    raise NotBounded("unbounded quantifier in eval_bounded")


def eval_bounded(sentence: Formula) -> bool:
    """Standard-model truth of a closed sentence with only bounded quantifiers.

    Each bounded variable is enumerated from 0 through its bound's value, so
    this is total. Anything with an unbounded quantifier or a free variable
    raises NotBounded: truth outside this fragment is not decidable and the
    kernel never pretends otherwise.
    """
    if not is_delta0(sentence):
        raise NotBounded("sentence has an unbounded quantifier")
    if not is_closed(sentence):
        raise NotBounded("sentence has free variables")
    return _eval(sentence, {})
