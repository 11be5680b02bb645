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
from dataclasses import dataclass
from typing import Union

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
# Nodes


class _Node:
    """Base of every term and formula node. Equality and hashing walk the
    tree on an explicit stack, so they work at any depth. The hash covers
    the first 32 nodes of a depth-first walk, which equal trees share; the
    sets nodes go into (assumptions, dependencies) are small, so collisions
    between trees that differ further down cost little. Fields are read by
    the names in `__match_args__`: reading `__dict__` would make CPython
    build a dict for every node it touches."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [self, other]  # pairs of same-class nodes still to compare
        while stack:
            b = stack.pop()
            a = stack.pop()
            for name in a.__match_args__:
                x = getattr(a, name)
                y = getattr(b, name)
                while x.__class__ is Succ and y.__class__ is Succ:
                    x = x.arg
                    y = y.arg
                if x is y:
                    continue
                if x.__class__ is not y.__class__:
                    return False
                if isinstance(x, _Node):
                    stack.append(x)
                    stack.append(y)
                elif x != y:
                    return False
        return True

    def __hash__(self):
        parts: list[object] = []
        stack: list[object] = [self]
        while stack and len(parts) < 32:
            item = stack.pop()
            if isinstance(item, _Node):
                parts.append(item.__class__)
                stack.extend(getattr(item, name) for name in item.__match_args__)
            else:
                parts.append(item)
        return hash(tuple(parts))


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True, eq=False)
class Zero(_Node):
    pass


@dataclass(frozen=True, eq=False)
class Succ(_Node):
    arg: "Term"


@dataclass(frozen=True, eq=False)
class Add(_Node):
    left: "Term"
    right: "Term"


@dataclass(frozen=True, eq=False)
class Mul(_Node):
    left: "Term"
    right: "Term"


@dataclass(frozen=True, eq=False)
class Var(_Node):
    name: str

    def __post_init__(self):
        if not _IDENT_RE.match(self.name) or self.name in _KEYWORDS:
            raise ValueError(f"bad variable name: {self.name!r}")


Term = Union[Zero, Succ, Add, Mul, Var]

ZERO = Zero()


# ---------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True, eq=False)
class Eq(_Node):
    left: Term
    right: Term


@dataclass(frozen=True, eq=False)
class Le(_Node):
    left: Term
    right: Term


@dataclass(frozen=True, eq=False)
class Not(_Node):
    body: "Formula"


@dataclass(frozen=True, eq=False)
class And(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, eq=False)
class Or(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, eq=False)
class Implies(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, eq=False)
class ForAll(_Node):
    var: str
    body: "Formula"


@dataclass(frozen=True, eq=False)
class Exists(_Node):
    var: str
    body: "Formula"


class _Bounded(_Node):
    def __post_init__(self):
        if self.var in term_vars(self.bound):
            raise ValueError(f"bound of {self.var} mentions {self.var}")


@dataclass(frozen=True, eq=False)
class BoundedForAll(_Bounded):
    var: str
    bound: Term
    body: "Formula"


@dataclass(frozen=True, eq=False)
class BoundedExists(_Bounded):
    var: str
    bound: Term
    body: "Formula"


Formula = Union[
    Eq, Le, Not, And, Or, Implies, ForAll, Exists, BoundedForAll, BoundedExists
]


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
        elif isinstance(node, _Bounded):
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


_BINARY = frozenset({Add, Mul, Eq, Le, And, Or, Implies})


def substitute(f: Formula, var: str, replacement: Term) -> Formula:
    """Capture-avoiding substitution of `replacement` for free `var`.

    Untouched subtrees are returned as-is, so trees that barely mention the
    variable (encoder output, mostly) are shared, not copied.
    """
    repl_vars = term_vars(replacement)
    sub = (var, replacement, repl_vars)
    done: list = []  # finished subtrees, popped by the rebuild that needs them
    # Subtrees to substitute into under `sub`, and rebuilds from `done`: of a
    # node (node,), of a successor chain (chain, base), of a binder under a
    # name (binder, name); (None, sub) resumes `sub` on the last result.
    todo: list = [f]
    while todo:
        item = todo.pop()
        cls = item.__class__
        if cls is tuple:
            node = item[0]
            if node is None:
                sub = item[1]
                var, replacement, repl_vars = sub
                todo.append(done.pop())
                continue
            cls = node.__class__
            if cls is Succ:
                # A successor chain over item[1], rebuilt if its base changed.
                base = done.pop()
                if base is not item[1]:
                    while node.__class__ is Succ:
                        node = node.arg
                        base = Succ(base)
                    node = base
                done.append(node)
            elif cls is Not:
                body = done.pop()
                done.append(node if body is node.body else Not(body))
            elif cls in _BINARY:
                right = done.pop()
                left = done.pop()
                if left is node.left and right is node.right:
                    done.append(node)
                else:
                    done.append(cls(left, right))
            else:
                name = item[1]
                bound = done.pop() if issubclass(cls, _Bounded) else None
                body = done.pop()
                same = body is node.body and bound is getattr(node, "bound", None)
                if same and name == node.var:
                    done.append(node)
                elif bound is None:
                    done.append(cls(name, body))
                else:
                    done.append(cls(name, bound, body))
        elif cls is Var:
            done.append(replacement if item.name == var else item)
        elif cls is Zero:
            done.append(item)
        elif cls is Succ:
            base = item.arg
            while base.__class__ is Succ:
                base = base.arg
            todo.append((item, base))
            todo.append(base)
        elif cls is Not:
            todo.append((item,))
            todo.append(item.body)
        elif cls in _BINARY:
            todo.append((item,))
            todo.append(item.right)
            todo.append(item.left)
        else:
            # Binders.
            bound = getattr(item, "bound", None)
            todo.append((item, item.var))
            if item.var == var:
                # Shadowed: only the bound term (which never mentions
                # item.var) is open to substitution.
                done.append(item.body)
            elif item.var in repl_vars and (
                var in free_vars(item.body)
                or (bound is not None and var in term_vars(bound))
            ):
                # Renaming needed to avoid capturing a variable of `replacement`
                # (or violating the bound-term invariant of bounded binders).
                # Reached only for open replacements; closed terms skip the
                # free-variable scan entirely, which matters on encoder output.
                # The fresh name goes into the body before `sub` does, as in
                # the recursive definition, so later fresh names match it.
                avoid = repl_vars | free_vars(item.body) | {var}
                if bound is not None:
                    avoid |= term_vars(bound)
                name = fresh_name(item.var, avoid)
                todo[-1] = (item, name)
                if bound is not None:
                    todo.append(bound)
                todo.append((None, sub))
                todo.append(item.body)
                var, replacement, repl_vars = item.var, Var(name), frozenset({name})
                sub = (var, replacement, repl_vars)
                continue
            if bound is not None:
                todo.append(bound)
            if item.var != var:
                todo.append(item.body)
    return done[0]


# ---------------------------------------------------------------------------
# Printing

_TERM_ADD = 1

# Infix node -> (operator, own level, left operand's level, right operand's
# level). Terms: + is 1, * is 2, atoms 3. Formulas: -> is 1 (right assoc),
# | is 2, & is 3, ~ and atoms 4.
_INFIX_PRINT = {
    Eq: (" = ", 4, 1, 1),
    Le: (" <= ", 4, 1, 1),
    Add: (" + ", 1, 1, 2),
    Mul: (" * ", 2, 2, 3),
    Implies: (" -> ", 1, 2, 1),
    Or: (" | ", 2, 2, 3),
    And: (" & ", 3, 3, 4),
}


def _render(root: Term | Formula, level: int) -> str:
    out: list[str] = []
    # Work stack holds nodes to render (with their context level) and
    # literal strings to emit.
    stack: list[object] = [(root, level)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, level = item
        cls = node.__class__
        if cls is Zero:
            out.append("0")
        elif cls is Var:
            out.append(node.name)
        elif cls is Succ:
            n = 0
            while node.__class__ is Succ:
                n += 1
                node = node.arg
            out.append("S(" * n)
            stack.append(")" * n)
            stack.append((node, _TERM_ADD))
        elif cls is Not:
            out.append("~")
            stack.append((node.body, 4))
        elif cls in _INFIX_PRINT:
            op, mine, left_lv, right_lv = _INFIX_PRINT[cls]
            if level > mine:
                out.append("(")
                stack.append(")")
            stack.append((node.right, right_lv))
            stack.append(op)
            stack.append((node.left, left_lv))
        else:
            # All four binders; body extends as far right as possible.
            if level > 1:
                out.append("(")
                stack.append(")")
            stack.append((node.body, 1))
            stack.append(". ")
            forall = cls is ForAll or cls is BoundedForAll
            out.append("forall " if forall else "exists ")
            out.append(node.var)
            if issubclass(cls, _Bounded):
                out.append(" <= ")
                stack.append((node.bound, _TERM_ADD))
    return "".join(out)


def print_term(t: Term) -> str:
    return _render(t, _TERM_ADD)


def print_formula(f: Formula) -> str:
    """Render in the concrete grammar; parse(print(f)) == f."""
    return _render(f, 1)


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<sym>->|<=|[()=~&|.+*0])|(?P<ident>[A-Za-z_][A-Za-z0-9_]*))"
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
        group = m.lastgroup
        kind = group if group == "ident" else m[group]
        tokens.append((kind, m[group], m.start(group)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


# Infix token -> (precedence, right-associative, node class). Operators of
# precedence 5 and up take terms, the others formulas. The prefix operators
# are `~` (4) and the quantifiers (0: the body extends as far right as
# possible).
_INFIX = {
    "->": (1, True, Implies),
    "|": (2, False, Or),
    "&": (3, False, And),
    "=": (5, False, Eq),
    "<=": (5, False, Le),
    "+": (6, False, Add),
    "*": (7, False, Mul),
}
_TERMS = (Zero, Succ, Add, Mul, Var)


def _sorted(node, position: int, term: bool):
    if isinstance(node, _TERMS) != term:
        raise SyntaxError_(f"expected a {'term' if term else 'formula'}", position)
    return node


def _reduce(operators: list[tuple], operands: list[tuple]) -> None:
    """Apply the top operator to the operands it takes."""
    prec, cls, pos, head = operators.pop()
    arg, arg_pos = operands.pop()
    if head is not None:  # `~` or a quantifier, before its body
        node = cls(*head, _sorted(arg, arg_pos, False))
    else:
        left, pos = operands.pop()
        term = prec >= 5
        node = cls(_sorted(left, pos, term), _sorted(arg, arg_pos, term))
    operands.append((node, pos))


def _parse(text: str, term: bool) -> Term | Formula:
    """Operator-precedence parse of all of `text` as a term or a formula.

    `operands` holds (tree, position) pairs. `operators` holds pending
    operators as (precedence, class, position, fields before the body of a
    prefix operator), and open brackets, with precedence -1, as (-1,
    closing token, position, Succ for `S(` or (keyword, var) for a bound).
    """
    tokens = iter(_tokenize(text))  # never read past the final "eof"
    operands: list[tuple] = []
    operators: list[tuple] = []
    while True:
        # An operand, after any prefix operators and opening brackets.
        kind, value, pos = next(tokens)
        if kind == "~":
            operators.append((4, Not, pos, ()))
            continue
        if kind == "(":
            operators.append((-1, ")", pos, None))
            continue
        if kind == "ident" and value == "S":
            kind, value, paren = next(tokens)
            if kind != "(":
                raise SyntaxError_(f"expected '(', found {value!r}", paren)
            operators.append((-1, ")", pos, Succ))
            continue
        if kind == "ident" and value in _KEYWORDS:
            kind, var, var_pos = next(tokens)
            if kind != "ident" or var in _KEYWORDS:
                raise SyntaxError_(f"expected a variable, found {var!r}", var_pos)
            kind, dot, dot_pos = next(tokens)
            if kind == "<=":
                operators.append((-1, ".", pos, (value, var)))
                continue
            if kind != ".":
                raise SyntaxError_(f"expected '.', found {dot!r}", dot_pos)
            operators.append((0, ForAll if value == "forall" else Exists, pos, (var,)))
            continue
        if kind == "0":
            operands.append((ZERO, pos))
        elif kind == "ident":
            operands.append((Var(value), pos))
        else:
            raise SyntaxError_(f"expected a term or formula, found {value!r}", pos)
        # After an operand: closing brackets, then an infix operator or the end.
        while True:
            kind, value, pos = next(tokens)
            if kind in _INFIX:
                prec, right, cls = _INFIX[kind]
                while operators and (
                    operators[-1][0] > prec or (operators[-1][0] == prec and not right)
                ):
                    _reduce(operators, operands)
                operators.append((prec, cls, pos, None))
                break
            while operators and operators[-1][0] >= 0:
                _reduce(operators, operands)
            if kind == "eof":
                if operators:
                    raise SyntaxError_(f"expected {operators[-1][1]!r}, found ''", pos)
                node, node_pos = operands.pop()
                return _sorted(node, node_pos, term)
            if not operators or operators[-1][1] != kind:
                raise SyntaxError_(f"unexpected {value!r}", pos)
            _, _, open_pos, what = operators.pop()
            node, node_pos = operands.pop()
            if kind == ")":
                if what is Succ:
                    node = Succ(_sorted(node, node_pos, True))
                operands.append((node, open_pos))
                continue
            # `.` ends a bound: the quantifier becomes a prefix operator.
            keyword, var = what
            bound = _sorted(node, node_pos, True)
            if var in term_vars(bound):
                raise SyntaxError_(f"bound of {var} mentions {var}", node_pos)
            cls = BoundedForAll if keyword == "forall" else BoundedExists
            operators.append((0, cls, open_pos, (var, bound)))
            break


def parse_formula(text: str) -> Formula:
    return _parse(text, term=False)


def parse_term(text: str) -> Term:
    return _parse(text, term=True)


# ---------------------------------------------------------------------------
# Evaluation of closed bounded sentences


def eval_term(t: Term, env: dict[str, int]) -> int:
    # Binary nodes with an operand still to evaluate, as (class, right
    # operand or left value, successors above the node, right side?).
    pending: list[tuple] = []
    above = 0  # successors above the current node, counted, not descended
    while True:
        cls = t.__class__
        while cls is not Zero and cls is not Var:
            if cls is Succ:
                above += 1
                t = t.arg
            else:
                pending.append((cls, t.right, above, False))
                above = 0
                t = t.left
            cls = t.__class__
        value = above if cls is Zero else env[t.name] + above
        while pending:
            cls, other, above, right = pending.pop()
            if not right:
                pending.append((cls, value, above, True))
                t = other
                above = 0
                break
            value = (other + value if cls is Add else other * value) + above
        else:
            return value


def _eval(f: Formula, env: dict[str, int]) -> bool:
    # A frame for each connective or quantifier above the current node: the
    # node itself while its (left) operand is evaluated, and [quantifier,
    # value, limit, saved binding] for a bounded quantifier.
    frames: list = []
    node = f
    while True:
        # Descend to an atom.
        while True:
            cls = node.__class__
            if cls is Eq or cls is Le:
                left, right = eval_term(node.left, env), eval_term(node.right, env)
                value = left == right if cls is Eq else left <= right
                break
            if cls is Not:
                frames.append(node)
                node = node.body
            elif cls is And or cls is Or or cls is Implies:
                frames.append(node)
                node = node.left
            elif cls is BoundedExists or cls is BoundedForAll:
                frames.append([node, 0, eval_term(node.bound, env), env.get(node.var)])
                env[node.var] = 0
                node = node.body
            else:
                raise NotBounded("unbounded quantifier in eval_bounded")
        # Ascend with the truth value until a frame has more to evaluate.
        while frames:
            frame = frames.pop()
            cls = frame.__class__
            if cls is list:
                quantifier, v, limit, saved = frame
                # An existential stops at the first true instance, a
                # universal at the first false one.
                if value is not (quantifier.__class__ is BoundedExists) and v < limit:
                    frame[1] = v + 1
                    env[quantifier.var] = v + 1
                    frames.append(frame)
                    node = quantifier.body
                    break
                if saved is None:
                    del env[quantifier.var]
                else:
                    env[quantifier.var] = saved
            elif cls is Not:
                value = not value
            elif value is not (cls is Or):
                # & and -> go on past a true left operand, | past a false
                # one, and then take the right operand's value.
                node = frame.right
                break
            else:
                value = cls is not And
        else:
            return value


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
