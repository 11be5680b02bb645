"""Terms and formulas of arithmetic: syntax, parsing, printing, evaluation.

The language has 0, successor, addition, multiplication, equality and <=,
the propositional connectives, and both unbounded and bounded quantifiers.
Bounded quantifiers are their own node types so that the decidable class
(every quantifier bounded) is a syntactic check, not a semantic one.

Nodes are hash-consed (see `_Node`): equal trees are one object, and each
node records its free variables and whether it is bounded.

Truth is only ever computed for closed bounded sentences; `eval_bounded`
refuses anything else.
"""

from __future__ import annotations

import re
import weakref
from functools import lru_cache
from typing import Union

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_KEYWORDS = frozenset({"forall", "exists", "S"})


def is_identifier(name: str) -> bool:
    return bool(_IDENT_RE.match(name)) and name not in _KEYWORDS


def _check_name(name: str) -> None:
    """Refuse what is not a variable's name (TypeError for a non-string)."""
    if not is_identifier(name):
        raise ValueError(f"bad variable name: {name!r}")


class SyntaxError_(Exception):
    """Parse failure; carries the offset of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotBounded(Exception):
    """The sentence is outside the decidable fragment (or not closed)."""


# ---------------------------------------------------------------------------
# Nodes


class _Ref(weakref.ref):
    """The table's entry for one node: a weak reference that knows its key."""

    __slots__ = ("key",)


# (class, fields with child nodes by id) -> the one live node with them.
_INTERNED: dict[tuple, _Ref] = {}


def _forget(ref: _Ref, table: dict = _INTERNED) -> None:
    # CPython calls this as the node dies, before the node lets go of its
    # children, so dropping the entry (a key of classes, names and ints)
    # frees no other node and no callback runs inside another.
    if table.get(ref.key) is ref:
        del table[ref.key]


_EMPTY: frozenset[str] = frozenset()
_set = object.__setattr__


def _intern(cls, key: tuple, fv: frozenset[str], d0: bool, *fields):
    """Build the node of class `cls` with these fields and record it."""
    node = object.__new__(cls)
    for name, value in zip(cls.__match_args__, fields):
        _set(node, name, value)
    _set(node, "_fv", fv)
    _set(node, "_d0", d0)
    ref = _INTERNED[key] = _Ref(node, _forget)
    ref.key = key
    return node


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    """a | b, as one of the operands when that one already is the union."""
    if b <= a:
        return a
    return b if a <= b else a | b


def _bind(var: str, fv: frozenset[str]) -> frozenset[str]:
    """fv without var."""
    return (fv - {var} or _EMPTY) if var in fv else fv


class _Node:
    """Base of every term and formula node.

    Nodes are hash-consed: a constructor looks its class and fields (child
    nodes by identity) up in one weak table and returns the live node with
    those fields when there is one. Structurally equal trees are therefore
    one object, so `==` is `is` and the hash is the identity's. The table
    holds its nodes weakly and has one entry per live node; nodes are built
    from one thread at a time (the package starts none). Each node also
    records, when it is built, its free variables (`_fv`: closed nodes share
    one empty set, and a node whose set is a child's shares that child's)
    and whether every quantifier in it is bounded (`_d0`). Nodes are
    immutable, and `repr` renders them without recursion."""

    __slots__ = ("__weakref__", "_fv", "_d0")
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __repr__(self):
        return f"{type(self).__name__}<{_render(self)}>"


def _not_a_node(cls) -> TypeError:
    return TypeError(f"the children of {cls.__name__} are nodes")


class _Unary(_Node):
    __slots__ = ()

    def __new__(cls, child):
        key = (cls, id(child))
        ref = _INTERNED.get(key)
        if ref is not None and (node := ref()) is not None:
            return node
        if not isinstance(child, _Node):
            raise _not_a_node(cls)
        return _intern(cls, key, child._fv, child._d0, child)


class _Binary(_Node):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __new__(cls, left, right):
        key = (cls, id(left), id(right))
        ref = _INTERNED.get(key)
        if ref is not None and (node := ref()) is not None:
            return node
        if not (isinstance(left, _Node) and isinstance(right, _Node)):
            raise _not_a_node(cls)
        fv = _union(left._fv, right._fv)
        return _intern(cls, key, fv, left._d0 and right._d0, left, right)


# ---------------------------------------------------------------------------
# Terms


class Zero(_Node):
    __slots__ = ()

    def __new__(cls):
        return ZERO


class Succ(_Unary):
    __slots__ = ("arg",)
    __match_args__ = ("arg",)


class Add(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Var(_Node):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        ref = _INTERNED.get(key)
        if ref is not None and (node := ref()) is not None:
            return node
        _check_name(name)
        return _intern(cls, key, frozenset((name,)), True, name)


Term = Union[Zero, Succ, Add, Mul, Var]

ZERO = object.__new__(Zero)
_set(ZERO, "_fv", _EMPTY)
_set(ZERO, "_d0", True)


# ---------------------------------------------------------------------------
# Formulas


class Eq(_Binary):
    __slots__ = ()


class Le(_Binary):
    __slots__ = ()


class Not(_Unary):
    __slots__ = ("body",)
    __match_args__ = ("body",)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class _Unbounded(_Node):
    __slots__ = ("var", "body")
    __match_args__ = ("var", "body")

    def __new__(cls, var: str, body):
        key = (cls, var, id(body))
        ref = _INTERNED.get(key)
        if ref is not None and (node := ref()) is not None:
            return node
        if not isinstance(body, _Node):
            raise _not_a_node(cls)
        _check_name(var)
        return _intern(cls, key, _bind(var, body._fv), False, var, body)


class ForAll(_Unbounded):
    __slots__ = ()


class Exists(_Unbounded):
    __slots__ = ()


class _Bounded(_Node):
    __slots__ = ("var", "bound", "body")
    __match_args__ = ("var", "bound", "body")

    def __new__(cls, var: str, bound, body):
        key = (cls, var, id(bound), id(body))
        ref = _INTERNED.get(key)
        if ref is not None and (node := ref()) is not None:
            return node
        if not (isinstance(bound, _Node) and isinstance(body, _Node)):
            raise _not_a_node(cls)
        _check_name(var)
        if var in bound._fv:
            raise ValueError(f"bound of {var} mentions {var}")
        fv = _union(bound._fv, _bind(var, body._fv))
        return _intern(cls, key, fv, body._d0, var, bound, body)


class BoundedForAll(_Bounded):
    __slots__ = ()


class BoundedExists(_Bounded):
    __slots__ = ()


Formula = Union[
    Eq, Le, Not, And, Or, Implies, ForAll, Exists, BoundedForAll, BoundedExists
]


# ---------------------------------------------------------------------------
# Numerals


@lru_cache(maxsize=1 << 12)
def numeral(n: int) -> Term:
    """The closed term with n successors over zero (the most recent 4096
    are kept)."""
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
# Variables and the bounded fragment: reads of what each node records


def free_vars(f: Formula) -> frozenset[str]:
    """Free variables of a formula (or of a term)."""
    return f._fv


def is_closed(f: Formula) -> bool:
    return not f._fv


def is_delta0(f: Formula) -> bool:
    """True when every quantifier in the formula is bounded."""
    return f._d0


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    if base not in avoid:
        return base
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


# ---------------------------------------------------------------------------
# Substitution


def substitute(f: Formula, var: str, replacement: Term) -> Formula:
    """Capture-avoiding substitution of `replacement` for free `var`.

    A subtree in which `var` is not free is returned as it is, after one
    look at its recorded free variables, so the closed parts of a tree
    (encoder output, mostly) cost nothing and stay shared.
    """
    if not isinstance(replacement, _TERMS):
        raise TypeError("only a term can be substituted")
    repl_vars = replacement._fv
    sub = (var, replacement, repl_vars)
    done: list = []  # finished subtrees, popped by the rebuild that needs them
    # Subtrees to substitute into under `sub`, and rebuilds from `done`: of a
    # node (node,), of a binder under a name (binder, name); (None, sub)
    # resumes `sub` on the last result.
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
            if cls is Succ or cls is Not:
                done.append(cls(done.pop()))
            elif cls in _TOKENS:
                right = done.pop()
                done.append(cls(done.pop(), right))
            else:
                name = item[1]
                bound = done.pop() if issubclass(cls, _Bounded) else None
                body = done.pop()
                if bound is None:
                    done.append(cls(name, body))
                else:
                    done.append(cls(name, bound, body))
        elif var not in item._fv:
            done.append(item)
        elif cls is Var:
            done.append(replacement)
        elif cls is Succ or cls is Not:
            todo.append((item,))
            todo.append(item.arg if cls is Succ else item.body)
        elif cls in _TOKENS:
            todo.append((item,))
            todo.append(item.right)
            todo.append(item.left)
        else:
            # A binder in which `var` is free, so it binds another name.
            bound = getattr(item, "bound", None)
            todo.append((item, item.var))
            if item.var in repl_vars:
                # Renaming needed to avoid capturing a variable of `replacement`
                # (or violating the bound-term invariant of bounded binders).
                # The fresh name goes into the body before `sub` does, as in
                # the recursive definition, so later fresh names match it.
                avoid = repl_vars | item.body._fv | {var}
                if bound is not None:
                    avoid |= bound._fv
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
            todo.append(item.body)
    return done[0]


# ---------------------------------------------------------------------------
# Printing


def _render(root: Term | Formula, level: int = 0) -> str:
    """`root` in a context of this level on the `_INFIX` scale: a node that
    binds more loosely is bracketed. A binder binds as loosely as `->`."""
    out: list[str] = []
    # Work stack holds nodes to render (with their context level) and
    # literal strings to emit. A node's first child is rendered at once,
    # without a trip through the stack.
    stack: list[object] = [(root, level)]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        node, level = item
        while True:
            cls = node.__class__
            if cls is Succ:
                out.append("S(")
                stack.append(")")
                node, level = node.arg, 0
            elif cls is Zero:
                out.append("0")
                break
            elif cls is Var:
                out.append(node.name)
                break
            elif cls is Not:
                out.append("~")
                node, level = node.body, 4
            elif cls in _TOKENS:
                token = _TOKENS[cls]
                prec, right, _ = _INFIX[token]
                if level > prec:
                    out.append("(")
                    stack.append(")")
                stack.append((node.right, prec if right else prec + 1))
                stack.append(f" {token} ")
                node, level = node.left, prec + 1 if right else prec
            else:
                if level > 1:
                    out.append("(")
                    stack.append(")")
                forall = cls is ForAll or cls is BoundedForAll
                out.append("forall " if forall else "exists ")
                out.append(node.var)
                if issubclass(cls, _Bounded):
                    out.append(" <= ")
                    stack.append((node.body, 1))
                    stack.append(". ")
                    node, level = node.bound, 0
                else:
                    out.append(". ")
                    node, level = node.body, 1
    return "".join(out)


def print_term(t: Term) -> str:
    return _render(t)


def print_formula(f: Formula) -> str:
    """Render in the concrete grammar; parse(print(f)) == f."""
    return _render(f)


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


# Infix token -> (precedence, right-associative, node class): the one
# operator table, which the printer reads too. Operators of precedence 5 and
# up take terms, the others formulas. The prefix operators are `~` (4) and
# the quantifiers (0: the body extends as far right as possible).
_INFIX = {
    "->": (1, True, Implies),
    "|": (2, False, Or),
    "&": (3, False, And),
    "=": (5, False, Eq),
    "<=": (5, False, Le),
    "+": (6, False, Add),
    "*": (7, False, Mul),
}
_TOKENS = {cls: token for token, (_, _, cls) in _INFIX.items()}  # the inverse
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
            if var in bound._fv:
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
