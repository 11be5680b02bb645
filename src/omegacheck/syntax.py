"""Terms and formulas of arithmetic: syntax, parsing, printing, evaluation.

The language has 0, successor, addition, multiplication, equality and <=,
the propositional connectives, and both unbounded and bounded quantifiers.
Bounded quantifiers are their own node types so that the decidable class
(every quantifier bounded) is a syntactic check, not a semantic one.

Nodes are hash-consed (see `_Node`): equal trees are one object, and each
node records its free variables and whether it is bounded; a successor
also records the number it denotes, if it is a numeral. A constructor that
finds no live node builds the new one in one step, and the evaluator reads
an atom's variable or numeral operand directly rather than evaluating it.
A bounded universal tries every value up to its bound, and an existential
the values its cases pin, from the left, until a case pins nothing; from
there it tries every value not tried yet (see `_pinned`).

Truth is only ever computed for closed bounded sentences; `eval_bounded`
refuses anything else.
"""

from __future__ import annotations

import re
import weakref
from functools import lru_cache
from typing import Iterator, Union

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
_new = object.__new__


def _record(node, key: tuple, fv: frozenset[str], d0: bool):
    """Give the node just built its free variables and Δ0 flag, enter it
    under its key, and return it."""
    _set_fv(node, fv)
    _set_d0(node, d0)
    ref = _INTERNED[key] = _Ref(node, _forget)
    _set_key(ref, key)
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
    those fields when there is one; otherwise it checks the fields, makes
    the node with `object.__new__`, sets each slot through its descriptor
    and enters the node in the table. Structurally equal trees are
    therefore one object, so `==` is `is` and the hash is the identity's.
    The table holds its nodes weakly and has one entry per live node; nodes
    are built from one thread at a time (the package starts none). Each
    node also records its free variables (`_fv`: closed nodes share one
    empty set, and a node whose set is a child's shares that child's) and
    whether every quantifier in it is bounded (`_d0`). `_n` is the number a
    node denotes if it is a numeral and else None (a successor records it,
    and Zero's class holds 0, every other's None), so it is one read.
    Nodes are immutable, and `repr` renders them without recursion."""

    __slots__ = ("__weakref__", "_fv", "_d0")
    __match_args__: tuple[str, ...] = ()
    _n = None  # a slot of Succ

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
        node = _new(cls)
        if cls is Succ:
            _set_arg(node, child)
            _set_n(node, None if child._n is None else child._n + 1)
        else:
            _set_negated(node, child)
        return _record(node, key, child._fv, child._d0)


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
        node = _new(cls)
        _set_left(node, left)
        _set_right(node, right)
        return _record(node, key, _union(left._fv, right._fv), left._d0 and right._d0)


# ---------------------------------------------------------------------------
# Terms


class Zero(_Node):
    __slots__ = ()
    _n = 0

    def __new__(cls):
        return ZERO


class Succ(_Unary):
    __slots__ = ("arg", "_n")
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
        node = _new(cls)
        _set_name(node, name)
        return _record(node, key, frozenset((name,)), True)


Term = Union[Zero, Succ, Add, Mul, Var]


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
        node = _new(cls)
        _set_var(node, var)
        _set_body(node, body)
        return _record(node, key, _bind(var, body._fv), False)


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
        node = _new(cls)
        _set_bounded_var(node, var)
        _set_bound(node, bound)
        _set_bounded_body(node, body)
        fv = _union(bound._fv, _bind(var, body._fv))
        return _record(node, key, fv, body._d0)


class BoundedForAll(_Bounded):
    __slots__ = ()


class BoundedExists(_Bounded):
    __slots__ = ()


Formula = Union[
    Eq, Le, Not, And, Or, Implies, ForAll, Exists, BoundedForAll, BoundedExists
]

# Each slot is set through its descriptor, bound once here: nodes refuse
# `setattr`, and the descriptor's `__set__` needs no lookup by name.
_set_key, _set_fv, _set_d0 = _Ref.key.__set__, _Node._fv.__set__, _Node._d0.__set__
_set_arg, _set_n, _set_negated = Succ.arg.__set__, Succ._n.__set__, Not.body.__set__
_set_left, _set_right = _Binary.left.__set__, _Binary.right.__set__
_set_name = Var.name.__set__
_set_var, _set_body = _Unbounded.var.__set__, _Unbounded.body.__set__
_set_bounded_var, _set_bound, _set_bounded_body = (
    _Bounded.var.__set__, _Bounded.bound.__set__, _Bounded.body.__set__
)

ZERO = _new(Zero)
_set_fv(ZERO, _EMPTY)
_set_d0(ZERO, True)
_latest: list[Term] = [ZERO]  # the numeral that `numeral` built last


# ---------------------------------------------------------------------------
# Numerals


@lru_cache(maxsize=1 << 12)
def numeral(n: int) -> Term:
    """The closed term with n successors over zero (the most recent 4096
    are kept). It is built on the numeral built last when that one is not
    larger, so numerals asked for in increasing order cost one node each."""
    if n < 0:
        raise ValueError("numerals encode naturals only")
    t = _latest[0] if _latest[0]._n <= n else ZERO
    for _ in range(n - t._n):
        t = Succ(t)
    _latest[0] = t
    return t


def numeral_value(t: Term) -> int | None:
    """Decode a numeral; None if the term is not a pure successor chain."""
    return getattr(t, "_n", None)


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
    """`base` and the least suffix 1, 2, ... not in `avoid`, which holds
    `base` itself wherever `substitute` renames a binder."""
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

# A printed numeral `S(...S(0)...)` is one token; the others are one
# symbol or name each, and `bad` is any other character.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:S\()+0\)+)|(?P<sym>->|<=|[()=~&|.+*0])"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<bad>\S))"
)


def _tokenize(text: str, start: int = 0) -> Iterator[tuple]:
    """(kind, text, position) triples from `start` on, then the final "eof".
    A numeral of depth d has kind d and text 'S'; a run of k `S(` and j `)`
    around its `0` gives the d = min(k, j) innermost pairs to the numeral
    and the rest to their own tokens."""
    for m in _TOKEN_RE.finditer(text, start):
        group, pos = m.lastgroup, m.start(m.lastgroup)
        if group == "num":
            zero = pos + m[group].index("0")
            d = min((zero - pos) // 2, m.end() - zero - 1)
            first = zero - 2 * d  # the numeral's first `S`
            for p in range(pos, first, 2):
                yield from (("ident", "S", p), ("(", "(", p + 1))
            yield d, "S", first
            yield from ((")", ")", p) for p in range(zero + 1 + d, m.end()))
        elif group == "bad":
            raise SyntaxError_(f"unexpected character {m[group]!r}", pos)
        else:
            yield group if group == "ident" else m[group], m[group], pos
    yield "eof", "", len(text)


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


def recall(memo: dict | None, data: str | bytes, pos: int, room: int, fits=None):
    """(entry, size) if `data` repeats at `pos` a span read before, else (None,
    units compared): the one rule by which both readers skip such a span.
    `memo` maps a span's first 16 characters or bytes to (source, start, end,
    ...). A span longer than `room`, or whose entry `fits` refuses, is not
    compared, and one that differs is dropped from `memo`."""
    key = data[pos : pos + 16]
    hit = memo.get(key) if memo else None
    if hit is None or hit[2] - hit[1] > room or fits and not fits(hit):
        return None, 0
    if data.startswith(hit[0][hit[1] : hit[2]], pos):
        return hit, hit[2] - hit[1]
    del memo[key]
    return None, hit[2] - hit[1]


def _parse(text: str, term: bool, memo: dict | None = None) -> Term | Formula:
    """Operator-precedence parse of all of `text` as a term or a formula.

    `operands` holds (tree, position) pairs. `operators` holds pending
    operators as (precedence, class, position, fields before the body of a
    prefix operator), and open brackets, with precedence -1, as (-1,
    closing token, position, Succ for `S(` or (keyword, var) for a bound).

    A plain bracket group parses the same wherever it stands: nothing
    outside it reduces into it, and each `S(` in it closes in it. So `memo`
    maps the first 16 characters of each group read to (text, start, end,
    tree), and a group read before is not read again (see `recall`).
    """
    tokens = _tokenize(text)  # never read past the final "eof"
    operands: list[tuple] = []
    operators: list[tuple] = []
    missed = 0  # characters of failed comparisons, at most len(text)
    try:
        while True:
            # An operand, after any prefix operators and opening brackets.
            kind, value, pos = next(tokens)
            if kind == "~":
                operators.append((4, Not, pos, ()))
                continue
            if kind == "(":
                hit, size = recall(memo, text, pos, len(text) - missed)
                if hit is None:
                    missed += size
                    operators.append((-1, ")", pos, None))
                    continue
                operands.append((hit[3], pos))
                tokens = _tokenize(text, pos + size)
            elif kind == "ident" and value == "S":
                kind, value, paren = next(tokens)
                if kind != "(":
                    raise SyntaxError_(f"expected '(', found {value!r}", paren)
                operators.append((-1, ")", pos, Succ))
                continue
            elif kind == "ident" and value in _KEYWORDS:
                kind, var, var_pos = next(tokens)
                if kind != "ident" or var in _KEYWORDS:
                    raise SyntaxError_(f"expected a variable, found {var!r}", var_pos)
                kind, dot, dot_pos = next(tokens)
                if kind == "<=":
                    operators.append((-1, ".", pos, (value, var)))
                    continue
                if kind != ".":
                    raise SyntaxError_(f"expected '.', found {dot!r}", dot_pos)
                cls = ForAll if value == "forall" else Exists
                operators.append((0, cls, pos, (var,)))
                continue
            elif kind == "0":
                operands.append((ZERO, pos))
            elif kind.__class__ is int:
                operands.append((numeral(kind), pos))
            elif kind == "ident":
                operands.append((Var(value), pos))
            else:
                raise SyntaxError_(f"expected a term or formula, found {value!r}", pos)
            # After an operand: closing brackets, then an infix operator or the end.
            while True:
                kind, value, pos = next(tokens)
                if kind in _INFIX:
                    prec, right, cls = _INFIX[kind]
                    while operators and operators[-1][0] >= prec + right:
                        _reduce(operators, operands)
                    operators.append((prec, cls, pos, None))
                    break
                while operators and operators[-1][0] >= 0:
                    _reduce(operators, operands)
                if kind == "eof":
                    if operators:
                        closing = operators[-1][1]
                        raise SyntaxError_(f"expected {closing!r}, found ''", pos)
                    node, node_pos = operands.pop()
                    return _sorted(node, node_pos, term)
                if not operators or operators[-1][1] != kind:
                    raise SyntaxError_(f"unexpected {value!r}", pos)
                _, _, open_pos, what = operators.pop()
                node, node_pos = operands.pop()
                if kind == ")":
                    if what is Succ:
                        node = Succ(_sorted(node, node_pos, True))
                    elif memo is not None:
                        key = text[open_pos : open_pos + 16]
                        memo[key] = text, open_pos, pos + 1, node
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
    except SyntaxError_:
        for _ in tokens:  # a bad character further on is reported first
            pass
        raise


def parse_formula(text: str, memo: dict | None = None) -> Formula:
    return _parse(text, False, memo)


def parse_term(text: str, memo: dict | None = None) -> Term:
    return _parse(text, True, memo)


# ---------------------------------------------------------------------------
# Evaluation of closed bounded sentences


def eval_term(t: Term, env: dict[str, int]) -> int:
    # Binary nodes with an operand still to evaluate, as (class, right
    # operand or left value, successors above the node, right side?).
    pending: list[tuple] = []
    above = 0  # successors above the current node, counted, not descended
    while True:
        cls = t.__class__
        # Down to a variable or a numeral, which records its value.
        while cls is not Var and t._n is None:
            if cls is Succ:
                above += 1
                t = t.arg
            else:
                pending.append((cls, t.right, above, False))
                above = 0
                t = t.left
            cls = t.__class__
        value = env[t.name] + above if cls is Var else t._n + above
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


def _pin(var: str, node: Formula) -> Term | None:
    """t if the node is `var = t` or `t = var` with var not free in t."""
    if node.__class__ is Eq:
        s, t = node.left, node.right
        if s.__class__ is Var and s.name == var and var not in t._fv:
            return t
        if t.__class__ is Var and t.name == var and var not in s._fv:
            return s
    return None


def _pinned(var: str, limit: int, body: Formula, env: dict) -> Iterator[int]:
    """Lazily, the values in 0..limit at which `body` may hold. A true `|`
    has a true operand and a true `&` a true left operand, so each leaf
    reached through them, left first, is tried in turn: a `var = t` leaf
    gives t's value, and any other leaf every value not given yet (all of
    0..limit, in order, when nothing was given before it)."""
    seen = set()
    todo = [body]
    while todo:
        node = todo.pop()
        cls = node.__class__
        if cls is Or:
            todo.append(node.right)
            todo.append(node.left)
        elif cls is And:
            todo.append(node.left)
        elif (t := _pin(var, node)) is None:
            rest = range(limit + 1)
            yield from (v for v in rest if v not in seen) if seen else rest
            return
        elif (value := eval_term(t, env)) <= limit and value not in seen:
            seen.add(value)
            yield value


def _eval(f: Formula, env: dict[str, int]) -> bool:
    # A frame for each connective or quantifier above the current node: the
    # node itself while its (left) operand is evaluated, and (quantifier,
    # values still to try, saved binding) for a bounded quantifier.
    frames: list = []
    node = f
    while True:
        # Descend to an atom.
        while True:
            cls = node.__class__
            if cls is Eq or cls is Le:
                # A numeral or a variable operand is one read.
                s, t = node.left, node.right
                a, b = s._n, t._n
                if a is None:
                    a = env[s.name] if s.__class__ is Var else eval_term(s, env)
                if b is None:
                    b = env[t.name] if t.__class__ is Var else eval_term(t, env)
                value = a == b if cls is Eq else a <= b
                break
            if cls is Not:
                frames.append(node)
                node = node.body
            elif cls is And or cls is Or or cls is Implies:
                frames.append(node)
                node = node.left
            elif cls is BoundedExists or cls is BoundedForAll:
                limit = eval_term(node.bound, env)
                if cls is BoundedExists:
                    values = _pinned(node.var, limit, node.body, env)
                else:
                    values = iter(range(limit + 1))
                v = next(values, None)
                if v is None:  # an existential with nothing to try
                    value = False
                    break
                frames.append((node, values, env.get(node.var)))
                env[node.var] = v
                node = node.body
            else:
                raise NotBounded(f"a {cls.__name__} node is not a bounded formula")
        # Ascend with the truth value until a frame has more to evaluate.
        while frames:
            frame = frames.pop()
            cls = frame.__class__
            if cls is tuple:
                quantifier, values, saved = frame
                # An existential stops at the first true instance, a
                # universal at the first false one.
                if value is not (quantifier.__class__ is BoundedExists) and (
                    v := next(values, None)
                ) is not None:
                    env[quantifier.var] = v
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

    A universal's variable takes each value from 0 through its bound's
    value, and an existential's those values or only the ones its body pins
    (see `_pinned`), so this is total. Anything with an unbounded quantifier
    or a free variable raises NotBounded: truth outside this fragment is not
    decidable and the kernel never pretends otherwise.
    """
    if not is_delta0(sentence):
        raise NotBounded("sentence has an unbounded quantifier")
    if not is_closed(sentence):
        raise NotBounded("sentence has free variables")
    return _eval(sentence, {})
