"""Syntax of 1-free regular expressions.

The expression language has actions, the empty process ``0``, choice ``+``,
sequencing ``.`` and a *binary* star ``e1*e2`` (iterate ``e1``, exit with
``e2``).  There is no empty-word constant and no unary star; that is what
keeps the class closed under the process semantics used elsewhere in this
package.

Concrete syntax accepted by :func:`parse`:

* actions are ``[a-z][a-z0-9_]*``;
* ``+`` binds weakest, then ``.``, then ``*``;
* ``+`` and ``.`` associate to the left;
* ``*`` does not associate at all: ``a*b*c`` raises :class:`AssocError`,
  write ``(a*b)*c`` or ``a*(b*c)``.

:func:`unparse` prints with the minimal parentheses that round-trip:
``parse(unparse(e))`` is structurally equal to ``e``.
"""

from __future__ import annotations

import json
import re
from dataclasses import FrozenInstanceError

from .errors import AssocError, ParseError

__all__ = [
    "Expression",
    "Action",
    "Zero",
    "Plus",
    "Seq",
    "Star",
    "parse",
    "unparse",
    "size",
    "actions_of",
    "to_json_dict",
    "from_json_dict",
    "to_json",
    "from_json",
]

_ACTION_RE = re.compile(r"[a-z][a-z0-9_]*")


class Expression:
    """Base class for expression nodes.  All nodes are immutable and hashable.

    Each node computes its hash once, when it is built, from its children's
    cached hashes (hash-consing without the sharing: Filliâtre & Conchon,
    *Type-safe modular hash-consing*, 2006).  Hashing a node, and comparing
    two nodes whose hashes differ, then takes constant time however deep the
    tree; interpretation keys dictionaries by whole expressions.
    """

    __slots__ = ("_hash",)

    def __str__(self):
        return unparse(self)

    def __hash__(self):
        return self._hash

    def __setattr__(self, name, value):
        raise FrozenInstanceError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise FrozenInstanceError("cannot delete field %r" % (name,))


class Action(Expression):
    __slots__ = ("name",)

    def __init__(self, name):
        if not _ACTION_RE.fullmatch(name):
            raise ValueError("invalid action name: %r" % (name,))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("action", name)))

    def __eq__(self, other):
        if other.__class__ is not Action:
            return NotImplemented
        return self.name == other.name

    __hash__ = Expression.__hash__

    def __repr__(self):
        return "Action(name=%r)" % (self.name,)

    def __reduce__(self):
        return (Action, (self.name,))


class Zero(Expression):
    __slots__ = ()

    def __init__(self):
        object.__setattr__(self, "_hash", hash("0"))

    def __eq__(self, other):
        if other.__class__ is not Zero:
            return NotImplemented
        return True

    __hash__ = Expression.__hash__

    def __repr__(self):
        return "Zero()"

    def __reduce__(self):
        return (Zero, ())


class _Binary(Expression):
    """A node with two operands, ``left`` and ``right``."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_hash", hash((self._op, hash(left), hash(right))))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # the tuple comparison skips identical operands without recursing
        return self._hash == other._hash and (self.left, self.right) == (other.left, other.right)

    __hash__ = Expression.__hash__

    def __repr__(self):
        return "%s(left=%r, right=%r)" % (self.__class__.__name__, self.left, self.right)

    def __reduce__(self):
        # rebuilt through the constructor, so no stale cached hash is carried
        return (self.__class__, (self.left, self.right))


class Plus(_Binary):
    __slots__ = ()
    _op = "+"


class Seq(_Binary):
    __slots__ = ()
    _op = "."


class Star(_Binary):
    """Binary iteration: repeat ``left`` any number of times, then do ``right``."""

    __slots__ = ()
    _op = "*"


def size(e):
    """Number of syntax-tree nodes in ``e``."""
    if isinstance(e, (Action, Zero)):
        return 1
    return 1 + size(e.left) + size(e.right)


def actions_of(e):
    """The set of action names occurring in ``e``."""
    if isinstance(e, Action):
        return {e.name}
    if isinstance(e, Zero):
        return set()
    return actions_of(e.left) | actions_of(e.right)


# --- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"[a-z][a-z0-9_]*|[0+.*()]|\S")


def _tokenize(text):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        tok = m.group()
        if tok not in "0+.*()" and not _ACTION_RE.fullmatch(tok):
            raise ParseError("unexpected character %r" % tok, pos)
        tokens.append((tok, pos))
        pos = m.end()
    tokens.append((None, n))  # end marker
    return tokens


class _Parser:
    """Recursive-descent parser for the grammar

    sum  := term ('+' term)*
    term := star ('.' star)*
    star := atom ('*' atom)?          -- a second '*' is an AssocError
    atom := ACTION | '0' | '(' sum ')'
    """

    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0]

    def pos(self):
        return self.tokens[self.i][1]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, tok):
        got, pos = self.take()
        if got != tok:
            raise ParseError("expected %r, got %r" % (tok, got or "end of input"), pos)

    def parse(self):
        e = self.sum()
        if self.peek() is not None:
            raise ParseError("trailing input %r" % self.peek(), self.pos())
        return e

    def sum(self):
        e = self.term()
        while self.peek() == "+":
            self.take()
            e = Plus(e, self.term())
        return e

    def term(self):
        e = self.star()
        while self.peek() == ".":
            self.take()
            e = Seq(e, self.star())
        return e

    def star(self):
        e = self.atom()
        if self.peek() == "*":
            self.take()
            e = Star(e, self.atom())
            if self.peek() == "*":
                raise AssocError(
                    "binary star is non-associative; parenthesize", self.pos()
                )
        return e

    def atom(self):
        tok, pos = self.take()
        if tok == "0":
            return Zero()
        if tok == "(":
            e = self.sum()
            self.expect(")")
            return e
        if tok is not None and _ACTION_RE.fullmatch(tok):
            return Action(tok)
        raise ParseError("expected expression, got %r" % (tok or "end of input"), pos)


def parse(text):
    """Parse concrete syntax into an :class:`Expression`.

    Raises :class:`ParseError` (with ``.position``) on malformed input and
    :class:`AssocError` on an unparenthesized star chain.
    """
    return _Parser(text).parse()


# --- printing --------------------------------------------------------------

# Precedence levels used for minimal-parenthesis printing.
_LEVEL_PLUS, _LEVEL_SEQ, _LEVEL_STAR, _LEVEL_ATOM = 1, 2, 3, 4


def _level(e):
    if isinstance(e, Plus):
        return _LEVEL_PLUS
    if isinstance(e, Seq):
        return _LEVEL_SEQ
    if isinstance(e, Star):
        return _LEVEL_STAR
    return _LEVEL_ATOM


def _wrap(e, minimum):
    text = unparse(e)
    if _level(e) < minimum:
        return "(" + text + ")"
    return text


def unparse(e):
    """Print ``e`` with minimal parentheses; inverse of :func:`parse`."""
    if isinstance(e, Action):
        return e.name
    if isinstance(e, Zero):
        return "0"
    if isinstance(e, Plus):
        # left-associative: the right operand needs parens if it is a Plus
        return "%s+%s" % (_wrap(e.left, _LEVEL_PLUS), _wrap(e.right, _LEVEL_SEQ))
    if isinstance(e, Seq):
        return "%s.%s" % (_wrap(e.left, _LEVEL_SEQ), _wrap(e.right, _LEVEL_STAR))
    if isinstance(e, Star):
        # star operands must be atoms (the grammar has no star-of-star without
        # parens and no unparenthesized composite operands)
        return "%s*%s" % (_wrap(e.left, _LEVEL_ATOM), _wrap(e.right, _LEVEL_ATOM))
    raise TypeError("not an expression: %r" % (e,))


# --- JSON ------------------------------------------------------------------


def to_json_dict(e):
    """Tagged-union dictionary form of ``e`` (stable across versions)."""
    if isinstance(e, Action):
        return {"op": "action", "name": e.name}
    if isinstance(e, Zero):
        return {"op": "zero"}
    tag = {Plus: "plus", Seq: "seq", Star: "star"}[type(e)]
    return {"op": tag, "left": to_json_dict(e.left), "right": to_json_dict(e.right)}


def from_json_dict(d):
    op = d.get("op")
    if op == "action":
        return Action(d["name"])
    if op == "zero":
        return Zero()
    if op in ("plus", "seq", "star"):
        cls = {"plus": Plus, "seq": Seq, "star": Star}[op]
        return cls(from_json_dict(d["left"]), from_json_dict(d["right"]))
    raise ParseError("unknown expression op %r" % (op,))


def to_json(e):
    return json.dumps({"v": 1, "expression": to_json_dict(e)}, indent=2)


def from_json(text):
    doc = json.loads(text)
    return from_json_dict(doc["expression"] if "expression" in doc else doc)
