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

from ._record import _assign_frozen, _delete_frozen
from .errors import AssocError, InternalError, ParseError

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
]

# the characters after the first letter of an action name, as bytes:
# ``bytes.strip`` is several times faster than ``str.strip`` on a long name
_ACTION_CHARS = b"abcdefghijklmnopqrstuvwxyz0123456789_"


def _is_action(name):
    """Whether the string ``name`` is an action name, ``[a-z][a-z0-9_]*``,
    tested with no regular expression.  A character that is not ASCII
    encodes as ``?``, which no name holds."""
    return "a" <= name[:1] <= "z" and not name.encode("ascii", "replace").strip(_ACTION_CHARS)


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

    __setattr__ = _assign_frozen
    __delattr__ = _delete_frozen


class Action(Expression):
    __slots__ = ("name",)

    def __init__(self, name):
        if not _is_action(name):
            raise ValueError("invalid action name: %r" % (name,))
        _set_name(self, name)
        _set_hash(self, hash(("action", name)))

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
        _set_hash(self, hash("0"))

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
    """A node with two operands, ``left`` and ``right``, both expressions."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        # the slots are set through their descriptors, past the frozen
        # ``__setattr__``, and the hash is read off the operands' caches
        _set_left(self, left)
        _set_right(self, right)
        try:
            _set_hash(self, hash((self._op, left._hash, right._hash)))
        except AttributeError:
            raise TypeError(
                "operands of %s must be expressions, got %r and %r"
                % (self.__class__.__name__, left, right)
            ) from None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # pairs of subterms still to compare, from an explicit stack: identical
        # ones are skipped and differing hashes decide at once.  A pair of
        # shared subterms is expanded once, so the cost is linear in distinct
        # nodes.  The root pair is never met again, as ``self`` is below
        # nothing it holds, so it is not recorded, and most calls, which end
        # at the root pair or its operands, make no set of expanded pairs
        pairs = [(self, other)]
        expanded = None
        while pairs:
            x, y = pairs.pop()
            if x is y:
                continue
            cls = x.__class__
            if cls is not y.__class__ or x._hash != y._hash:
                return False
            if cls in _OPERANDS:
                if x is not self:
                    key = (id(x), id(y))
                    if expanded is None:
                        expanded = {key}
                    elif key in expanded:
                        continue
                    else:
                        expanded.add(key)
                pairs.append((x.right, y.right))
                pairs.append((x.left, y.left))
            elif cls is Action and x.name != y.name:
                return False
        return True

    __hash__ = Expression.__hash__

    def __repr__(self):
        return "%s(left=%r, right=%r)" % (self.__class__.__name__, self.left, self.right)

    def __reduce__(self):
        # a flat postfix list, so neither pickle nor copy recurses per level;
        # it is rebuilt through _node, so no stale cached hash is carried
        return (_unflatten, (_flatten((self,))[0],))


# the slot descriptors' setters, which the frozen nodes' constructors call
_set_hash = Expression._hash.__set__
_set_name = Action.name.__set__
_set_left = _Binary.left.__set__
_set_right = _Binary.right.__set__
_new = object.__new__


def _action(name):
    """The :class:`Action` leaf of ``name``, which the caller has already
    checked to be an action name, with no second check: :func:`parse` has
    read it as one, and the actions of a :class:`~lleekit.chart.Chart` and
    of an exploration are action names."""
    leaf = object.__new__(Action)
    _set_name(leaf, name)
    _set_hash(leaf, hash(("action", name)))
    return leaf


def _node(cls, left, right):
    """The ``cls`` node of ``left`` and ``right``, which the caller has
    already checked to be expressions, with no constructor call: the slots
    and the hash are set as :class:`_Binary` sets them.  :func:`parse`
    builds its operator nodes this way, and so does
    :func:`lleekit.solve.extract_solution`."""
    node = object.__new__(cls)
    _set_left(node, left)
    _set_right(node, right)
    _set_hash(node, hash((cls._op, left._hash, right._hash)))
    return node


# on a walk's stack: the node just below has had its operands walked
_BUILD = object()


def _postorder(roots, known=()):
    """Each distinct operator node under ``roots``, after its operands.

    One explicit stack walks the roots in order, each node's left operand
    before its right, so a deep expression does not hit the recursion
    limit.  A node is entered once however many parents share it, and a
    node whose id is in ``known`` is not entered at all: neither it nor
    anything below it through it is yielded.  Leaves are never yielded.
    """
    seen = set()
    stack = list(roots)[::-1]
    while stack:
        x = stack.pop()
        if x is _BUILD:
            yield stack.pop()
        elif x.__class__ in _OPERANDS and id(x) not in seen and id(x) not in known:
            seen.add(id(x))
            stack += (x, _BUILD, x.right, x.left)


def _flatten(roots):
    """The distinct subterms of ``roots`` in postfix order, each after its
    operands: a leaf as it is, an operator node as ``(class, i, j)``, the
    places of its operands in the list.  Returns the list and the place of
    each root, so expressions flattened together share their subterms."""
    out = []
    place = {}  # id -> place in out

    def at(x):
        i = place.get(id(x))
        if i is None:
            i = place[id(x)] = len(out)
            out.append(x)
        return i

    for x in _postorder(roots):
        i, j = at(x.left), at(x.right)
        place[id(x)] = len(out)
        out.append((x.__class__, i, j))
    return out, [at(r) for r in roots]


def _unflatten(entries, at=-1):
    """What :func:`_flatten` gave ``entries``, its operator nodes built
    with :func:`_node`: the expression at place ``at``, the last one by
    default, or with ``at=None`` the list of them all."""
    built = []
    for x in entries:
        if x.__class__ is tuple:
            cls, i, j = x
            x = _node(cls, built[i], built[j])
        built.append(x)
    return built if at is None else built[at]


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
    """Number of syntax-tree nodes in ``e``.

    A subterm shared by several parents counts once per occurrence, as
    printing it would, but is visited once: the count costs one step per
    distinct object (:func:`_postorder`), however deep or large the tree.
    """
    counts = {}  # id -> tree size, for the operator nodes counted so far
    for x in _postorder((e,)):
        counts[id(x)] = 1 + counts.get(id(x.left), 1) + counts.get(id(x.right), 1)
    return counts.get(id(e), 1)


def actions_of(e):
    """The set of action names occurring in ``e``, each distinct subterm
    visited once (:func:`_postorder`)."""
    names = {e.name} if e.__class__ is Action else set()
    for x in _postorder((e,)):
        for y in (x.left, x.right):
            if y.__class__ is Action:
                names.add(y.name)
    return names


# --- precedence ------------------------------------------------------------

# The classes of the left and of the right operands that print in
# parentheses under each operator: ``+`` binds weakest, then ``.``, then
# ``*``; ``+`` and ``.`` associate to the left, and star operands must be
# atoms.  A head before a ``.`` prints as ``Seq``'s left operand and a
# continuation's operand as its right one (:mod:`lleekit.chart`).
_OPERANDS = {
    Plus: (frozenset(), frozenset((Plus,))),
    Seq: (frozenset((Plus,)), frozenset((Plus, Seq))),
    Star: (frozenset((Plus, Seq, Star)), frozenset((Plus, Seq, Star))),
}


# --- parsing ---------------------------------------------------------------

_ZERO = Zero()


def _chunks(text):
    """The chunks of ``text``: its blank-free stretches, with each ``(``,
    ``)``, ``+`` and ``*`` a chunk of its own.  Actions and ``0`` joined
    by ``.``, as in ``a.b.0.c``, are one chunk, which also holds a ``.``
    just before or after them.

    Each chunk is a slice of ``text``, in order, and only blanks lie
    between two: ``str.split`` and the syntax agree on what a blank is.
    """
    return (
        text.replace("(", " ( ").replace(")", " ) ").replace("+", " + ").replace("*", " * ").split()
    )


def parse(text):
    """Parse concrete syntax into an :class:`Expression`.

    Raises :class:`ParseError` (with ``.position``) on malformed input and
    :class:`AssocError` on an unparenthesized star chain.

    The text is cut into chunks with ``str`` methods (:func:`_chunks`),
    then one flat operator-precedence loop builds the tree with an operand
    stack and an operator stack, so nesting depth costs no recursion
    (:func:`_read`).  A stray character anywhere in the text is reported
    before any other error, and positions are recovered only for an error
    (:func:`_parse_error`).
    """
    return _read(text, _chunks(text))


def _read(text, tokens, starts=None):
    """The expression of ``text``, read from its ``tokens``: the chunks of
    :func:`_chunks`, or with ``starts``, their places in ``text``, the
    tokens of :func:`_tokens`.

    A chunk is read as the tokens it holds: a ``.`` at its start is a
    ``.`` token, then its ``.``-separated names are operands with a ``.``
    token between two, and a ``.`` at its end is one more.  In operand
    position, its first name is the operand and the ``.`` after it
    reduces as a ``.`` token would, its middle names fold left in one
    loop that makes each ``Seq`` node inline, with no call per action, and
    its last name is left as the right operand of a pending ``.``, so a
    ``*`` after the chunk takes that name alone.  A name is an action or
    ``0``, and an action name is checked when ``leaves`` first misses it;
    a chunk's last name is checked before its middle names are folded, so
    a malformed last name costs no fold.  Every operator reduces the
    operators of at least its own level first, which makes ``+`` and ``.``
    left-associative; a ``*`` that meets an unreduced ``*`` is a star
    chain.  The operator stack starts with an open parenthesis that is
    never closed, so no reduction checks for an empty stack.
    """
    operands = []
    # Plus, Seq and Star, and None for an open parenthesis: between two
    # parentheses their levels increase up the stack
    operators = [None]
    depth = 0  # the parentheses read and not yet closed
    leaves = {"0": _ZERO}  # one immutable leaf per name
    want_operand = True
    for i, tok in enumerate(tokens):
        if not want_operand:
            if tok == "+":
                while operators[-1] is not None:
                    right = operands.pop()
                    operands[-1] = _node(operators.pop(), operands[-1], right)
                operators.append(Plus)
                want_operand = True
                continue
            if tok == "*":
                if operators[-1] is Star:
                    raise _parse_error(
                        text, starts, i, AssocError, "binary star is non-associative; parenthesize"
                    )
                operators.append(Star)
                want_operand = True
                continue
            if tok == ")" and depth:
                while operators[-1] is not None:
                    right = operands.pop()
                    operands[-1] = _node(operators.pop(), operands[-1], right)
                operators.pop()
                depth -= 1
                continue
            if tok[0] != ".":
                # a run in operator position is reported by its first action
                tok = tok.partition(".")[0]
                if depth:
                    raise _parse_error(text, starts, i, ParseError, "expected ')', got %r" % tok)
                raise _parse_error(text, starts, i, ParseError, "trailing input %r" % tok)
            while operators[-1] is Seq or operators[-1] is Star:
                right = operands.pop()
                operands[-1] = _node(operators.pop(), operands[-1], right)
            operators.append(Seq)
            want_operand = True
            # the rest of a chunk that starts with a "."
            tok = tok[1:]
            if not tok:
                continue
        if tok == "(":
            operators.append(None)
            depth += 1
            continue
        if "." in tok:
            # a1.a2.….an: a1 is the operand, and the "." after it reduces as
            # a "." token does; the middle names fold left in one loop, and
            # an, read below as a lone name is, is the right operand of a
            # pending Seq, so a "*" after the chunk takes an alone.  An
            # empty an is a "." at the chunk's end
            names = tok.split(".")
            tok = names.pop()
            if tok and tok not in leaves and not _is_action(tok):
                # the error is read from the tokens
                raise _parse_error(text, starts, i, ParseError, "")
            names = iter(names)
            name = next(names)
            x = leaves.get(name)
            if x is None:
                if not _is_action(name):
                    # of the tokens of _tokens, only a lone "." gets here
                    raise _parse_error(text, starts, i, ParseError, "expected expression, got '.'")
                x = leaves[name] = _action(name)
            while operators[-1] is Seq or operators[-1] is Star:
                x = _node(operators.pop(), operands.pop(), x)
            h = x._hash
            for name in names:
                # the Seq node as _node makes it, its hash chained from the
                # one before
                leaf = leaves.get(name)
                if leaf is None:
                    if not _is_action(name):
                        # only a chunk of several tokens gets here, and the
                        # error is read from its tokens
                        raise _parse_error(text, starts, i, ParseError, "")
                    leaf = leaves[name] = _action(name)
                node = _new(Seq)
                _set_left(node, x)
                _set_right(node, leaf)
                h = hash((".", h, leaf._hash))
                _set_hash(node, h)
                x = node
            operands.append(x)
            operators.append(Seq)
            if not tok:
                continue
        leaf = leaves.get(tok)
        if leaf is None:
            if not _is_action(tok):
                raise _parse_error(text, starts, i, ParseError, "expected expression, got %r" % tok)
            leaf = leaves[tok] = _action(tok)
        operands.append(leaf)
        want_operand = False
    if want_operand or depth:
        expected = "expression" if want_operand else "')'"
        raise _parse_error(
            text, starts, len(tokens), ParseError, "expected %s, got 'end of input'" % expected
        )
    while operators[-1] is not None:
        right = operands.pop()
        operands[-1] = _node(operators.pop(), operands[-1], right)
    return operands[0]


def _tokens(text):
    """The tokens of ``text`` and their places in it: a run of actions
    joined by ``.`` with no blanks inside, as in ``a.b.c``, or any other
    character that is not a blank.

    Each chunk of :func:`_chunks` is cut at every character that cannot go
    on a run; a ``.`` goes on one only when a letter follows it.  A run is
    read a name at a time with ``str`` and ``bytes`` methods, each name
    bounded by the next ``.`` of its chunk, and any other token is one
    character.  Only an
    error reads these: they place each token, and a chunk such as ``a.0b``
    holds more than its names.
    """
    tokens, starts = [], []
    end = 0
    for chunk in _chunks(text):
        # only blanks lie before the chunk
        start = text.index(chunk[0], end)
        end = start + len(chunk)
        j = 0
        while j < len(chunk):
            k = j + 1
            if "a" <= chunk[j] <= "z":
                # a name at a time, up to the next "." or the first
                # character no name holds, while a "." and a letter follow
                while k < len(chunk):
                    dot = chunk.find(".", k)
                    if dot < 0:
                        dot = len(chunk)
                    k = dot - len(chunk[k:dot].encode("ascii", "replace").lstrip(_ACTION_CHARS))
                    if k < dot or not "a" <= chunk[k + 1 : k + 2] <= "z":
                        break
                    k += 2
            tokens.append(chunk[j:k])
            starts.append(start + j)
            j = k
    return tokens, starts


def _parse_error(text, starts, i, exc, message):
    """The error :func:`parse` raises at token ``i`` of ``text``, or at its
    end when ``i`` is the number of tokens.

    With ``starts``, the places of :func:`_tokens`, it is ``exc(message)``
    at token ``i``.  Without, ``i`` counts the chunks of :func:`_chunks`,
    which may hold several tokens, so the text is read again from its
    tokens, and the error of that reading is returned.  A stray character
    anywhere in the text is the error instead, the first one found: the
    grammar is read only from valid tokens.
    """
    if starts is not None:
        return exc(message, starts[i] if i < len(starts) else len(text))
    tokens, starts = _tokens(text)
    for tok, start in zip(tokens, starts):
        if not "a" <= tok < "{" and tok not in "0+.*()":
            return ParseError("unexpected character %r" % tok, start)
    try:
        _read(text, tokens, starts)
    except ParseError as error:
        return error
    raise InternalError("the tokens of %r parse where its chunks did not" % (text,))


# --- printing --------------------------------------------------------------

# per operator class: its operand classes printed in parentheses, left and
# right, then its token with no parenthesis beside it, after a closed
# left operand, before an opened right one, and both
_PRINTING = {
    cls: (left, right, cls._op, ")" + cls._op, cls._op + "(", ")" + cls._op + "(")
    for cls, (left, right) in _OPERANDS.items()
}


def _emit(stack, out, starts=None, ends=None, budget=-1):
    """Append to ``out`` the tokens of the items on ``stack``, popped from
    its end: a string is a token as it is, an expression is printed as
    :func:`unparse` prints it.

    One explicit stack and one token list print the whole output, so a
    deep expression does not hit the recursion limit and no subterm's text
    is built on its own: the tokens are joined once, by the caller, and a
    subterm shared by several parents is printed at each occurrence, as
    the text holds it.  Each operator node pushes its right operand (an
    action as its name), its token with the parentheses that the operands'
    classes need (:data:`_OPERANDS`), and walks down its left operand in
    the same loop.

    With ``starts`` and ``ends``, dictionaries, each operator node's first
    and one-past-last token are recorded under its id, so every subterm is
    a slice of the joined text (:class:`lleekit.chart._States`); the marker
    of a node's end is its id on the stack.  Only a span that a state can
    read is recorded.  A state's head or a continuation's operand is, where
    it occurs, a root, a star, the right operand of a ``Seq``, or its left
    operand when that is not a ``Seq`` (:class:`lleekit.chart._States`).
    So an operand of a ``Plus`` or a ``Star`` other than a star, and a
    ``Seq`` on the left of a ``Seq``, as the inner nodes of a run ``a.b.c``
    are, gets no span and no marker there; a right operand that gets none
    is pushed in a 1-tuple.  ``budget`` counts down the operator nodes
    printed, and printing stops when it reaches 0: the result is the budget
    left, 0 when it ran out, and a negative budget never does.  Raises
    :class:`TypeError` on an item that is neither.
    """
    append, pop = out.append, stack.pop
    while stack:
        x = pop()
        cls = x.__class__
        if cls is str:
            append(x)
            continue
        if cls is int:
            ends[x] = len(out)
            continue
        # an expression, and down its left operands; a root or a right
        # operand is read unless it comes in a 1-tuple
        read = True
        if cls is tuple:
            (x,) = x
            cls = x.__class__
            read = False
        while True:
            if cls is Action:
                append(x.name)
                break
            printing = _PRINTING.get(cls)
            if printing is None:
                if cls is Zero:
                    append("0")
                    break
                raise TypeError("not an expression: %r" % (x,))
            budget -= 1
            if not budget:
                return 0
            wrap_left, wrap_right, op, closed, opened, both = printing
            right = x.right
            right_cls = right.__class__
            if starts is not None:
                if read or cls is Star:
                    i = id(x)
                    starts[i] = len(out)
                    stack.append(i)
                if cls is Seq:
                    read = x.left.__class__ is not Seq
                else:
                    read = False
                    if right_cls is not Star and right_cls in _PRINTING:
                        right = (right,)
            x = x.left
            cls = x.__class__
            if right_cls in wrap_right:
                if cls in wrap_left:
                    stack += (")", right, both)
                    append("(")
                else:
                    stack += (")", right, opened)
            else:
                if right_cls is Action:
                    right = right.name
                if cls in wrap_left:
                    stack += (right, closed)
                    append("(")
                else:
                    stack += (right, op)
    return budget


def unparse(e):
    """Print ``e`` with minimal parentheses; inverse of :func:`parse`.

    One token stream, joined once (:func:`_emit`): time and memory are
    linear in the text printed.  Raises :class:`TypeError` when ``e`` is
    not an expression.
    """
    if not isinstance(e, Expression):
        raise TypeError("not an expression: %r" % (e,))
    out = []
    _emit([e], out)
    return "".join(out)


def _unparse_within(e, cap):
    """:func:`unparse` of ``e``, or ``None`` when ``e`` has more than ``cap``
    syntax nodes, counted as :func:`size` counts them.  A tree of ``m``
    operator nodes has ``2m + 1`` syntax nodes, so it passes the cap from
    operator node ``(cap + 1) // 2`` on, and printing stops there: the
    cost is bounded by the cap however large the tree under a shared DAG.
    """
    out = []
    if not _emit([e], out, budget=(cap + 1) // 2):
        return None
    return "".join(out)


# --- JSON ------------------------------------------------------------------


_TAG = {Plus: "plus", Seq: "seq", Star: "star"}
_CLASS = {tag: cls for cls, tag in _TAG.items()}


def to_json_dict(e):
    """Tagged-union dictionary form of ``e`` (stable across versions).

    Built operands first (:func:`_postorder`), so a deep expression does
    not hit the recursion limit; a shared operator node gets one
    dictionary, which each of its occurrences holds.
    """
    built = {}  # id -> dictionary, for the operator nodes built so far

    def form(x):
        if x.__class__ in _TAG:
            return built[id(x)]
        if x.__class__ is Action:
            return {"op": "action", "name": x.name}
        if x.__class__ is Zero:
            return {"op": "zero"}
        raise TypeError("not an expression: %r" % (x,))

    for x in _postorder((e,)):
        built[id(x)] = {"op": _TAG[x.__class__], "left": form(x.left), "right": form(x.right)}
    return form(e)


def from_json_dict(d):
    """The expression of a dictionary :func:`to_json_dict` writes.

    Built children first from an explicit stack, as :func:`to_json_dict`
    writes it, so a deep dictionary does not hit the recursion limit.
    Raises :class:`ParseError` on an unknown ``op``, a missing key or a
    name that is no string.
    """
    built = []
    stack = [d]
    while stack:
        x = stack.pop()
        if x is _BUILD:
            cls = stack.pop()
            right = built.pop()
            built[-1] = cls(built[-1], right)
            continue
        op = x.get("op") if isinstance(x, dict) else None
        if op == "action":
            name = x.get("name")
            if not isinstance(name, str):
                raise ParseError("action without a string name")
            built.append(Action(name))
        elif op == "zero":
            built.append(Zero())
        elif op in _CLASS:
            if "left" not in x or "right" not in x:
                raise ParseError("%s without both operands" % op)
            stack += (_CLASS[op], _BUILD, x["right"], x["left"])
        else:
            raise ParseError("unknown expression op %r" % (op,))
    return built[0]


def to_json(e):
    return _dumps({"v": 1, "expression": to_json_dict(e)})


def _dumps(doc):
    """``json.dumps(doc, indent=2)``, written from an explicit stack.

    The same text for dictionaries with string keys, lists and JSON
    scalars, however deeply they nest: the standard encoder recurses once
    per level, and its closures refer to each other, so every call leaves
    a reference cycle behind.  Every JSON document lleekit writes goes
    through here.
    """
    # json is imported where JSON is read or written: no text call needs it
    import json

    out = []
    # a value to write at an indentation level, or a piece of text
    stack = [(doc, 0)]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        x, level = item
        if isinstance(x, dict) and x:
            brackets, items = "{}", [(json.dumps(k) + ": ", v) for k, v in x.items()]
        elif isinstance(x, (list, tuple)) and x:
            brackets, items = "[]", [("", v) for v in x]
        else:
            out.append(json.dumps(x))
            continue
        inner = "\n" + "  " * (level + 1)
        stack.append("\n" + "  " * level + brackets[1])
        for i in reversed(range(len(items))):
            key, v = items[i]
            stack.append((v, level + 1))
            stack.append((brackets[0] if i == 0 else ",") + inner + key)
    return "".join(out)


def from_json(text):
    import json

    doc = json.loads(text)
    return from_json_dict(doc["expression"] if "expression" in doc else doc)
