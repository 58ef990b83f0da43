"""Expression syntax: parsing, printing, JSON, and basic measures."""

import copy
import dataclasses
import json
import os
import pickle
import random
import re
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_python
from generators import expressions, random_expression
from oracles import reference_parse
from lleekit.errors import AssocError, LleekitError, ParseError
from lleekit.expr import (
    Action,
    Plus,
    Seq,
    Star,
    Zero,
    _is_action,
    _postorder,
    actions_of,
    from_json,
    from_json_dict,
    parse,
    size,
    to_json,
    to_json_dict,
    unparse,
)
from lleekit.solve import equiv

A, B, C = Action("a"), Action("b"), Action("c")


def test_parse_atoms():
    assert parse("a") == A
    assert parse("0") == Zero()
    assert parse("ab1_x") == Action("ab1_x")
    assert parse(" a + b ") == Plus(A, B)
    assert parse("(a)") == A


def test_parse_precedence():
    # + binds weakest, then ., then *
    assert parse("a+b.c") == Plus(A, Seq(B, C))
    assert parse("a.b+c") == Plus(Seq(A, B), C)
    assert parse("a+b*c") == Plus(A, Star(B, C))
    assert parse("a.b*c") == Seq(A, Star(B, C))
    assert parse("a*b.c") == Seq(Star(A, B), C)
    assert parse("(a+b).c") == Seq(Plus(A, B), C)
    assert parse("(a+b)*c") == Star(Plus(A, B), C)


def test_parse_left_associativity():
    assert parse("a+b+c") == Plus(Plus(A, B), C)
    assert parse("a.b.c") == Seq(Seq(A, B), C)


def test_star_does_not_associate():
    with pytest.raises(AssocError) as info:
        parse("a*b*c")
    assert info.value.position == 3
    assert isinstance(info.value, ParseError)
    assert parse("(a*b)*c") == Star(Star(A, B), C)
    assert parse("a*(b*c)") == Star(A, Star(B, C))


_END = "'end of input'"

# each message and position is pinned: `lleekit` prints them after "parse error: "
PARSE_ERRORS = [
    ("", 0, "expected expression, got " + _END),
    ("a+", 2, "expected expression, got " + _END),
    ("(a", 2, "expected ')', got " + _END),
    (")", 0, "expected expression, got ')'"),
    ("a b", 2, "trailing input 'b'"),
    ("A", 0, "unexpected character 'A'"),
    ("a$b", 1, "unexpected character '$'"),
    ("a..b", 2, "expected expression, got '.'"),
    ("(a b", 3, "expected ')', got 'b'"),
    ("a)", 1, "trailing input ')'"),
    ("()", 1, "expected expression, got ')'"),
    ("a*b*c", 3, "binary star is non-associative; parenthesize"),
    ("(a*b*c)", 4, "binary star is non-associative; parenthesize"),
    ("a*b*", 3, "binary star is non-associative; parenthesize"),
    ("a*(b)*c", 5, "binary star is non-associative; parenthesize"),
    ("a*", 2, "expected expression, got " + _END),
    ("a+*b", 2, "expected expression, got '*'"),
    ("((a)", 4, "expected ')', got " + _END),
    ("(a(", 2, "expected ')', got '('"),
    # the whole text is scanned first: a stray character is reported
    # ahead of an earlier syntax error
    ("a..b$", 4, "unexpected character '$'"),
    # a run of actions in operator position is reported by its first action
    ("a b.c", 2, "trailing input 'b'"),
    ("(a b.c", 3, "expected ')', got 'b'"),
    # blanks are the characters that both str.split and the syntax skip
    ("a\x1cb", 2, "trailing input 'b'"),
    ("a\x85b", 2, "trailing input 'b'"),
    ("a\xa0.b c", 5, "trailing input 'c'"),
    ("a\u2000b", 2, "trailing input 'b'"),
    ("a\u200bb", 1, "unexpected character '\\u200b'"),
    # a "." beside a name that is no action, at either end of a run, twice
    (".0", 0, "expected expression, got '.'"),
    ("0.", 2, "expected expression, got " + _END),
    ("a._", 2, "unexpected character '_'"),
    ("a.9", 2, "unexpected character '9'"),
    ("a..", 2, "expected expression, got '.'"),
    ("0.a b", 4, "trailing input 'b'"),
    ("0a", 1, "trailing input 'a'"),
    ("a.0b", 3, "trailing input 'b'"),
    ("a.b.0c.d", 5, "trailing input 'c'"),
    ("(a.b.0c.d", 6, "expected ')', got 'c'"),
    # a "." just before "(" and just after ")"
    ("a.(b", 4, "expected ')', got " + _END),
    ("a.)", 2, "expected expression, got ')'"),
    ("a..(b)", 2, "expected expression, got '.'"),
    ("(a).", 4, "expected expression, got " + _END),
    ("(a)..b", 4, "expected expression, got '.'"),
    ("(a).b c", 6, "trailing input 'c'"),
]


@pytest.mark.parametrize(
    "text,position,message",
    [pytest.param(*case, id="%s-%d" % case[:2]) for case in PARSE_ERRORS],
)
def test_parse_errors_carry_positions(text, position, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.position == position
    assert str(info.value) == "%s (at position %d)" % (message, position)
    assert isinstance(info.value, AssocError) == message.startswith("binary star")
    assert isinstance(info.value, LleekitError)
    assert isinstance(info.value, ValueError)


# what a mutation may insert: the grammar's characters, multi-letter and
# digit-bearing action names, blanks, and stray characters
_INSERTS = list("abz0+.*() \t_9A#{é") + ["x1_y", "a*b*c", "((", "))", " q"]
# what the parser's pieces could mishandle: characters that str.split and
# the syntax both call blanks, one that neither does, a "." beside a name
# that is no action or beside another ".", and a "." just before "(" or
# just after ")"
_INSERTS += ["\x1c", "\x85", "\xa0", "\u2000", "\u200b"]
_INSERTS += [".0", "._", "..", "0.a", "a.0", ".(", ")."]


def _mutate(rng, text):
    """``text`` with one character inserted, deleted or swapped with the
    next, or a fragment spliced in."""
    i = rng.randint(0, len(text))
    kind = rng.randrange(3)
    if kind == 1 and i < len(text):
        return text[:i] + text[i + 1 :]
    if kind == 2 and i + 1 < len(text):
        return text[:i] + text[i + 1] + text[i] + text[i + 2 :]
    return text[:i] + rng.choice(_INSERTS) + text[i:]


def _parsed(parse_text, text):
    try:
        e = parse_text(text)
    except ParseError as exc:
        return (exc.__class__, str(exc), exc.position)
    return (e, hash(e))


def test_parse_agrees_with_the_reference_parser():
    # valid texts, and texts broken by stray characters, star chains,
    # unbalanced parentheses and trailing input: the same tree and hash, or
    # the same error class, message and position
    rng = random.Random(1313)
    texts = [text for text, _, _ in PARSE_ERRORS]
    for _ in range(600):
        text = unparse(random_expression(rng, rng.randint(1, 25)))
        texts.append(text)
        for _ in range(3):
            text = _mutate(rng, text)
            texts.append(text)
    failures = sum(1 for text in texts if isinstance(_parsed(reference_parse, text)[0], type))
    assert 0.3 * len(texts) < failures < 0.8 * len(texts)
    for text in texts:
        assert _parsed(parse, text) == _parsed(reference_parse, text), text


@settings(max_examples=2000, deadline=None)
@given(expressions, st.integers(0, 3), st.randoms(use_true_random=False))
def test_parse_agrees_with_the_reference_parser_hypothesis(e, edits, rng):
    # the seeded sweep above, with the printed expression and its edits
    # drawn, and shrunk, by hypothesis
    text = unparse(e)
    for _ in range(edits):
        text = _mutate(rng, text)
    assert _parsed(parse, text) == _parsed(reference_parse, text), text


@pytest.mark.parametrize(
    "e,text",
    [
        (Plus(Plus(A, B), C), "a+b+c"),
        (Plus(A, Plus(B, C)), "a+(b+c)"),
        (Seq(Seq(A, B), C), "a.b.c"),
        (Seq(A, Seq(B, C)), "a.(b.c)"),
        (Seq(Plus(A, B), C), "(a+b).c"),
        (Plus(A, Seq(B, C)), "a+b.c"),
        (Star(Plus(A, B), C), "(a+b)*c"),
        (Star(A, Seq(B, C)), "a*(b.c)"),
        (Star(Star(A, B), C), "(a*b)*c"),
        (Star(A, Star(B, C)), "a*(b*c)"),
        (Seq(Star(A, B), C), "a*b.c"),
        (Seq(A, Star(B, C)), "a.b*c"),
        (Zero(), "0"),
        (Plus(Zero(), A), "0+a"),
        (Star(A, Zero()), "a*0"),
    ],
)
def test_unparse_minimal_parentheses(e, text):
    assert unparse(e) == text
    assert parse(text) == e


@pytest.mark.parametrize(
    "text,e",
    [
        ("x*a.b", Seq(Star(Action("x"), A), B)),
        ("a.b*c.d", Seq(Seq(A, Star(B, C)), Action("d"))),
        ("a.b.c*d", Seq(Seq(A, B), Star(C, Action("d")))),
        ("(a.b).c.d", Seq(Seq(Seq(A, B), C), Action("d"))),
        # blanks split a run: its pieces are read as single tokens
        ("a . b.c", Seq(Seq(A, B), C)),
    ],
)
def test_action_runs_parse_as_their_actions(text, e):
    # a run a1.….an is one token: a "*" before it takes a1, one after it
    # takes an, and the actions between sequence to the left
    assert parse(text) == e
    assert hash(parse(text)) == hash(e)
    assert parse(text) == reference_parse(text)
    assert parse(unparse(e)) == e


def test_str_is_unparse():
    assert str(Star(A, B)) == "a*b"
    assert str(Zero()) == "0"


def test_roundtrip_seeded():
    rng = random.Random(7)
    for _ in range(300):
        e = random_expression(rng, rng.randint(1, 30))
        assert parse(unparse(e)) == e


@settings(max_examples=80, deadline=None)
@given(expressions)
def test_roundtrip_hypothesis(e):
    assert parse(unparse(e)) == e


def test_json_roundtrip():
    e = parse("(a+b)*0.c")
    doc = json.loads(to_json(e))
    assert doc["v"] == 1
    assert from_json(to_json(e)) == e
    # the bare dictionary form round-trips too
    assert from_json(json.dumps(doc["expression"])) == e


@settings(max_examples=60, deadline=None)
@given(expressions)
def test_json_roundtrip_hypothesis(e):
    assert from_json(to_json(e)) == e


def test_json_unknown_op():
    with pytest.raises(ParseError):
        from_json_dict({"op": "loop"})


@pytest.mark.parametrize(
    "doc",
    [
        {"op": "seq", "left": {"op": "zero"}},
        {"op": "plus", "right": {"op": "zero"}},
        {"op": "star"},
        {"op": "action"},
        {"op": "action", "name": 5},
        {"op": "seq", "left": {"op": "zero"}, "right": ["zero"]},
    ],
)
def test_json_malformed_dictionary(doc):
    with pytest.raises(ParseError):
        from_json_dict(doc)


def _nested_left(n):
    # ((a.b).b)….b with n right operands
    e = Action("a")
    for _ in range(n):
        e = Seq(e, Action("b"))
    return e


@pytest.mark.parametrize(
    "e",
    [
        parse(".".join(["a"] * 3000)),
        _nested_left(1500),
        parse("+".join(["a"] * 3000)),
    ],
    ids=["chain3000", "nested1500", "sum3000"],
)
def test_json_dictionary_roundtrip_deep(e):
    # to_json_dict and from_json_dict both use an explicit stack
    assert from_json_dict(to_json_dict(e)) == e


def test_size_and_actions():
    assert size(parse("a")) == 1
    assert size(parse("a.b+0")) == 5
    assert size(parse("(a*b)*c")) == 5
    assert actions_of(parse("a.(b+a)*c")) == {"a", "b", "c"}
    assert actions_of(Zero()) == set()


def test_size_and_actions_on_shared_subterms():
    # 2**201 leaves in the tree and 201 distinct operator nodes; only
    # numbers and sets are asserted, since printing e would never end
    e = Seq(A, B)
    for i in range(200):
        e = Plus(e, e) if i % 2 else Star(e, e)
    nodes, names = size(e), actions_of(e)
    assert nodes == 2**202 - 1
    assert names == {"a", "b"}
    deep = A
    for _ in range(5000):
        deep = Seq(B, deep)
    nodes, names = size(deep), actions_of(deep)
    assert nodes == 10001
    assert names == {"a", "b"}


def _operator_nodes(e, known=()):
    """The distinct operator nodes under ``e``, by id, by recursion, with
    no node whose id is in ``known`` entered."""
    if isinstance(e, (Action, Zero)) or id(e) in known:
        return {}
    return {id(e): e, **_operator_nodes(e.left, known), **_operator_nodes(e.right, known)}


def test_postorder_yields_each_operator_node_once_after_its_operands():
    rng = random.Random(23)
    for _ in range(200):
        parts = [random_expression(rng, rng.randint(1, 10)) for _ in range(3)]
        # shared subterms, and roots that share them
        roots = [Plus(parts[0], Seq(parts[1], parts[0])), Star(parts[1], parts[2]), parts[2]]
        for known in ((), {id(roots[0].right)}, {id(parts[1])}):
            order = [id(x) for x in _postorder(roots, known)]
            nodes = {}
            for r in roots:
                nodes.update(_operator_nodes(r, known))
            assert sorted(order) == sorted(nodes)
            place = {i: n for n, i in enumerate(order)}
            for i, x in nodes.items():
                for y in (x.left, x.right):
                    assert id(y) not in nodes or place[id(y)] < place[i]


@pytest.mark.parametrize(
    "text,nodes",
    [
        (".".join(["a"] * 2000), 1999),
        ("+".join(["a"] * 3000), 2999),
        ("(" * 1500 + "a" + ")*b" * 1500, 1500),
    ],
    ids=["seq2000", "sum3000", "star1500"],
)
def test_postorder_does_not_recurse(text, nodes):
    e = parse(text)
    assert sys.getrecursionlimit() <= 1000
    order = list(_postorder([e]))
    assert len(order) == nodes
    assert order[-1] is e


def _tree_size(e):
    return 1 if isinstance(e, (Action, Zero)) else 1 + _tree_size(e.left) + _tree_size(e.right)


def _json_tree(e):
    if isinstance(e, Action):
        return {"op": "action", "name": e.name}
    if isinstance(e, Zero):
        return {"op": "zero"}
    op = {Plus: "plus", Seq: "seq", Star: "star"}[type(e)]
    return {"op": op, "left": _json_tree(e.left), "right": _json_tree(e.right)}


def test_iterative_measures_and_json_match_the_recursive_definitions():
    # the JSON text is json.dumps(indent=2) of the recursively built tree
    rng = random.Random(61)
    for _ in range(300):
        e = random_expression(rng, rng.randint(1, 60))
        assert size(e) == _tree_size(e)
        assert to_json_dict(e) == _json_tree(e)
        assert to_json(e) == json.dumps({"v": 1, "expression": _json_tree(e)}, indent=2)


def test_action_name_validation():
    with pytest.raises(ValueError):
        Action("A")
    with pytest.raises(ValueError):
        Action("")
    with pytest.raises(ValueError):
        Action("1a")
    with pytest.raises(ValueError):
        Action("a b")


_ACTION_NAME = re.compile(r"[a-z][a-z0-9_]*")


def _assert_action_name_as_the_pattern(name):
    # the character test that replaced the compiled pattern accepts exactly
    # what the pattern matches in full, with the same error message
    assert _is_action(name) is (_ACTION_NAME.fullmatch(name) is not None)
    if _is_action(name):
        assert Action(name).name == name
    else:
        with pytest.raises(ValueError, match="invalid action name"):
            Action(name)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet="abz019_AZ\n .-\u00e9\u0663\uff41", max_size=6)))
def test_action_names_are_tested_as_the_pattern_matches(name):
    _assert_action_name_as_the_pattern(name)


@pytest.mark.parametrize(
    "name",
    ["a", "z", "a_", "ab1_x", "z9_", "", "_a", "9", "A", "a\n", "\na", "a-b", "\u00e9", "a\u0663", "\uff41"],
)
def test_action_name_edge_cases_as_the_pattern(name):
    _assert_action_name_as_the_pattern(name)


@pytest.mark.parametrize("cls", [Plus, Seq, Star])
@pytest.mark.parametrize("left, right", [("a", B), (A, "b"), (A, None), (1, 2)])
def test_binary_constructors_reject_non_expression_operands(cls, left, right):
    with pytest.raises(TypeError, match="operands of %s must be expressions" % cls.__name__):
        cls(left, right)


def test_equal_expressions_have_equal_hashes():
    built = Star(Plus(Seq(A, B), C), Zero())
    parsed = parse("(a.b+c)*0")
    assert built is not parsed
    assert built == parsed
    assert hash(built) == hash(parsed)
    assert len({built, parsed, Star(Plus(Seq(A, B), C), Zero())}) == 1
    assert Plus(A, B) != Seq(A, B)
    assert Plus(A, B) != Plus(B, A)


@pytest.mark.parametrize(
    "text",
    [".".join(["a"] * 3000), "(" * 1500 + "a" + ".b)" * 1500],
    ids=["chain-3000", "nested-seq-1500"],
)
def test_deep_equality_does_not_recurse(text):
    e, f = parse(text), parse(text)
    assert e is not f
    assert e == f
    assert not e != f
    assert e != parse(text.replace("a", "c", 1))


def test_equality_of_shared_subterms_is_linear():
    # 24 levels, each the sum or star of the level below with itself: its
    # copy shares subterms as it does, and each pair of them is compared
    # once, not once per path to it (2^24 paths)
    def doubled(text):
        e = parse(text)
        for level in range(24):
            e = (Plus if level % 2 else Star)(e, e)
        return e

    e, other = doubled("a.b"), doubled("a.c")
    f = copy.deepcopy(e)
    assert f is not e and f.left is f.right
    start = time.perf_counter()
    assert e == f and f == e
    assert e != other
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("e", [A, Zero(), parse("(a.b+c)*0")])
def test_expressions_are_immutable(e):
    field = "name" if isinstance(e, Action) else "left"
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(e, field, B)
    with pytest.raises(AttributeError):
        e.extra = 1


@pytest.mark.parametrize(
    "roundtrip",
    [copy.copy, copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_are_equal_with_equal_hash(roundtrip):
    e = parse("(a.b+c)*(0+a*b)")
    c = roundtrip(e)
    assert c == e
    assert hash(c) == hash(e)
    assert repr(c) == repr(e)


@pytest.mark.parametrize(
    "roundtrip",
    [copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))],
    ids=["deepcopy", "pickle"],
)
@pytest.mark.parametrize(
    "text",
    [".".join(["c"] * 4000), "(" * 1500 + "a" + ")*b" * 1500],
    ids=["chain4000", "stars1500"],
)
def test_deep_copies_do_not_recurse(roundtrip, text):
    # a node reduces to a flat postfix list, so copying a 4000-action chain
    # or 1500 nested stars stays within the default recursion limit
    e = parse(text)
    assert sys.getrecursionlimit() <= 1000
    c = roundtrip(e)
    assert c == e and hash(c) == hash(e)
    assert size(c) == size(e)


def test_copies_keep_shared_subterms_shared():
    # the postfix list holds each distinct subterm once
    ab = parse("a.b")
    e = Plus(ab, Star(ab, ab))
    for c in (copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert c == e
        assert c.left is c.right.left is c.right.right


def test_unpickled_expression_hashes_like_a_fresh_one():
    # a pickle from a process with another hash seed must not carry that
    # process's cached hash
    text = "(a.b+c)*(0+a*b)"
    data = pickle.dumps(parse(text))
    hash_seed = 2 if os.environ.get("PYTHONHASHSEED") == "1" else 1
    script = (
        "import pickle, sys\n"
        "from lleekit.expr import parse\n"
        "e = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = parse(%r)\n"
        "assert e == fresh and hash(e) == hash(fresh) and e in {fresh}\n" % text
    )
    proc = run_python(["-c", script], hash_seed, input=data)
    assert proc.returncode == 0, proc.stderr.decode()


def _assert_same_tree(built, public):
    """``built`` and ``public`` are equal trees with equal hashes, and so is
    a pickle round trip of ``built``."""
    assert built == public and public == built
    assert hash(built) == hash(public)
    copied = pickle.loads(pickle.dumps(built))
    assert copied == public and hash(copied) == hash(public)


def test_parse_and_extraction_build_nodes_as_the_constructors():
    # parse and solution extraction build operator nodes with expr._node,
    # past the constructors: the trees are the ones the public constructors
    # build (from_json_dict calls them), with the same hashes, and pickle
    rng = random.Random(61)
    for _ in range(300):
        t = random_expression(rng, rng.randint(1, 40))
        e = parse(unparse(t))
        _assert_same_tree(e, t)
        _assert_same_tree(e, from_json_dict(to_json_dict(e)))
        sol = equiv(e, Plus(t, t)).certificate.solution
        for x in sol.assign.values():
            _assert_same_tree(x, from_json_dict(to_json_dict(x)))
    chain = ".".join(["c"] * 3999)
    for text in (chain + ".x", "(%s.x)*0" % chain, "%s.x+b" % chain):
        e = parse(text)
        _assert_same_tree(e, from_json_dict(to_json_dict(e)))
        sol = equiv(e, parse(text + "+0")).certificate.solution
        x = sol.initial_expression()
        _assert_same_tree(x, from_json_dict(to_json_dict(x)))
