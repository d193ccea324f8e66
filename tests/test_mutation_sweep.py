"""The mutation sweep's text mutants, on canned source."""

import ast

import pytest

from mutation_sweep import mutate, sites

SOURCE = b'''"""A canned module."""

TOL = 1e-8  # read at import


def f(x, y=0):
    z = (x + y) * 2.0  # a comment with + and *
    w = (x  # - not this one
         * y)
    z -= -x / 3
    return z if z else 0.0
'''


def changed_nodes(before: ast.AST, after: ast.AST) -> list:
    """The nodes of ``before`` whose type or own fields, the ones that
    hold no node, differ in ``after``, a tree of the same shape."""
    own = lambda node: [(k, v) for k, v in ast.iter_fields(node) if not isinstance(v, (ast.AST, list))]
    return [a for a, b in zip(ast.walk(before), ast.walk(after)) if type(a) is not type(b) or own(a) != own(b)]


def test_every_operator_site_is_found_once():
    got = sorted((m.line, m.operator, m.text) for m in sites("canned", SOURCE))
    assert got == [
        (3, "number", b"1.0100000000000001e-08"),
        (6, "number", b"1"),
        (7, "*->/", b"/"),
        (7, "+->-", b"-"),
        (7, "number", b"2.02"),
        (8, "*->/", b"/"),
        (10, "-->+", b"+"),
        (10, "/->*", b"*"),
        (10, "drop-minus", b""),
        (10, "number", b"4"),
        (11, "number", b"1.0"),
    ]


@pytest.mark.parametrize("m", sites("canned", SOURCE), ids=lambda m: f"{m.line}:{m.col}:{m.operator}")
def test_a_mutant_changes_its_token_alone(m):
    mutant = mutate(SOURCE, m)
    # the bytes around the token are the source's
    assert mutant[: m.start] == SOURCE[: m.start]
    assert mutant[m.start + len(m.text) :] == SOURCE[m.end :]
    token = SOURCE[m.start : m.end]
    assert token == {"number": token, "drop-minus": b"-"}.get(m.operator, m.operator[0].encode())
    before, after = ast.parse(SOURCE), ast.parse(mutant)
    node = list(ast.walk(before))[m.node]
    if m.operator == "drop-minus":
        # the unary minus is gone, its operand in its place
        assert isinstance(node, ast.UnaryOp)
        assert ast.dump(after).count("USub") == ast.dump(before).count("USub") - 1
        assert ast.get_source_segment(mutant.decode(), list(ast.walk(after))[m.node]) == "x"
    elif m.operator == "number":
        assert changed_nodes(before, after) == [node]
    else:
        assert changed_nodes(before, after) == [node.op]


def test_zero_gets_one_and_only_the_body_runs_outside_import():
    by_line = {(m.line, m.operator): m for m in sites("canned", SOURCE)}
    assert by_line[6, "number"].text == b"1"  # the default y = 0
    assert by_line[11, "number"].text == b"1.0"  # the 0.0 of the return
    at_import = sorted(m.line for m in by_line.values() if m.at_import)
    assert at_import == [3, 6]  # the constant and the default, not the body


def test_unparse_would_lose_the_anchor_a_text_mutant_keeps():
    # planted defects match the shipped text, e.g. "1e-8" and the
    # parenthesized product; ast.unparse rewrites both
    for anchor in (b"TOL = 1e-8", b"(x  # - not this one\n         * y)"):
        assert SOURCE.count(anchor) == 1
        assert ast.unparse(ast.parse(SOURCE)).encode().count(anchor) == 0
        kept = [m for m in sites("canned", SOURCE) if SOURCE.find(anchor) > m.end or m.start > SOURCE.find(anchor) + len(anchor)]
        assert kept and all(mutate(SOURCE, m).count(anchor) == 1 for m in kept)
