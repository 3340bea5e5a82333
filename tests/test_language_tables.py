"""The expression language's tables and its last-resort boundary.

Operator precedence is one binding-power table, value kinds are one table
of (classes, type tag, renderer) rows, calls are one table of (library
call, argument checks) rows, and each set operator is named once, by its
symbol.  These tests pin what the tables decide: the grouping of every
ordered pair of binary operators, one rendering and tag per value kind,
the nesting cap, and the README's list of calls.  The generated inputs at
the end, deep, long, huge or typed by the call table, must each end in
exactly one JSON object from ``cli.run_line``.
"""
import contextlib
import io
import itertools
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from grosscalc import cli, errors, gclang
from grosscalc.gclang import Bin, Lit, Name, Unary, eval_text, parse, render_value, type_tag
from grosscalc.setmeasure import CombineE, ProgressionE, SetOp

A, B, C = Name("a"), Name("b"), Name("c")

# the precedence the language documents, loosest first, written out again
# here so that the parser's table is checked against an independent copy
_POWER = {"|": 1, "\\": 1, "&": 2, "+": 3, "-": 3, "*": 4, "/": 4}


class TestBindingPower:
    @pytest.mark.parametrize("first", list(_POWER))
    @pytest.mark.parametrize("second", list(_POWER))
    def test_every_ordered_pair(self, first, second):
        if _POWER[second] > _POWER[first]:
            expected = Bin(first, A, Bin(second, B, C))
        else:
            expected = Bin(second, Bin(first, A, B), C)
        assert parse(f"a {first} b {second} c") == expected

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("a ^ b ^ c", Bin("^", A, Bin("^", B, C))),
            ("a * b ^ c", Bin("*", A, Bin("^", B, C))),
            ("a ^ b * c", Bin("*", Bin("^", A, B), C)),
            ("-a ^ b", Unary("-", Bin("^", A, B))),
            ("-a ^ b * c", Bin("*", Unary("-", Bin("^", A, B)), C)),
            ("a ^ -b ^ c", Bin("^", A, Unary("-", Bin("^", B, C)))),
            ("a - -b", Bin("-", A, Unary("-", B))),
            ("~a | b", Bin("|", Unary("~", A), B)),
            ("a \\ ~b & c", Bin("\\", A, Bin("&", Unary("~", B), C))),
            ("~a ^ b & c", Bin("&", Unary("~", Bin("^", A, B)), C)),
            ("a | b & c + d * e", Bin("|", A, Bin("&", B, Bin("+", C, Bin("*", Name("d"), Name("e")))))),
            ("a * b + c & d | e", Bin("|", Bin("&", Bin("+", Bin("*", A, B), C), Name("d")), Name("e"))),
            ("1 - 2 - 3", Bin("-", Bin("-", Lit(1), Lit(2)), Lit(3))),
        ],
    )
    def test_mixes_with_power_and_unary(self, text, expected):
        assert parse(text) == expected


class TestValueKinds:
    @pytest.mark.parametrize(
        "text, rendered, tag",
        [
            ("true", "true", "bool"),
            ("G + 1", "G + 1", "count"),
            ("2^G", "2^G", "count"),
            ("crit(10,G)+1", "(crit(10, G) + 1)", "critical_length"),
            ("ap(2, 3)", "ap(2, 3)", "set"),
            ("{0, -1, 2}", "mirror({1}) | {0} | {2}", "signed_set"),
            ("num(10, G)", "0.000…000 [10^G positions: G]", "numeral"),
            (
                "critical(10, G)",
                "10^crit(10, G) <= G < 10^(crit(10, G) + 1) "
                "with k1 = crit(10, G), k2 = (crit(10, G) + 1)",
                "critical_pair",
            ),
            ("observe(piraha, 7)", "many", "observation"),
            ("many", "many", "token"),
            ("wadd(piraha, 1, 1)", "2", "token"),
            ("piraha", "piraha", "system"),
            ("members(ap(3, 4), 3)", "[3, 7, 11]", "sequence"),
            ("first(2, 3, 2)", "[0.000 [8 positions: 3], 0.001 [8 positions: 3]]", "sequence"),
        ],
    )
    def test_each_kind(self, text, rendered, tag):
        value = eval_text(text)
        assert (render_value(value), type_tag(value)) == (rendered, tag)

    def test_bool_is_not_an_int_and_int_is_its_own_kind(self):
        assert (render_value(False), type_tag(False)) == ("false", "bool")
        assert (render_value(5), type_tag(5)) == ("5", "int")

    def test_unknown_values_fall_back_to_the_class_name_and_repr(self):
        assert (render_value(None), type_tag(None)) == ("None", "NoneType")
        assert (render_value(2.5), type_tag(2.5)) == ("2.5", "float")


class TestSetOperatorSymbols:
    def test_each_operator_is_valued_by_its_symbol(self):
        assert [op.value for op in SetOp] == ["|", "&", "\\"]

    def test_trees_render_and_test_membership_by_the_same_operator(self):
        left, right = ProgressionE(1, 2), ProgressionE(1, 3)
        for op, members in (("|", {1, 3, 4, 5}), ("&", {1}), ("\\", {3, 5})):
            tree = CombineE(SetOp(op), left, right)
            assert tree.to_text() == f"(ap(1, 2) {op} ap(1, 3))"
            assert {x for x in range(1, 6) if tree.contains(x)} == members
            assert eval_text(f"ap(1,2) {op} ap(1,3)").expr == tree


def _nested(opener, closer, depth, core="1"):
    return opener * depth + core + closer * depth


_SHAPES = [("(", ")"), ("-", ""), ("~", ""), ("2^", ""), ("{", "}"), ("card(", ")"), ("1|1&1+1*(", ")")]


class TestNestingCap:
    @pytest.mark.parametrize("opener, closer", _SHAPES)
    def test_one_hundred_levels_parse(self, opener, closer):
        parse(_nested(opener, closer, 100))

    @pytest.mark.parametrize("opener, closer", _SHAPES)
    def test_one_hundred_and_one_levels_are_refused(self, opener, closer):
        with pytest.raises(errors.ParseError, match="nesting deeper than 100 levels"):
            parse(_nested(opener, closer, 101))

    def test_values_at_the_cap(self):
        assert render_value(eval_text(_nested("(", ")", 100))) == "1"
        assert render_value(eval_text(_nested("-", "", 100))) == "1"
        assert render_value(eval_text(_nested("~", "", 99, "ap(2, 2)"))) == "ap(1, 2)"

    def test_left_spine_chains_stay_level(self):
        assert eval_text(" - ".join(["1000"] + ["1"] * 1500)) == eval_text("-500")
        assert render_value(eval_text(" | ".join(["N"] * 3000))) == "N"

    def test_the_cap_is_a_syntax_error_on_the_command_line(self):
        code, out = _run(_nested("(", ")", 3000), point=22000)
        assert code == cli.EXIT_SYNTAX
        assert out["error"]["kind"] == "ParseError"


def _run(line, point=None, env=None):
    """run_line in JSON mode; (exit code, the one JSON object printed)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run_line(line, gclang.default_env() if env is None else env, True, point)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 1, lines
    return code, json.loads(lines[0])


class TestBoundary:
    def test_an_escaping_exception_is_an_internal_error(self, monkeypatch, capsys):
        def broken(value):
            raise RuntimeError("renderer broke")

        monkeypatch.setattr(gclang, "render_value", broken)
        code, out = _run("1")
        assert code == cli.EXIT_EVAL
        assert out == {"error": {"kind": "InternalError", "detail": "RuntimeError: renderer broke"}}
        assert cli.run_line("1", gclang.default_env(), False, None) == cli.EXIT_EVAL
        assert capsys.readouterr().err == "error[InternalError]: RuntimeError: renderer broke\n"

    def test_a_long_union_under_the_oracle(self):
        _one_json_object(" | ".join(f"ap({i}, 2000)" for i in range(1, 1201)), 22000)

    def test_typed_errors_keep_their_kind(self):
        assert _run("G/0") == (cli.EXIT_EVAL, {"error": {"kind": "DivisionByZero", "detail": "division by zero"}})

    def test_the_oracle_reads_names_as_the_statement_saw_them(self):
        env = gclang.default_env()
        _run("let A = ap(1,2)", env=env)
        code, out = _run("let A = card(A)", point=6, env=env)
        assert code == cli.EXIT_OK
        assert out["value"] == "G/2"
        assert out["oracle"] == "ap(1, 2) at L=6: symbolic 3 vs brute 3 [ok]"
        assert render_value(env["A"]) == "G/2"

    def test_the_oracle_leaves_the_session_alone(self):
        env = gclang.default_env()
        _run("let A = ap(1,2)", point=6, env=env)
        assert render_value(env["A"]) == "ap(1, 2)"


# generated inputs that are deep, long or huge; each must end in exactly one
# JSON object, a value or an error, with exit code 0, 1 or 2

_POINTS = st.sampled_from([None, 22000])


def _one_json_object(line, point):
    code, out = _run(line, point)
    assert code in (cli.EXIT_OK, cli.EXIT_EVAL, cli.EXIT_SYNTAX)
    assert ("value" in out) != ("error" in out)


_SLOW = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@_SLOW
@given(st.lists(st.sampled_from(_SHAPES), min_size=1, max_size=160),
       st.sampled_from(["1", "G", "ap(1, 2)", "N", "{3}"]), _POINTS)
def test_deep_nesting(shapes, core, point):
    line = "".join(o for o, _ in shapes) + core + "".join(c for _, c in reversed(shapes))
    _one_json_object(line, point)


@_SLOW
@given(st.integers(4000, 6000), st.sampled_from(["{}", "{} + G", "ap({}, 2)", "card({{{}}})"]), _POINTS)
def test_huge_literals(digits, template, point):
    _one_json_object(template.format("7" * digits), point)


@_SLOW
@given(st.integers(2, 1000), st.integers(1000, 100000),
       st.sampled_from(["{}^{}", "G^{}", "subst({}^G, {})", "{}^G + {}"]), _POINTS)
def test_large_powers(base, exponent, template, point):
    _one_json_object(template.format(base, exponent), point)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 1300), st.integers(1000, 3000), st.sampled_from(["|", "&", "\\"]), _POINTS)
def test_long_set_chains(pieces, step, op, point):
    _one_json_object(f" {op} ".join(f"ap({i}, {step})" for i in range(1, pieces + 1)), point)


# the call table: one row per call, the library call and then one (check,
# what, minimum) triple per argument

def _readme_calls():
    """{name: arity} of every call the README's "Calls" table documents."""
    with open(Path(__file__).resolve().parents[1] / "README.md", encoding="utf-8") as fh:
        text = fh.read()
    table = text.split("Calls:\n\n", 1)[1].split("\n\n", 1)[0]
    calls = {}
    for row in table.splitlines()[2:]:
        for name, args in re.findall(r"`(\w+)\(([^)]*)\)", row.split("|")[1]):
            calls[name] = len(args.split(","))
    return calls


def test_the_readme_documents_every_call_with_its_arity():
    assert _readme_calls() == {name: len(row) - 1 for name, row in gclang._CALLS.items()}


# value texts over every kind, with values just past each size cap; a text
# whose evaluation is refused, such as 2^(10^6 + 1), is never drawn
_PROBE_POOL = (
    "0", "1", "2", "3", "7", "10", "-1", "1/2", "10^4300", "10^6 + 1", "2^(10^6 + 1)",
    "G", "G - 1", "G/2", "3*G^2 - G/2 + 7", "2^G", "10^(G + 1)", "numerals(10, crit(10, G))",
    "crit(10, G)", "crit(2, G^2) - 3", "N", "Z", "ap(2, 3)", "ap(10^6, 3)", "{1, 2}",
    "{0, -1}", "~ap(1, 2)", "mirror(ap(1, 3))", "num(10, G)", 'num(10, 3){head: "12"}',
    'num(2, 10^6 + 1){head: "1"}', 'num(10, 2*G){sign: "-"}', "critical(10, G)",
    "observe(piraha, 7)", "observe(grossone, G)", "many", "wadd(piraha, 1, 1)", "piraha",
    "munduruku", "grossone", "true", "false", "first(10, 2, 3)", "members(ap(1, 2), 3)",
    "2^(10^4300*G + 1/2)",
)
# a call with more argument combinations than this is sampled, not swept
_PROBE_LIMIT = 120


def _probe_values():
    env = gclang.default_env()
    values = {}
    for text in _PROBE_POOL:
        try:
            values[text] = eval_text(text, env)
        except errors.GrossError:
            pass
    return values


def _passes(triple, value):
    check, what, minimum = triple
    try:
        check(value, what, minimum)
    except errors.GrossError:
        return False
    return True


def _probe_inputs(seed=2026):
    """Calls whose arguments are drawn from the pool texts each argument's
    check accepts, so most reach the library call instead of a type error."""
    values = _probe_values()
    rng = random.Random(seed)
    inputs = []
    for name, (_, *triples) in gclang._CALLS.items():
        choices = [[t for t, v in values.items() if _passes(triple, v)] for triple in triples]
        assert all(choices), name
        combos = list(itertools.product(*choices))
        if len(combos) > _PROBE_LIMIT:
            combos = rng.sample(combos, _PROBE_LIMIT)
        inputs += [f"{name}({', '.join(args)})" for args in combos]
    return inputs


def test_the_probe_pool_covers_every_value_kind():
    values = _probe_values().values()
    members = [x for v in values if isinstance(v, tuple) for x in v]
    tags = {type_tag(v) for v in values} | {type_tag(x) for x in members}
    assert tags == {tag for _, tag, _ in gclang._KINDS}


@pytest.mark.parametrize("point", [None, 12])
def test_typed_probe_of_every_call(point):
    env = gclang.default_env()
    kinds = []
    for line in _probe_inputs():
        code, out = _run(line, point, env)
        assert code in (cli.EXIT_OK, cli.EXIT_EVAL), line
        kinds.append(out["error"]["kind"] if "error" in out else "value")
        assert kinds[-1] != "InternalError", (line, out)
    assert kinds.count("value") > len(kinds) / 3
