"""The oracle checks the value it printed, once.

Under ``--oracle`` a set result, or the set a ``card`` result counted, is
checked as printed: the residue record the value holds against the
expression tree it holds.  Nothing is evaluated or built a second time, so
a statement does the same evaluation work with the oracle as without it.
Also pinned here: signed trees carry no ``{}`` operands, and messages that
name an integer too long for str() still end in a typed error.
"""
import json
from fractions import Fraction

import pytest

from grosscalc import cli, gclang, gnum, setmeasure
from grosscalc.setmeasure import EMPTY_E, CombineE, ProgressionE, SetOp


def _run(lines, capsys, point):
    """Run lines in one session; the JSON object each printed."""
    env = gclang.default_env()
    for line in lines:
        cli.run_line(line, env, True, point)
    return [json.loads(text) for text in capsys.readouterr().out.splitlines()]


def _count_calls(monkeypatch):
    """Count calls of evaluate, combine and every tree's build."""
    counts = {"evaluate": 0, "combine": 0, "build": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(gclang, "evaluate", counting("evaluate", gclang.evaluate))
    monkeypatch.setattr(setmeasure, "combine", counting("combine", setmeasure.combine))
    for cls in vars(setmeasure).values():
        if isinstance(cls, type) and "build" in vars(cls):
            monkeypatch.setattr(cls, "build", counting("build", cls.build))
    return counts


class TestOneEvaluation:
    @pytest.mark.parametrize("point", [None, 660])
    def test_card_costs_the_same_with_and_without_the_oracle(self, point, monkeypatch, capsys):
        counts = _count_calls(monkeypatch)
        (out,) = _run(["card(ap(2,2) & ap(1,3))"], capsys, point)
        assert counts == {"evaluate": 8, "combine": 1, "build": 0}
        if point is not None:
            assert out["oracle"] == (
                "(ap(2, 2) & ap(1, 3)) at L=660: symbolic 110 vs brute 110 [ok]"
            )

    def test_a_let_chain_builds_nothing(self, monkeypatch, capsys):
        counts = _count_calls(monkeypatch)
        lines = ["let A = N"] + [f"let A = A \\ ap({i}, 60)" for i in range(1, 31)]
        outs = _run(lines + ["card(A)"], capsys, 600)
        assert counts["build"] == 0
        assert counts["combine"] == 30
        assert all(out["oracle"].endswith("[ok]") for out in outs)
        assert outs[-1]["oracle"].endswith("symbolic 300 vs brute 300 [ok]")


class TestCountOfASet:
    def test_a_name_bound_to_a_count_checks_its_set(self, capsys):
        outs = _run(["let K = card(ap(2,2))", "K", "let D = K", "D"], capsys, 12)
        for out in outs:
            assert out["value"] == "G/2"
            assert out["oracle"] == "ap(2, 2) at L=12: symbolic 6 vs brute 6 [ok]"

    def test_arithmetic_on_a_count_is_substituted(self, capsys):
        outs = _run(["card(ap(2,2)) + 1", "card(ap(2,2)) + 0", "-(-card(ap(2,2)))"], capsys, 12)
        assert [out["oracle"] for out in outs] == [
            "subst(G := 12) = 7",
            "subst(G := 12) = 6",
            "subst(G := 12) = 6",
        ]

    def test_a_let_that_rebinds_its_set_still_counts_the_set(self, capsys):
        outs = _run(["let A = ap(1,2)", "let A = card(A)", "A"], capsys, 12)
        assert outs[1]["oracle"] == outs[2]["oracle"] == (
            "ap(1, 2) at L=12: symbolic 6 vs brute 6 [ok]"
        )

    def test_a_set_count_is_its_count(self):
        s = gclang.eval_text("ap(2,2) & ap(1,3)")
        value = gclang.eval_text("card(ap(2,2) & ap(1,3))")
        plain = s.record.card()
        assert isinstance(value, gclang.SetCount)
        assert value.source is not None and value.source == s
        assert type(plain) is gnum.GrossPoly
        assert value == plain and plain == value
        assert hash(value) == hash(plain)
        assert gclang.render_value(value) == gclang.render_value(plain) == "G/6"
        assert gclang.type_tag(value) == gclang.type_tag(plain) == "count"
        assert {value: 1}[plain] == 1

    @pytest.mark.parametrize("text", ["card(N) + 0", "card(N) * 1", "card(N)^1", "card(N) / 1"])
    def test_arithmetic_yields_a_plain_count(self, text):
        assert type(gclang.eval_text(text)) is gnum.GrossPoly

    def test_a_signed_count_holds_its_signed_set(self):
        value = gclang.eval_text("card(mirror(ap(1,2)) | {0})")
        assert isinstance(value.source, gclang.SignedMeasured)
        assert gclang.render_value(value) == "G/2 + 1"


class TestSignedTrees:
    def test_no_empty_operands_in_the_oracle_line(self, capsys):
        (out,) = _run(["card(mirror(ap(1,2)) | {0})"], capsys, 12)
        assert out["oracle"] == "mirror(ap(1, 2)) | {0} at L=12: symbolic 7 vs brute 7 [ok]"

    @pytest.mark.parametrize(
        "op, left, right, expected",
        [
            (SetOp.UNION, "x", "{}", "x"),
            (SetOp.UNION, "{}", "x", "x"),
            (SetOp.INTERSECT, "x", "{}", "{}"),
            (SetOp.INTERSECT, "{}", "x", "{}"),
            (SetOp.DIFFERENCE, "x", "{}", "x"),
            (SetOp.DIFFERENCE, "{}", "x", "{}"),
            (SetOp.UNION, "{}", "{}", "{}"),
        ],
    )
    def test_join_drops_empty_operands(self, op, left, right, expected):
        x = ProgressionE(1, 2)
        parts = {"x": x, "{}": EMPTY_E}
        assert setmeasure._join_trees(op, parts[left], parts[right]) == parts[expected]

    def test_join_keeps_nonempty_operands(self):
        x, y = ProgressionE(1, 2), ProgressionE(2, 3)
        assert setmeasure._join_trees(SetOp.UNION, x, y) == CombineE(SetOp.UNION, x, y)

    def test_trees_of_naturals_keep_what_the_user_wrote(self, capsys):
        (out,) = _run(["ap(1,2) | {}"], capsys, 12)
        assert out["oracle"] == "(ap(1, 2) | {}) at L=12: symbolic 6 vs brute 6 [ok]"


class TestOversizedIntegersInMessages:
    @pytest.mark.parametrize(
        "line, kind",
        [
            ("num(10, 2^20000)", "ExponentTooLarge"),
            ("2^(2^20000)", "ExponentTooLarge"),
            ("first(10, 2^20000, 2)", "ExponentTooLarge"),
            ("succ(num(10, 2^20000))", "ExponentTooLarge"),
            ("(G+1)^(2^20000)", "ExponentTooLarge"),
            ("2^(G + 2^20000) / 2^G", "ExponentTooLarge"),
            ("card(ap(1, 10^4000+1) & ap(1, 10^4000+3))", "RepresentationLimit"),
            ("ap(1, 10^2200) & ap(2, 10^2200 + 1)", "RepresentationLimit"),
            ("subst(2^(G^2), 10^3000)", "ExponentTooLarge"),
        ],
    )
    def test_the_refusal_is_typed(self, line, kind, capsys):
        code = cli.run_line(line, gclang.default_env(), json_mode=True, point=None)
        assert code == cli.EXIT_EVAL
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == kind

    def test_a_long_integer_is_named_by_its_bit_length(self):
        assert gnum.number_text(2**20000) == "<20001-bit integer>"
        assert gnum.number_text(-(2**20000)) == "-<20001-bit integer>"

    @pytest.mark.parametrize("x", [0, 7, -7, 10**4299, Fraction(-3, 2), Fraction(5)])
    def test_an_in_range_number_reads_as_str(self, x):
        assert gnum.number_text(x) == str(x)

    def test_in_range_messages_are_unchanged(self, capsys):
        cli.run_line("2^(G + 1000000000) / 2^G", gclang.default_env(), True, None)
        detail = json.loads(capsys.readouterr().out)["error"]["detail"]
        assert detail == "bit bound of 2^1000000000: 2000000000 past MAX_POWER_BITS = 1000000"
