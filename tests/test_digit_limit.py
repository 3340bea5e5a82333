"""Integers past gnum.MAX_DIGITS decimal digits, and progressions that skip
more elements than a C size can hold, end in a typed RepresentationLimit on
every Python version, never in the interpreter's int/str ValueError.  An
error whose message names such a number keeps its own kind."""

import json

import pytest

from grosscalc import cli, errors, gclang, gnum


def _run(line, capsys, point=None):
    code = cli.run_line(line, gclang.default_env(), json_mode=True, point=point)
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(
    "line",
    [
        "2^20000",
        "2^14300",
        "1" * 5000,
        "subst(10^G, 5000)",
        "G + 2^20000",
        "{2^20000}",
        "crit(2, G) + 2^20000",
        "ap(1, 2^20000)",
        "members(ap(1,2), 2^20000)",
        "ap(2^100, 2)",
        "card(ap(2^100, 1))",
    ],
)
def test_oversized_integers_are_refused_typed(line, capsys):
    code, out = _run(line, capsys)
    assert code == cli.EXIT_EVAL
    assert out["error"]["kind"] == "RepresentationLimit"


def test_oracle_line_refuses_an_oversized_substitution(capsys):
    _, out = _run("10^G", capsys, point=100000)
    assert out["value"] == "10^G"
    assert out["oracle"].startswith("unavailable (RepresentationLimit: ")


def test_largest_power_below_the_limit_still_renders(capsys):
    code, out = _run("2^14000", capsys)
    assert code == cli.EXIT_OK
    assert len(out["value"]) == 4215
    assert gclang.eval_text(out["value"]) == gclang.eval_text("2^14000")


def test_the_bound_is_ten_to_the_max_digits():
    assert gnum.check_digits(10 ** gnum.MAX_DIGITS - 1) == 10 ** gnum.MAX_DIGITS - 1
    assert gnum.check_digits(-(10 ** gnum.MAX_DIGITS - 1)) < 0
    for n in (10 ** gnum.MAX_DIGITS, -(10 ** gnum.MAX_DIGITS)):
        with pytest.raises(errors.RepresentationLimit):
            gnum.check_digits(n)


def test_far_start_counts_its_skipped_elements():
    with pytest.raises(errors.RepresentationLimit) as info:
        gclang.eval_text("ap(2^62, 3)")
    assert ": 1537228672809129301 past MAX_ITEMS = 1000000" in str(info.value)
    assert gclang.render_value(gclang.eval_text("ap(7, 3)")) == "ap(1, 3) \\ {1, 4}"


_LONG = "<a count with a number past 4300 digits>"


@pytest.mark.parametrize(
    "line, kind, detail",
    [
        (
            "10^5000 * numerals(10, crit(10, G)) < 10^5000 * G / 2",
            "Undetermined",
            f"{_LONG} vs {_LONG} is not resolvable from the sandwich",
        ),
        # 4^G = 2^(2G), so the comparison is 2^(10^5000) against 1
        ("2^(2*G + 10^5000) < 4^G", "ExponentTooLarge",
         "bit bound of a cross-power comparison at exponent <16610-bit integer>: "
         "<16611-bit integer> past MAX_POWER_BITS = 1000000"),
        ("(G + 10^5000)^G", "UnsupportedPower",
         f"{_LONG} only takes finite non-negative integer powers"),
        ("observe(piraha, -10^5000)", "NegativeCount", f"{_LONG} is not a count"),
        ("crit(10, 10^5000)", "NotInfinite",
         f"critical lengths need an infinite target, got {_LONG}"),
        ("numerals(10, -10^5000)", "EvalError", f"digit count must be positive, got {_LONG}"),
        (
            "subst(2^(10^5000*G + 1/2), 2)",
            "NonIntegerExponent",
            f"exponent of {_LONG} substitutes to non-integer <16612-bit integer>/2",
        ),
        (
            "subst(2^(G^2 - 10^5000*G), 2)",
            "NegativeExponent",
            f"exponent of {_LONG} substitutes to negative -<16611-bit integer>",
        ),
        (
            "subst(G^(10^5000 + 1/2), 2)",
            "NonIntegerExponent",
            f"exponent {_LONG} substitutes to <16611-bit integer>/2",
        ),
        ("numerals(10, 2^(G + 10^5000))", "EvalError",
         f"digit count must be a gross-number, got {_LONG}"),
        ("numerals(10, 2^G)", "EvalError", "digit count must be a gross-number, got 2^G"),
        ("crit(10, 2^(G + 10^5000))", "EvalError",
         f"critical lengths need a polynomial target count, got {_LONG}"),
        (
            "subst(crit(10, G - 10^4400), 2)",
            "CritRefNotSubstitutable",
            f"target of {_LONG} substitutes to -<14617-bit integer>, not a positive integer",
        ),
        ("subst(crit(10, G - 10), 2)", "CritRefNotSubstitutable",
         "target of crit(10, G - 10) substitutes to -8, not a positive integer"),
    ],
)
def test_messages_name_long_operands_without_their_digits(line, kind, detail, capsys):
    code, out = _run(line, capsys)
    assert code == cli.EXIT_EVAL
    assert out == {"error": {"kind": kind, "detail": detail}}


def test_operands_in_range_are_written_out(capsys):
    _, out = _run("2*numerals(10, crit(10, G)) < G", capsys)
    assert out["error"]["detail"] == (
        "2*10^crit(10, G) vs G is not resolvable from the sandwich"
    )
