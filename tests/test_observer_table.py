"""What each counting system says, pinned through the language: the token
at every band edge and at four infinite counts, every ForeignToken message,
and the names the default environment binds to the observer's objects."""

import pytest

from grosscalc import errors, gclang, gnum, observer

COUNTS = ("2", "3", "5", "6", "100", "101", "G", "G^2", "numerals(10, crit(10, G))", "10^(2*G)")

TABLE = {
    "piraha": ("2", "many", "many", "many", "many", "many", "many", "many", "many", "many"),
    "munduruku": (
        "2", "3", "5", "some_not_many", "some_not_many", "many_really_many",
        "many_really_many", "many_really_many", "many_really_many", "many_really_many",
    ),
    "calculus": ("2", "3", "5", "6", "100", "101", "inf", "inf", "inf", "inf"),
    "cantor": ("2", "3", "5", "6", "100", "101", "aleph0", "aleph0", "aleph0", "C"),
    "grossone": ("2", "3", "5", "6", "100", "101", "G", "G^2", "10^crit(10, G)", "10^(2*G)"),
}


@pytest.mark.parametrize("system", sorted(TABLE))
def test_tokens_at_band_edges_and_infinite_counts(system):
    got = tuple(
        gclang.render_value(gclang.eval_text(f"observe({system}, {count})")) for count in COUNTS
    )
    assert got == TABLE[system]


FOREIGN = [
    ("wadd(piraha, 3, 1)", "3 is beyond the exact numerals 1, 2"),
    ("wadd(piraha, G, 1)", "G is beyond the exact numerals 1, 2"),
    ("wadd(piraha, aleph0, 1)", "aleph0 is not a numeral of piraha"),
    ("wadd(munduruku, 6, 1)", "6 is beyond the exact numerals 1..5"),
    ("wadd(munduruku, G, 1)", "G is beyond the exact numerals 1..5"),
    ("wadd(munduruku, many, 1)", "many is not a numeral of munduruku"),
    ("wadd(calculus, G, 1)", "G has no exact numeral in calculus"),
    ("wadd(calculus, aleph0, 1)", "aleph0 is not a numeral of calculus"),
    ("wadd(cantor, G, 1)", "G has no exact numeral in cantor"),
    ("wadd(cantor, inf, 1)", "inf is not a numeral of cantor"),
    ("wadd(grossone, many, 1)", "many is not a numeral of grossone"),
    ("wadd(grossone, C, 1)", "C is not a numeral of grossone"),
]


@pytest.mark.parametrize("line, message", FOREIGN)
def test_foreign_token_messages(line, message):
    with pytest.raises(errors.ForeignToken) as info:
        gclang.eval_text(line)
    assert str(info.value) == message


def test_default_env_binds_the_observer_objects():
    env = gclang.default_env()
    assert sorted(env) == sorted([
        "G", "N", "Z", "true", "false",
        "piraha", "munduruku", "calculus", "cantor", "grossone",
        "many", "some_not_many", "many_really_many", "inf", "aleph0", "C",
    ])
    assert env["G"] is gnum.G
    assert env["piraha"] is observer.PIRAHA
    assert env["munduruku"] is observer.MUNDURUKU
    assert env["calculus"] is observer.CALCULUS_INFINITY
    assert env["cantor"] is observer.CANTOR
    assert env["grossone"] is observer.GROSSONE_SYSTEM
    assert env["many"] is observer.MANY
    assert env["some_not_many"] is observer.SOME_NOT_MANY
    assert env["many_really_many"] is observer.MANY_REALLY_MANY
    assert env["inf"] is observer.INFINITY
    assert env["aleph0"] is observer.ALEPH0
    assert env["C"] is observer.CONTINUUM
