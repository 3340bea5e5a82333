"""One rule per count decision in gnum, checked against what it replaced.

* Leading exponent terms of two bases are ordered by ``_cmp_scaled_power``;
  the integer-power comparison it replaced is kept here as the reference.
* ExpCount equality and hash are the dataclass's, over its four fields.
* One base check serves CritRef, ExpCount and pow_count.
* One coefficient writer serves polynomial terms and exponential counts.
* One wholeness rule, ``gnum.is_whole``, serves observed counts and the
  targets of critical lengths.
"""
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grosscalc import errors, gclang, gnum
from grosscalc.gnum import (
    CritRef,
    ExpCount,
    G,
    ONE,
    ZERO,
    Ordering,
    compare,
    fin,
    gterm,
    pow_count,
    render_gross,
)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def reference_cmp_log_leading(c1: Fraction, b1: int, c2: Fraction, b2: int) -> int:
    """Sign of c1*ln(b1) - c2*ln(b2) for positive rationals via integer powers."""
    e1 = c1.numerator * c2.denominator
    e2 = c2.numerator * c1.denominator
    gnum.refuse(errors.ExponentTooLarge, max(e1, e2) * max(b1, b2).bit_length(), "MAX_POWER_BITS",
                "bit bound of a cross-power comparison at exponent {}", c1 / c2)
    return _sign(b1 ** e1 - b2 ** e2)


bases = st.integers(min_value=2, max_value=36)
leading = st.fractions(min_value=Fraction(1, 60), max_value=60, max_denominator=60)


@given(bases, leading, bases, leading)
@settings(max_examples=300, deadline=None)
@example(2, Fraction(2), 4, Fraction(1))
@example(8, Fraction(2, 3), 4, Fraction(1))
@example(27, Fraction(1, 3), 9, Fraction(1, 2))
@example(2, Fraction(59), 3, Fraction(1, 60))
def test_cross_base_leading_terms_order_as_the_reference(bx, cx, by, cy):
    try:
        want = reference_cmp_log_leading(cx, bx, cy, by)
    except errors.ExponentTooLarge:
        return
    assert gnum._cmp_scaled_power(1, bx, Fraction(cx, cy), by, 1) == want
    if bx != by:
        # one-term exponents leave nothing past the leading term: a tie is equal
        x, y = ExpCount(1, bx, gterm(cx, ONE)), ExpCount(1, by, gterm(cy, ONE))
        assert compare(x, y) is Ordering(want)


def test_the_guard_measures_the_reduced_exponent_pair():
    # the reference multiplies out 250000/3 against 1/3 and refuses; the
    # reduced pair is 2^250000 against 3
    with pytest.raises(errors.ExponentTooLarge):
        reference_cmp_log_leading(Fraction(250000, 3), 2, Fraction(1, 3), 3)
    assert gclang.render_value(gclang.eval_text("2^(250000*G/3) > 3^(G/3)")) == "true"
    assert gclang.render_value(gclang.eval_text("3^(G/3) < 2^(250000*G/3)")) == "true"
    with pytest.raises(errors.ExponentTooLarge, match="cross-power comparison"):
        gclang.eval_text("2^(500001*G/3) > 3^(G/3)")


FIELDS = (
    (Fraction(1), 10, G, ZERO),
    (Fraction(2), 10, G, ZERO),
    (Fraction(1), 2, G, ZERO),
    (Fraction(1), 10, 2 * G, ZERO),
    (Fraction(1), 10, G, fin(-1)),
    (Fraction(3, 2), 3, G ** 2 + G, G / 2 - 1),
    (Fraction(1), 10, CritRef(10, G), ZERO),
    (Fraction(1), 10, CritRef(10, G, 1), ZERO),
    (Fraction(1), 10, CritRef(10, 2 * G), ZERO),
)


@pytest.mark.parametrize("a", FIELDS)
@pytest.mark.parametrize("b", FIELDS)
def test_exp_count_equality_is_its_field_tuple(a, b):
    x, y = ExpCount(*a), ExpCount(*b)
    assert (x == y) is (a == b)
    assert (x != y) is (a != b)
    assert hash(x) == hash(a)


@pytest.mark.parametrize("fields", FIELDS)
def test_exp_count_equals_no_polynomial_value(fields):
    x = ExpCount(*fields)
    counted = gclang.eval_text("card(ap(1, 2))")
    assert isinstance(counted, gclang.SetCount)
    for other in (5, Fraction(5), fin(5), G, counted, fields):
        assert not x == other and not other == x
        assert x != other and other != x
    assert len({x, ExpCount(*fields), fin(5)}) == 2


def test_critical_and_polynomial_exponents_differ():
    crit, poly = ExpCount(1, 10, CritRef(10, G)), ExpCount(1, 10, G)
    assert crit != poly and poly != crit
    assert len({crit, poly}) == 2


@pytest.mark.parametrize(
    "build", [lambda b: CritRef(b, G), lambda b: ExpCount(1, b, G), lambda b: pow_count(b, G)]
)
@pytest.mark.parametrize("base", [1, 0, -3, Fraction(5, 2), "10"])
def test_one_base_check(build, base):
    with pytest.raises(errors.UnsupportedPower) as err:
        build(base)
    assert str(err.value) == f"numeral base must be an integer >= 2, got {base}"


def test_critical_length_only_exponentiates_its_own_base():
    for build in (lambda: pow_count(2, CritRef(10, G)), lambda: ExpCount(1, 2, CritRef(10, G))):
        with pytest.raises(errors.UnsupportedPower, match="only exponentiates its own base"):
            build()


@pytest.mark.parametrize(
    "value, text",
    [
        (ExpCount(1, 10, G), "10^G"),
        (ExpCount(3, 10, G), "3*10^G"),
        (ExpCount(Fraction(1, 4), 2, G), "2^G/4"),
        (ExpCount(Fraction(3, 4), 2, 2 * G, -G / 2 + 1), "3*2^(2*G)/4 - G/2 + 1"),
        (ExpCount(1, 10, CritRef(10, G, 1), fin(-1)), "10^(crit(10, G) + 1) - 1"),
        (ExpCount(Fraction(5, 3), 10, G, G ** 2), "5*10^G/3 + G^2"),
        (-3 * G ** 2 / 4 + G / 5 - Fraction(7, 2), "-3*G^2/4 + G/5 - 7/2"),
        (gterm(Fraction(2, 3), -G), "2*G^(-G)/3"),
        (ZERO, "0"),
    ],
)
def test_one_coefficient_writer(value, text):
    assert render_gross(value) == text
    assert gclang.eval_text(text) == value


@pytest.mark.parametrize(
    "text, whole",
    [
        ("G + 1/2", False),
        ("G + G^(-1)", False),
        ("G - G^(-2)", False),
        ("3*G/2 + 7/3", False),
        ("G/2 + 1", True),
        ("3*G^2 - G/2 + 7", True),
        ("G^(1/2) + 1", True),
        ("G^(G/2 - 1) + G", True),
    ],
)
def test_one_whole_count_rule_for_observers_and_critical_lengths(text, whole):
    value = gclang.eval_text(text)
    assert gnum.is_whole(value) is whole
    for line, refusal in (
        (f"observe(grossone, {text})", errors.NonIntegralCount),
        (f"critical(10, {text})", errors.EvalError),
    ):
        if whole:
            gclang.eval_text(line)
        else:
            with pytest.raises(refusal, match="whole"):
                gclang.eval_text(line)


@pytest.mark.parametrize(
    "text, whole", [("0", True), ("7", True), ("1/2", False), ("G^(-1)", False),
                    ("2^G + 1", True), ("2^G + 1/2", False), ("2^G - G^(-1)", False)]
)
def test_finite_infinitesimal_and_exponential_counts_follow_the_same_rule(text, whole):
    assert gnum.is_whole(gclang.eval_text(text)) is whole
    if whole:
        gclang.eval_text(f"observe(grossone, {text})")
    else:
        with pytest.raises(errors.NonIntegralCount):
            gclang.eval_text(f"observe(grossone, {text})")
