"""The three relations between exponential counts in gnum.

* The critical-length sandwich: every verdict ``compare`` decides between a
  critical count and a polynomial or another critical count must hold at
  concrete substitution points, checked through ``oracle.check_order``.
* The exponent gap behind sums, differences and quotients: ``b^k`` is
  refused exactly when ``power`` refuses it, and fast.
* The sandwich's own size guard on critical-length offsets.
"""
import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grosscalc import cli, errors, gclang
from grosscalc.gnum import (
    CritRef,
    ExpCount,
    G,
    Ordering,
    add,
    compare,
    div_exact,
    fin,
    make_poly,
    pow_count,
    sub,
)
from grosscalc.oracle import check_order

# Even points whose targets below (c*L, c*L + d, L^2) are powers of no base in
# play, so the inclusive side of the sandwich is strict at every one of them.
POINTS = (10 ** 6 + 2, 3 * 10 ** 6 + 14, 10 ** 7 + 6)
BASES = (2, 3, 10)

_scales = st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)])
targets = st.one_of(
    _scales.map(lambda c: c * G),
    st.tuples(_scales, st.sampled_from([-1, 1, 2, 3])).map(lambda cd: cd[0] * G + cd[1]),
    st.just(G ** 2),
)
_coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=6)
multipliers = st.fractions(
    min_value=Fraction(1, 6), max_value=10, max_denominator=6
).filter(lambda f: f > 0)


def _poly(max_exp):
    pairs = st.tuples(_coeffs, st.integers(min_value=-1, max_value=max_exp))
    return st.lists(pairs, max_size=3).map(lambda ps: make_poly((c, fin(e)) for c, e in ps))


tails = _poly(1)
polys = _poly(2)


@st.composite
def critical_counts(draw, base=None, target=None):
    base = draw(st.sampled_from(BASES)) if base is None else base
    target = draw(targets) if target is None else target
    ref = CritRef(base, target, draw(st.integers(min_value=-2, max_value=3)))
    return ExpCount(draw(multipliers), base, ref, draw(tails))


@st.composite
def sandwich_pairs(draw):
    """A critical count and a polynomial or critical count, in either order.

    Half the other sides sit near the first count on purpose: a polynomial
    that is a rational multiple of its target, or a critical count of the
    same base and target, where coefficients can cancel.
    """
    x = draw(critical_counts())
    ref = x.exponent
    kind = draw(st.integers(min_value=0, max_value=3))
    if kind == 0:
        y = draw(polys)
    elif kind == 1:
        y = add(draw(multipliers) * ref.target, draw(tails))
    elif kind == 2:
        y = draw(critical_counts())
    else:
        y = draw(critical_counts(base=ref.base, target=ref.target))
    return (y, x) if draw(st.booleans()) else (x, y)


@given(sandwich_pairs())
@settings(max_examples=400, deadline=None)
def test_decided_sandwich_verdicts_hold_under_substitution(pair):
    x, y = pair
    try:
        report = check_order(x, y, POINTS)
    except errors.Undetermined:
        return  # an honest refusal; only decided verdicts are checked
    assert report.match, str(report)


class TestSandwich:
    def test_undetermined_names_the_critical_side_first(self):
        k1 = pow_count(10, CritRef(10, G, 0))
        with pytest.raises(errors.Undetermined) as info:
            compare(G / 2, k1)
        assert str(info.value) == "10^crit(10, G) vs G/2 is not resolvable from the sandwich"

    def test_cancelling_coefficients_leave_the_tails(self):
        # 10 * 10^crit(10, G) is 10^(crit(10, G) + 1), whatever crit is
        scaled = ExpCount(Fraction(10), 10, CritRef(10, G, 0))
        shifted = pow_count(10, CritRef(10, G, 1))
        assert compare(scaled, shifted) is Ordering.EQUAL
        assert compare(add(scaled, fin(1)), shifted) is Ordering.GREATER
        assert compare(scaled, add(shifted, G ** -1)) is Ordering.LESS

    def test_same_key_difference_is_bounded_on_both_sides(self):
        # 10^crit + t - 10^(crit + 1) = t - 9 * 10^crit, in [t - 9G, t - 9G/10)
        big = pow_count(10, CritRef(10, G, 1))

        def small(tail):
            return ExpCount(Fraction(1), 10, CritRef(10, G, 0), tail)

        assert compare(small(9 * G / 10), big) is Ordering.LESS
        assert compare(small(9 * G), big) is Ordering.GREATER
        with pytest.raises(errors.Undetermined):
            compare(small(G), big)

    def test_offset_guard(self):
        far = pow_count(2, CritRef(2, G, 30_000_000))
        with pytest.raises(errors.ExponentTooLarge):
            compare(far, G)
        with pytest.raises(errors.ExponentTooLarge):
            compare(G, far)
        near = pow_count(2, CritRef(2, G, 400_000))
        assert compare(near, G) is Ordering.GREATER


class TestRemainder:
    @pytest.mark.parametrize("r, verdict", [(G ** -1, 1), (-(G ** -1), -1), (G, 1)])
    def test_remainder_goes_the_way_of_the_larger_base(self, r, verdict):
        # 4^(G^2) == 2^(2G^2); what is left over, r, weighs 4^r against 2^r
        big, small = pow_count(4, G ** 2 + r), pow_count(2, 2 * G ** 2 + r)
        assert compare(big, small) is Ordering(verdict)
        assert compare(small, big) is Ordering(-verdict)

    def test_same_base_divides_out_the_smaller_power(self):
        # 3^(G + 1/2) against 2 * 3^G: sqrt(3) < 2
        assert compare(pow_count(3, G + Fraction(1, 2)), 2 * pow_count(3, G)) is Ordering.LESS
        assert compare(pow_count(3, G + G ** -1), pow_count(3, G)) is Ordering.GREATER


class TestExponentGap:
    def test_gap_folds_into_the_multiplier(self):
        assert add(pow_count(3, G + 2), pow_count(3, G)) == ExpCount(Fraction(10), 3, G)
        assert sub(pow_count(3, G + 2), pow_count(3, G)) == ExpCount(Fraction(8), 3, G)
        assert div_exact(pow_count(3, G), pow_count(3, G + 2)) == fin(Fraction(1, 9))
        ref = CritRef(2, 3 * G)
        low, high = pow_count(2, ref), pow_count(2, CritRef(2, 3 * G, 5))
        assert div_exact(high, low) == fin(32)
        assert add(low, high) == ExpCount(Fraction(33), 2, ref)

    def test_largest_gap_still_computes(self):
        # bit_length(3) * 500000 == 10**6, the last size power materializes
        total = add(pow_count(3, G + 500_000), pow_count(3, G))
        assert total.multiplier == 3 ** 500_000 + 1
        assert div_exact(pow_count(2, G + 500_000), pow_count(2, G)) == fin(2 ** 500_000)

    @pytest.mark.parametrize(
        "line",
        [
            "2^(G + 1000000000) / 2^G",
            "3^(G + 100000000) + 3^G",
            "3^G - 3^(G - 100000000)",
            "2^(crit(2, G) - 100000000) / 2^crit(2, G)",
            "3 * 2^(G + 1/30000000) > 2^G",
        ],
    )
    def test_gap_guard_is_typed_and_fast(self, line, capsys):
        start = time.perf_counter()
        code = cli.run_line(line, gclang.default_env(), json_mode=True, point=None)
        elapsed = time.perf_counter() - start
        assert code == cli.EXIT_EVAL
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "ExponentTooLarge"
        assert elapsed < 1.0

    def test_gap_is_refused_exactly_when_power_is(self):
        env = gclang.default_env()
        assert gclang.eval_text("2^(G + 500000) / 2^G == 2^500000", env) is True
        for line in ("2^(G + 500001) / 2^G", "2^500001"):
            with pytest.raises(errors.ExponentTooLarge) as info:
                gclang.eval_text(line, env)
            assert str(info.value) == "2^500001 will not be materialized"


@pytest.mark.parametrize(
    "line, value",
    [
        ("2^(G + 400000) / 2^G > 1", "true"),
        ("numerals(2, crit(2, G) + 400000) > G", "true"),
        # 500000 * bit_length(3) == 10**6, the largest multiplier power compared
        ("3 * 2^(G + 1/500000) > 2^G", "true"),
    ],
)
def test_inputs_below_the_guards_still_answer(line, value):
    assert gclang.render_value(gclang.eval_text(line)) == value
