"""The finite-substitution oracle itself.

subst(x, L) replaces the infinite unit by a concrete integer L, turning every
symbolic identity into ordinary rational arithmetic that can be checked with
no reference to the calculator's own rules.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grosscalc import errors
from grosscalc.gnum import (
    CritRef,
    ExpCount,
    G,
    ONE,
    ZERO,
    add,
    fin,
    gterm,
    make_poly,
    mul,
    pow_count,
    sub,
)
from grosscalc.oracle import (
    admissible_points,
    brute_count,
    check_card,
    check_order,
    int_log_floor,
    random_set_expr,
    subst,
    sweep,
)
from grosscalc.setmeasure import (
    ProgressionE,
    SetOp,
    SignedSet,
    UNIVERSE_Z_E,
    UniverseNE,
    lift_signed,
)


class TestIntLogFloor:
    @pytest.mark.parametrize(
        "base, n, expected",
        [(10, 1, 0), (10, 9, 0), (10, 10, 1), (10, 999, 2), (10, 1000, 3), (2, 1024, 10)],
    )
    def test_values(self, base, n, expected):
        assert int_log_floor(base, n) == expected

    def test_matches_digit_count(self):
        for n in range(1, 2000):
            assert int_log_floor(10, n) == len(str(n)) - 1


class TestSubst:
    def test_polynomial(self):
        x = 2 * G + 1
        assert subst(x, 10 ** 6) == 2 * 10 ** 6 + 1

    def test_fractional_coefficients(self):
        assert subst(G / 55 + 3, 27720) == Fraction(27720, 55) + 3

    def test_negative_exponents(self):
        assert subst(G ** -1, 100) == Fraction(1, 100)

    def test_nested_exponent(self):
        v = subst(gterm(1, 2 * G), 3)  # G^(2G) at G := 3 is 3^6
        assert v == 729

    def test_exp_count(self):
        assert subst(pow_count(2, G), 20) == 2 ** 20
        assert subst(ExpCount(Fraction(3, 2), 2, G), 5) == Fraction(3 * 2 ** 5, 2)

    def test_exp_count_tail(self):
        n = sub(pow_count(10, G), fin(1))
        assert subst(n, 4) == 9999

    def test_critical_reference(self):
        # crit(10, G) at G := L is the largest k with 10^k <= L
        assert subst(CritRef(10, G, 0), 10 ** 6) == 6
        assert subst(CritRef(10, G, 1), 10 ** 6) == 7
        assert subst(CritRef(10, 2 * G, 0), 500) == 3  # 10^3 <= 1000

    def test_critical_power_sandwich(self):
        L = 27720
        k1 = subst(pow_count(10, CritRef(10, G, 0)), L)
        k2 = subst(pow_count(10, CritRef(10, G, 1)), L)
        assert k1 <= L < k2
        assert L / 10 < k1

    def test_fractional_exponent_rejected(self):
        half = gterm(1, fin(Fraction(1, 2)))
        with pytest.raises(errors.NonIntegerExponent):
            subst(half, 100)

    def test_infinite_tower_rejected(self):
        with pytest.raises(errors.ExponentTooLarge):
            subst(gterm(1, G ** 2), 10 ** 6)

    def test_exp_count_cap(self):
        with pytest.raises(errors.ExponentTooLarge):
            subst(pow_count(2, G), 10 ** 7)

    def test_critref_target_too_large(self):
        ref = CritRef(10, gterm(1, G), 0)  # target G^G overflows the bit cap
        with pytest.raises(errors.ExponentTooLarge):
            subst(ref, 10 ** 6)


class TestBruteCount:
    def test_progression(self):
        assert brute_count(ProgressionE(4, 5), 550) == 110

    def test_universe(self):
        assert brute_count(UniverseNE(), 123) == 123

    def test_signed_universe(self):
        assert brute_count(UNIVERSE_Z_E, 50) == 101

    def test_lifted(self):
        e = lift_signed(ProgressionE(2, 2))
        assert brute_count(e, 100) == 50


class TestCheckCard:
    def test_naturals(self):
        report = check_card(UniverseNE(), 1000)
        assert report.match and report.symbolic_value == 1000

    def test_signed_line(self):
        report = check_card(UNIVERSE_Z_E, 500)
        assert report.match and report.symbolic_value == 1001

    def test_invalid_points(self):
        with pytest.raises(errors.InvalidL):
            check_card(ProgressionE(3, 7), 100)  # 100 not divisible by 7
        with pytest.raises(errors.InvalidL):
            check_card(UniverseNE(), 1)  # not a valid substitution integer


class TestCheckOrder:
    def test_agreeing_pair(self):
        report = check_order(G, 2 * G + 1, [10 ** 6, 10 ** 7])
        assert report.match

    def test_exponential_pair(self):
        report = check_order(G ** 3, pow_count(2, G), [100, 200])
        assert report.match

    def test_detects_contradiction(self):
        # 1000000 - G is positive at small L, so a LESS verdict against zero
        # only holds once L passes the crossover; the oracle must notice.
        x = fin(10 ** 6) - G
        report = check_order(x, ZERO, [10])
        assert not report.match


class TestAdmissiblePoints:
    def test_divisibility(self):
        e = ProgressionE(4, 6)  # folds to a clean residue class, no exceptions
        for L in admissible_points(e):
            assert L % 6 == 0

    def test_clears_exception_ceiling(self):
        e = ProgressionE(20, 6)  # holes at 2, 8, 14 force L past 140
        for L in admissible_points(e):
            assert L % 6 == 0
            assert L > 140

    def test_minimum_point(self):
        assert admissible_points(UniverseNE())[0] >= 2

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_random_exprs_always_get_valid_points(self, seed):
        rng = random.Random(seed)
        expr = random_set_expr(rng)
        for L in admissible_points(expr):
            report = check_card(expr, L)  # must not raise InvalidL
            assert report.match


def test_sweep_smoke():
    failures, reports = sweep(2026, 40)
    assert failures == 0
    assert len(reports) == 120  # three points per expression


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30))
@settings(max_examples=80, deadline=None)
def test_subst_additive_on_random_polys(a, b):
    x = make_poly([(Fraction(a), ONE), (Fraction(-b), ZERO)])
    y = make_poly([(Fraction(b), fin(2)), (Fraction(a), ONE)])
    L = 10 ** 6
    assert subst(add(x, y), L) == subst(x, L) + subst(y, L)
    assert subst(mul(x, y), L) == subst(x, L) * subst(y, L)
