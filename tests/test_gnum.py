"""Arithmetic and ordering of gross-numbers.

Derived expectations are frozen from the finite-substitution oracle: each
identity is checked both structurally and numerically at G := 10**6.
"""
import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grosscalc import errors, gclang, gnum
from grosscalc.gnum import (
    Classification,
    CritRef,
    ExpCount,
    G,
    GrossPoly,
    ONE,
    Ordering,
    ZERO,
    add,
    classify,
    compare,
    div_exact,
    fin,
    gterm,
    make_poly,
    mul,
    neg,
    pow_count,
    render_gross,
    sub,
)
from grosscalc.oracle import subst

L = 10 ** 6


def assert_subst_consistent(x, expected: Fraction):
    assert subst(x, L) == expected


class TestConstruction:
    def test_zero_is_empty(self):
        assert ZERO.terms == ()
        assert fin(0) == ZERO

    def test_canonical_merges_equal_exponents(self):
        p = make_poly([(Fraction(2), ONE), (Fraction(3), ONE)])
        assert p == gterm(5, ONE)

    def test_canonical_drops_zero_coefficients(self):
        p = make_poly([(Fraction(2), ONE), (Fraction(-2), ONE)])
        assert p == ZERO

    def test_terms_ordered_by_descending_exponent(self):
        p = 2 * G + 1 + G ** 2
        exps = [e for _, e in p.terms]
        assert exps == [fin(2), ONE, ZERO]

    def test_depth_cap_enforced(self):
        x = G
        for _ in range(6):
            x = gterm(1, x)
        with pytest.raises(errors.DepthLimitExceeded):
            gterm(1, x)

    @pytest.mark.parametrize(
        "build",
        [
            lambda e: make_poly([(Fraction(1), e)]),
            lambda e: gterm(1, e),
            lambda e: GrossPoly(((Fraction(1), e),)),
        ],
        ids=["make_poly", "gterm", "constructor"],
    )
    def test_nine_level_tower_refused_by_every_builder(self, build):
        tower = ONE
        for _ in range(7):
            tower = build(tower)  # 8 levels: the deepest allowed
        assert render_gross(tower) == "G^(" * 6 + "G" + ")" * 6
        with pytest.raises(errors.DepthLimitExceeded):
            build(tower)


def tower(levels: int) -> GrossPoly:
    """G^(G^(...)) with the given exponent depth: ONE has depth 1."""
    t = ONE
    for _ in range(levels - 1):
        t = gterm(1, t)
    return t


class TestDepth:
    def test_depth_kept_where_no_term_cancels(self):
        t = tower(8)
        for value in (t, t + 1, -t, 2 * t, t * Fraction(1, 3), t - G, t + t):
            with pytest.raises(errors.DepthLimitExceeded):
                gterm(1, value)

    def test_a_cancelled_term_takes_its_depth_with_it(self):
        t = tower(8)
        # a tower that cancels leaves room for one more level of exponent
        for value in ((t - t) + G, (t + G) - t, (G + t) + (-t)):
            assert render_gross(gterm(1, value)) == "G^(G)"

    def test_one_more_level_is_refused(self):
        t = tower(8)
        with pytest.raises(errors.DepthLimitExceeded):
            gterm(1, t + 1)
        with pytest.raises(errors.DepthLimitExceeded):
            gterm(1, -t)


class TestAddition:
    def test_plus_zero_is_identity(self):
        assert add(G, ZERO) == G
        e = pow_count(2, G)
        assert add(e, ZERO) == e

    def test_paper_style_sum(self):
        # (2G + 1) + (G - 1) = 3G; frozen: 2000001 + 999999 = 3000000 at L
        x = 2 * G + 1
        y = G - 1
        assert add(x, y) == 3 * G
        assert_subst_consistent(add(x, y), Fraction(3 * L))

    def test_exp_plus_finite_keeps_exact_tail(self):
        n = sub(pow_count(10, G), fin(1))
        assert isinstance(n, ExpCount)
        assert n.tail == fin(-1)
        assert render_gross(n) == "10^G - 1"
        # frozen: 10^(10^6) - 1 has exactly 10^6 nines
        v = subst(n, 10)
        assert v == Fraction(10 ** 10 - 1)

    def test_equal_exponent_counts_add(self):
        a = pow_count(2, G)
        b = ExpCount(Fraction(3), 2, G)
        assert add(a, b) == ExpCount(Fraction(4), 2, G)

    def test_integer_exponent_shift_folds(self):
        # 2^G + 2^(G + 1) = 3 * 2^G
        a = pow_count(2, G)
        b = pow_count(2, G + 1)
        assert add(a, b) == ExpCount(Fraction(3), 2, G)
        assert subst(add(a, b), 10) == Fraction(3 * 2 ** 10)

    def test_different_base_sum_refused(self):
        with pytest.raises(errors.UnsupportedSum):
            add(pow_count(2, G), pow_count(10, G))

    def test_incompatible_exponent_sum_refused(self):
        with pytest.raises(errors.UnsupportedSum):
            add(pow_count(10, G), pow_count(10, G / 2))

    def test_poly_minus_exponential_refused(self):
        with pytest.raises(errors.UnsupportedSum):
            sub(G, pow_count(2, G))

    def test_exp_difference_cancels(self):
        a = ExpCount(Fraction(3), 2, G)
        b = pow_count(2, G)
        assert sub(a, b) == ExpCount(Fraction(2), 2, G)
        assert sub(b, b) == ZERO

    def test_negative_exp_difference_refused(self):
        with pytest.raises(errors.UnsupportedSum):
            sub(pow_count(2, G), ExpCount(Fraction(3), 2, G))

    def test_neg_of_exponential_refused(self):
        with pytest.raises(errors.UnsupportedSum):
            neg(pow_count(2, G))


class TestMultiplication:
    def test_squares(self):
        assert mul(G, G) == G ** 2
        assert_subst_consistent(G ** 2, Fraction(L) ** 2)

    def test_distributes(self):
        # (G + 1)*(G - 1) = G^2 - 1
        assert mul(G + 1, G - 1) == G ** 2 - 1

    def test_exp_scaling(self):
        e = pow_count(10, 2 * G)
        assert mul(fin(2), e) == ExpCount(Fraction(2), 10, 2 * G)
        assert render_gross(mul(fin(2), e)) == "2*10^(2*G)"

    def test_exp_times_zero(self):
        assert mul(pow_count(2, G), ZERO) == ZERO

    def test_exp_times_negative_refused(self):
        with pytest.raises(errors.UnsupportedProduct):
            mul(pow_count(2, G), fin(-1))

    def test_exp_times_infinite_refused(self):
        with pytest.raises(errors.UnsupportedProduct):
            mul(pow_count(2, G), G)

    def test_same_base_exponents_sum(self):
        a = pow_count(2, G)
        assert mul(a, a) == pow_count(2, 2 * G)

    def test_cross_base_product_refused(self):
        with pytest.raises(errors.UnsupportedProduct):
            mul(pow_count(2, G), pow_count(3, G))


def pairwise_product(x: GrossPoly, y: GrossPoly) -> GrossPoly:
    """x * y by the schoolbook rule: every term pair, one canonicalization."""
    return make_poly((cx * cy, ex + ey) for cx, ex in x.terms for cy, ey in y.terms)


def count_canon_calls(monkeypatch, x, y):
    """(x * y, the number of _canon calls it made)."""
    calls = []
    canon = gnum._canon

    def counting(pairs):
        calls.append(1)
        return canon(pairs)

    monkeypatch.setattr(gnum, "_canon", counting)
    got = gnum._pmul(x, y)
    monkeypatch.undo()
    return got, len(calls)


class TestRationalExponentSums:
    def test_all_rational_product_makes_no_canon_call(self, monkeypatch):
        # integral, fractional and negative sums, and a sum that is 0
        x = G ** 2 - 3 * G + Fraction(1, 2) + G ** -1
        y = 2 * G - 5 + gterm(Fraction(-1, 3), fin(Fraction(-1, 2)))
        expected = pairwise_product(x, y)
        got, calls = count_canon_calls(monkeypatch, x, y)
        assert calls == 0
        assert got == expected
        assert render_gross(got) == render_gross(expected)

    def test_product_with_a_g_to_the_g_term_canonicalizes_once(self, monkeypatch):
        x = gterm(1, G) + 2 * G - 1
        y = gterm(-1, G) + G / 3 + gterm(4, fin(Fraction(-1, 2)))
        expected = pairwise_product(x, y)
        got, calls = count_canon_calls(monkeypatch, x, y)
        assert calls == 1
        assert got == expected
        assert render_gross(got) == render_gross(expected)


class TestMergedArithmetic:
    @staticmethod
    def operands():
        # every exponent a fresh object, so no shortcut by identity hides an
        # equality test between two equal exponents; x holds the exponents -1
        # and -2, which CPython hashes alike
        x = make_poly((c, fin(Fraction(e - 4, 2))) for c, e in zip(range(1, 31), range(30)))
        y = make_poly((-c, fin(Fraction(e, 3))) for c, e in zip(range(5, 25), range(0, 60, 3)))
        return x, y

    def test_sum_and_rational_product_make_no_equality_call(self, monkeypatch):
        x, y = self.operands()
        # x * x adds halves to halves, so integral Fraction sums meet int ones
        expected = (make_poly(x.terms + y.terms), pairwise_product(x, y), pairwise_product(x, x))
        x, y = self.operands()
        calls = []
        eq = GrossPoly.__eq__

        def counting(self, other):
            calls.append(1)
            return eq(self, other)

        monkeypatch.setattr(GrossPoly, "__eq__", counting)
        got = (gnum._padd(x, y), gnum._pmul(x, y), gnum._pmul(x, x))
        count = len(calls)
        monkeypatch.undo()
        assert count == 0
        assert got == expected
        # the integer exponents 0 to 12 are shared, and at 0 the coefficients
        # 5 and -5 cancel: 30 + 20 - 13 - 1 terms
        assert len(got[0].terms) == 36

    def test_count_plus_or_minus_zero_is_a_plain_count(self):
        count = gclang.eval_text("card(ap(1, 2))")
        assert type(count) is gclang.SetCount
        for value in (count + 0, count - 0, 0 + count, gclang.eval_text("card(ap(1, 2)) + 0"),
                      gclang.eval_text("card(ap(1, 2)) - 0")):
            assert type(value) is GrossPoly and value == G / 2

    def test_count_times_one_is_a_plain_count(self):
        count = gclang.eval_text("card(ap(1, 2))")
        for value in (count * 1, 1 * count, count / 1, gclang.eval_text("card(ap(1, 2)) * 1")):
            assert type(value) is GrossPoly and value == G / 2
        plain = G / 2
        assert gnum._pscale(plain, 1) is plain
        assert gnum._pscale(plain, Fraction(2, 2)) is plain

    def test_merge_that_cancels_every_term_is_zero(self):
        x, _ = self.operands()
        rebuilt = make_poly(reversed(x.terms))
        for total in (gnum._padd(x, -rebuilt), sub(x, rebuilt), gnum._padd(-x, x)):
            assert type(total) is GrossPoly and total == ZERO and not total.terms


class TestDivision:
    def test_halving(self):
        assert div_exact(G, fin(2)) == G / 2
        assert_subst_consistent(G / 2, Fraction(L, 2))

    def test_single_term_division(self):
        assert div_exact(G ** 2, G) == G
        assert div_exact(G, G ** 2) == G ** -1

    def test_division_by_zero(self):
        with pytest.raises(errors.DivisionByZero):
            div_exact(G, ZERO)

    def test_multi_term_divisor_refused(self):
        with pytest.raises(errors.NonExactDivision):
            div_exact(G ** 2, G + 1)

    def test_right_inverse_of_mul(self):
        x = 3 * G + 5
        y = gterm(Fraction(2, 7), fin(2))
        assert div_exact(mul(x, y), y) == x

    def test_exp_ratio(self):
        four = ExpCount(Fraction(4), 10, 2 * G)
        two = ExpCount(Fraction(2), 10, 2 * G)
        assert div_exact(four, two) == fin(2)

    def test_critical_power_ratio(self):
        k1 = CritRef(10, G, 0)
        k2 = CritRef(10, G, 1)
        assert div_exact(pow_count(10, k2), pow_count(10, k1)) == fin(10)


class TestPowCount:
    def test_finite_powers(self):
        assert pow_count(3, fin(4)) == fin(81)
        assert pow_count(2, ZERO) == ONE

    def test_infinite_power_builds_exp_count(self):
        e = pow_count(2, G)
        assert isinstance(e, ExpCount)
        assert e.base == 2 and e.exponent == G
        assert subst(e, 16) == Fraction(2 ** 16)

    def test_negative_exponent_refused(self):
        with pytest.raises(errors.NegativeExponent):
            pow_count(2, fin(-1))
        with pytest.raises(errors.NegativeExponent):
            pow_count(2, -G)

    def test_fractional_exponent_refused(self):
        with pytest.raises(errors.NonIntegerExponent):
            pow_count(2, fin(Fraction(1, 2)))

    def test_infinitesimal_exponent_refused(self):
        with pytest.raises(errors.NonIntegerExponent):
            pow_count(2, G ** -1)

    def test_bad_base_refused(self):
        with pytest.raises(errors.UnsupportedPower):
            pow_count(1, G)

    def test_critical_reference_power(self):
        k1 = CritRef(10, G, 0)
        e = pow_count(10, k1)
        assert e == ExpCount(Fraction(1), 10, k1)
        with pytest.raises(errors.UnsupportedPower):
            pow_count(2, k1)


class TestClassify:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (ZERO, Classification.ZERO),
            (fin(3), Classification.FINITE_POSITIVE),
            (fin(Fraction(-1, 2)), Classification.FINITE_NEGATIVE),
            (G, Classification.INFINITE_POSITIVE),
            (-2 * G + 100, Classification.INFINITE_NEGATIVE),
            (G ** -1, Classification.INFINITESIMAL),
        ],
    )
    def test_polynomials(self, value, expected):
        assert classify(value) is expected

    def test_cancellation_is_zero(self):
        assert classify(sub(G, G)) is Classification.ZERO

    def test_exponential_counts_always_infinite_positive(self):
        assert classify(pow_count(2, G)) is Classification.INFINITE_POSITIVE
        assert classify(pow_count(10, CritRef(10, G, 0))) is Classification.INFINITE_POSITIVE
        assert classify(sub(pow_count(10, G), fin(1))) is Classification.INFINITE_POSITIVE


class TestCompare:
    def test_paper_ordering_chain(self):
        chain = [G - 1, G, G + 1, 2 * G + 1, G ** 2]
        for a, b in zip(chain, chain[1:]):
            assert compare(a, b) is Ordering.LESS

    def test_infinitesimal_below_finite(self):
        assert compare(G ** -1, fin(Fraction(1, 10 ** 9))) is Ordering.LESS
        assert compare(G ** -1, ZERO) is Ordering.GREATER

    def test_poly_below_exponential(self):
        assert compare(G, pow_count(2, G)) is Ordering.LESS
        assert compare(G ** 3, pow_count(2, G)) is Ordering.LESS

    def test_base_order(self):
        assert compare(pow_count(2, G), pow_count(10, G)) is Ordering.LESS

    def test_exponent_order_same_base(self):
        assert compare(pow_count(10, G / 2), pow_count(10, G)) is Ordering.LESS
        assert compare(pow_count(2, G ** 2), pow_count(2, G)) is Ordering.GREATER

    def test_multiplier_shift_identity(self):
        # 2 * 2^(2G) keeps its shape but equals 2^(2G + 1)
        a = ExpCount(Fraction(2), 2, 2 * G)
        b = pow_count(2, 2 * G + 1)
        assert compare(a, b) is Ordering.EQUAL
        assert a != b  # canonical forms differ; compare resolves the identity

    def test_cross_base_exact_equality(self):
        assert compare(pow_count(4, G), pow_count(2, 2 * G)) is Ordering.EQUAL
        assert compare(pow_count(5, G), ExpCount(Fraction(1), 25, G / 2)) is Ordering.EQUAL

    def test_cross_base_after_leading_tie(self):
        # 4^(G + 1) = 4 * 4^G > 2 * 4^G = 2^(2G + 1)
        assert compare(pow_count(4, G + 1), pow_count(2, 2 * G + 1)) is Ordering.GREATER

    def test_cross_base_differing_remainders_decided(self):
        # 4^(G + 1) = 2^(2G + 2) < 2^(2G + 3)
        assert compare(pow_count(4, G + 1), pow_count(2, 2 * G + 3)) is Ordering.LESS
        assert compare(pow_count(2, 2 * G + 3), pow_count(4, G + 1)) is Ordering.GREATER

    def test_tail_breaks_ties(self):
        full = pow_count(10, G)
        trimmed = sub(full, fin(1))
        assert compare(trimmed, full) is Ordering.LESS
        assert compare(add(full, fin(1)), full) is Ordering.GREATER

    def test_critical_sandwich(self):
        k1, k2 = CritRef(10, G, 0), CritRef(10, G, 1)
        assert compare(pow_count(10, k1), G) in (Ordering.LESS, Ordering.EQUAL)
        assert compare(pow_count(10, k2), G) is Ordering.GREATER
        assert compare(pow_count(10, k1), pow_count(10, k2)) is Ordering.LESS

    def test_critical_below_exponential(self):
        assert compare(pow_count(10, CritRef(10, G, 0)), pow_count(10, G)) is Ordering.LESS

    def test_critical_against_scaled_targets(self):
        k1 = pow_count(10, CritRef(10, G, 0))
        assert compare(k1, G / 10) is Ordering.GREATER
        assert compare(k1, 2 * G) is Ordering.LESS

    def test_critical_inside_sandwich_undetermined(self):
        k1 = pow_count(10, CritRef(10, G, 0))
        with pytest.raises(errors.Undetermined):
            compare(k1, G / 2)

    def test_disjoint_critical_ranges(self):
        a = pow_count(10, CritRef(10, G, 0))
        b = pow_count(2, CritRef(2, G ** 2, 0))
        assert compare(a, b) is Ordering.LESS


class TestRendering:
    @pytest.mark.parametrize(
        "value, text",
        [
            (ZERO, "0"),
            (fin(3), "3"),
            (fin(Fraction(1, 2)), "1/2"),
            (G, "G"),
            (2 * G + 1, "2*G + 1"),
            (G / 55 + 3, "G/55 + 3"),
            (G ** 2, "G^2"),
            (G - 1, "G - 1"),
            (-G + 2, "-G + 2"),
            (G ** -1, "G^(-1)"),
            (gterm(Fraction(3, 4), fin(2)), "3*G^2/4"),
            (gterm(1, 2 * G), "G^(2*G)"),
        ],
    )
    def test_poly_forms(self, value, text):
        assert render_gross(value) == text

    @pytest.mark.parametrize(
        "value, text",
        [
            (pow_count(2, G), "2^G"),
            (pow_count(10, 2 * G), "10^(2*G)"),
            (ExpCount(Fraction(2), 10, 2 * G), "2*10^(2*G)"),
            (ExpCount(Fraction(1, 2), 10, G), "10^G/2"),
            (sub(pow_count(10, G), fin(1)), "10^G - 1"),
            (pow_count(10, CritRef(10, G, 0)), "10^crit(10, G)"),
            (pow_count(10, CritRef(10, G, 1)), "10^(crit(10, G) + 1)"),
        ],
    )
    def test_exp_forms(self, value, text):
        assert render_gross(value) == text


# property tests over the polynomial fragment

coeffs = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=10
).filter(lambda f: f != 0)
small_exps = st.integers(min_value=-3, max_value=3).map(fin)
nested_exps = st.builds(
    lambda c, e: make_poly([(Fraction(c), ONE), (Fraction(e), ZERO)]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=-2, max_value=2),
)
exponents = st.one_of(small_exps, nested_exps)
polys = st.lists(st.tuples(coeffs, exponents), max_size=4).map(make_poly)
# substitution needs integer exponents small enough to evaluate at L = 10**6
flat_polys = st.lists(st.tuples(coeffs, small_exps), max_size=4).map(make_poly)


# polynomials whose exponents are themselves polynomials, down to depth 5
deep_polys = st.recursive(
    st.sampled_from([ZERO, ONE, G]),
    lambda inner: st.lists(st.tuples(coeffs, inner), max_size=3).map(make_poly),
    max_leaves=8,
)


def scanned_depth(p: GrossPoly) -> int:
    """The exponent depth of p, walked from the terms."""
    return 1 + max(scanned_depth(e) for _, e in p.terms) if p.terms else 0


# arithmetic builds its results with no depth check, which is safe because
# no result nests deeper than its deepest operand
@given(deep_polys, deep_polys, coeffs)
@settings(max_examples=150)
def test_no_result_nests_deeper_than_its_operands(x, y, c):
    results = [
        add(x, y), sub(x, y), sub(add(x, y), y), add(x, neg(x)), neg(x),
        mul(x, fin(c)), mul(fin(c), y), mul(x, ONE), mul(x, y),
    ]
    for divisor in (y, gterm(c, y.terms[0][1]) if y.terms else ONE):
        try:
            results.append(div_exact(x, divisor))
        except (errors.NonExactDivision, errors.DivisionByZero):
            pass
    deepest = max(map(scanned_depth, (x, y, fin(c))))
    for value in results:
        assert scanned_depth(value) <= deepest


@given(polys, polys)
@settings(max_examples=200)
def test_addition_commutes(x, y):
    assert add(x, y) == add(y, x)


@given(polys, polys, polys)
@settings(max_examples=200)
def test_addition_associates(x, y, z):
    assert add(add(x, y), z) == add(x, add(y, z))


@given(polys, polys)
@settings(max_examples=200)
def test_multiplication_commutes(x, y):
    assert mul(x, y) == mul(y, x)


@given(polys, polys, polys)
@settings(max_examples=100)
def test_distributivity(x, y, z):
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))


@given(polys, polys, polys)
@settings(max_examples=200)
def test_order_translation_invariance(x, y, z):
    assert compare(x, y) == compare(add(x, z), add(y, z))


@given(polys, polys)
@settings(max_examples=200)
def test_trichotomy(x, y):
    outcomes = [compare(x, y), compare(y, x)]
    if x == y:
        assert outcomes == [Ordering.EQUAL, Ordering.EQUAL]
    else:
        assert sorted(o.value for o in outcomes) == [-1, 1]


@given(polys, polys)
@settings(max_examples=200)
def test_canonical_uniqueness(x, y):
    assert (compare(x, y) is Ordering.EQUAL) == (x == y)


@given(flat_polys, flat_polys)
@settings(max_examples=150)
def test_substitution_respects_order(x, y):
    # integer exponents and bounded coefficients keep leading terms dominant
    verdict = compare(x, y).value
    vx, vy = subst(x, L), subst(y, L)
    assert ((vx > vy) - (vx < vy)) == verdict


@given(flat_polys, flat_polys)
@settings(max_examples=150)
def test_substitution_is_additive(x, y):
    assert subst(add(x, y), L) == subst(x, L) + subst(y, L)


@given(flat_polys, flat_polys)
@settings(max_examples=100)
def test_substitution_is_multiplicative(x, y):
    assert subst(mul(x, y), L) == subst(x, L) * subst(y, L)


# the order key against the term-by-term walk it replaced


def reference_cmp_poly(x: GrossPoly, y: GrossPoly) -> int:
    """Sign of x - y by walking both term lists at once: a larger exponent
    means its term dominates, so its coefficient sign decides; equal
    exponents compare coefficients and then the remainders."""
    if x.terms == y.terms:
        return 0
    xi, yi = x.terms, y.terms
    i = 0
    while True:
        tx = xi[i] if i < len(xi) else None
        ty = yi[i] if i < len(yi) else None
        if tx is None and ty is None:
            return 0
        if tx is None:
            return -_sign(ty[0])
        if ty is None:
            return _sign(tx[0])
        ce = reference_cmp_poly(tx[1], ty[1])
        if ce > 0:
            return _sign(tx[0])
        if ce < 0:
            return -_sign(ty[0])
        if tx[0] != ty[0]:
            return _sign(tx[0] - ty[0])
        i += 1


def _sign(x) -> int:
    return (x > 0) - (x < 0)


# few distinct values, so that exponents and leading terms often tie
mixed_coeffs = st.sampled_from([Fraction(n, d) for n in (-3, -1, 1, 2) for d in (1, 2)])
rational_values = st.fractions(min_value=-2, max_value=2, max_denominator=2).map(fin)


def polys_with(exps):
    return st.lists(st.tuples(mixed_coeffs, exps), max_size=4).map(make_poly)


# exponent depth <= 3: rational exponents, powers of G, and sums of both
depth2 = polys_with(rational_values)
deep_exps = st.one_of(rational_values, rational_values.map(lambda e: gterm(1, e)), depth2)
deep_polys = polys_with(deep_exps)


@st.composite
def deep_pairs(draw):
    """Two depth <= 3 values; half the time the second is the first plus
    one term, so that the two share a prefix."""
    x = draw(deep_polys)
    if draw(st.booleans()):
        return x, draw(deep_polys)
    return x, add(x, make_poly([(draw(mixed_coeffs), draw(deep_exps))]))


@given(deep_pairs())
@settings(max_examples=400)
def test_order_key_agrees_with_the_walk(pair):
    x, y = pair
    assert gnum._cmp_poly(x, y) == reference_cmp_poly(x, y)


@given(deep_pairs())
@settings(max_examples=100)
def test_order_key_is_antisymmetric(pair):
    x, y = pair
    assert gnum._cmp_poly(x, y) == -gnum._cmp_poly(y, x)


@given(st.lists(st.tuples(mixed_coeffs, deep_exps), max_size=8))
@settings(max_examples=200)
def test_make_poly_orders_terms_as_the_walk(pairs):
    exps = [e for _, e in make_poly(pairs).terms]
    assert exps == sorted(exps, key=functools.cmp_to_key(reference_cmp_poly), reverse=True)


@given(deep_polys)
@settings(max_examples=100)
def test_equal_values_hash_equal(x):
    counted = gclang.eval_text("ap(1, 2)")
    rebuilt = make_poly(reversed(x.terms))
    assert rebuilt is not x
    hash(x)  # one side caches its hash first
    for twin in (rebuilt, GrossPoly(x.terms), gclang.SetCount(x.terms, source=counted)):
        assert twin == x and hash(twin) == hash(x)


def _outcome(thunk):
    """thunk's value, or the kind and text of the GrossError it raises."""
    try:
        return thunk()
    except errors.GrossError as err:
        return type(err), str(err)


EXP = pow_count(2, G)


@pytest.mark.parametrize(
    "operator, function, want",
    [
        (lambda: 1 - G, lambda: sub(ONE, G), -(G - 1)),
        (lambda: Fraction(1, 2) - G, lambda: sub(fin(Fraction(1, 2)), G), fin(Fraction(1, 2)) - G),
        (lambda: 3 - EXP, lambda: sub(fin(3), EXP), (errors.UnsupportedSum, "subtracting an "
         "exponential count from a polynomial leaves the closure")),
        (lambda: 1 / G, lambda: div_exact(ONE, G), G ** -1),
        (lambda: 6 / (2 * G), lambda: div_exact(fin(6), mul(fin(2), G)), 3 * G ** -1),
        (lambda: G < EXP, lambda: compare(G, EXP) is Ordering.LESS, True),
        (lambda: EXP < G, lambda: compare(EXP, G) is Ordering.LESS, False),
        (lambda: EXP <= EXP, lambda: compare(EXP, EXP) is not Ordering.GREATER, True),
        (lambda: G <= 5, lambda: compare(G, fin(5)) is not Ordering.GREATER, False),
        (lambda: EXP > G, lambda: compare(EXP, G) is Ordering.GREATER, True),
        (lambda: G > G + 1, lambda: compare(G, G + 1) is Ordering.GREATER, False),
        (lambda: G >= G, lambda: compare(G, G) is not Ordering.LESS, True),
        (lambda: G >= EXP, lambda: compare(G, EXP) is not Ordering.LESS, False),
        (lambda: str(G / 2 + 1), lambda: render_gross(G / 2 + 1), "G/2 + 1"),
        (lambda: str(3 * EXP), lambda: render_gross(3 * EXP), "3*2^G"),
    ],
    ids=["1 - G", "1/2 - G", "3 - 2^G", "1 / G", "6 / 2G", "G < 2^G", "2^G < G",
         "2^G <= 2^G", "G <= 5", "2^G > G", "G > G + 1", "G >= G", "G >= 2^G",
         "str(G/2 + 1)", "str(3*2^G)"],
)
def test_python_operators_agree_with_the_module_functions(operator, function, want):
    """The count types' Python operators, the reflected ones and
    GrossPoly.__rtruediv__ included, against the functions they wrap."""
    assert _outcome(operator) == _outcome(function) == want
