"""Positional numeral systems and the successor chain.

Finite truncations are the oracle here: a system with a small finite number
of positions can be enumerated exhaustively as digit strings, and every
sparse-numeral operation must agree with plain string arithmetic on it.
"""
import itertools
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grosscalc import cli, errors, gclang, gnum
from grosscalc.gnum import (
    CritRef,
    ExpCount,
    G,
    Ordering,
    compare,
    fin,
    pow_count,
    render_gross,
    sub,
)
from grosscalc.posnum import (
    CriticalPair,
    InfNumeral,
    compare_numerals,
    critical,
    enumerate_all,
    enumerate_first,
    float_count,
    numeral,
    numeral_count,
    predecessor,
    render_digits,
    render_numeral,
    signed_line_count,
    successor,
    zeros,
)


class TestConstruction:
    def test_zeros(self):
        z = zeros(10, G)
        assert z.head == () and z.tail == ()
        assert render_digits(z) == "0.000…000"

    def test_strips_redundant_zeros(self):
        x = numeral(10, G, head=(1, 0), tail=(0, 2))
        assert x.head == (1,) and x.tail == (2,)

    def test_finite_lengths_split_at_the_midpoint(self):
        # equal strings must be equal records however they were specified
        a = numeral(10, 3, head=(1,), tail=(2,))
        b = numeral(10, 3, head=(1, 0, 2))
        assert a == b
        assert a.head == (1,) and a.tail == (2,)

    def test_digit_range_checked(self):
        with pytest.raises(errors.EvalError):
            numeral(2, G, tail=(2,))

    def test_digit_text_is_read_like_digit_values(self):
        x = numeral(16, G, head="0f", tail="a")
        assert x == numeral(16, G, head=(0, 15), tail=(10,))
        assert render_digits(x) == "0.0f000…000a"

    @pytest.mark.parametrize(
        "line, detail",
        [
            ('num(10, G){tail: "a"}', "tail digit 'a' is outside base 10"),
            ('num(2, 5){head: "1012"}', "head digit '2' is outside base 2"),
            ('num(10, G){head: "Z"}', "head must contain digits only, got 'Z'"),
            ('num(10, G){tail: "1 2"}', "tail must contain digits only, got ' '"),
            ('num(10, G){sign: "*"}', 'sign must be "", "+" or "-", got \'*\''),
            ('num(10, G){base: "1"}', "num has no field 'base'"),
        ],
    )
    def test_bad_digits_are_named_as_typed(self, line, detail):
        with pytest.raises(errors.EvalError) as info:
            gclang.eval_text(line)
        assert str(info.value) == detail

    def test_digit_values_are_named_as_given(self):
        with pytest.raises(errors.EvalError, match="^tail digit 2 is outside base 2$"):
            numeral(2, G, tail=(1, 2))
        with pytest.raises(errors.EvalError, match="^head digit -1 is outside base 10$"):
            numeral(10, G, head=(-1,))

    def test_dense_zeros_are_built_in_linear_time(self):
        start = time.perf_counter()
        for _ in range(50):
            x = numeral(10, 10 ** 4)
        assert time.perf_counter() - start < 1.0
        assert x.head == () and x.tail == ()

    def test_overfull_finite_length_rejected(self):
        with pytest.raises(errors.EvalError):
            numeral(10, 2, head=(1, 2), tail=(3,))

    def test_bad_length_rejected(self):
        with pytest.raises(errors.EvalError):
            numeral(10, 0)
        with pytest.raises(errors.EvalError):
            numeral(10, -G)
        with pytest.raises(errors.EvalError):
            numeral(10, fin(Fraction(5, 2)))

    def test_infinite_fractional_length_allowed(self):
        # G/2 positions is a legitimate system; G is divisible by 2
        x = numeral(10, G / 2, tail=(7,))
        assert render_digits(x) == "0.000…0007"


class TestCounting:
    def test_paper_counts(self):
        assert numeral_count(2, G) == pow_count(2, G)
        assert render_gross(numeral_count(2, G)) == "2^G"
        assert render_gross(numeral_count(10, G)) == "10^G"
        assert render_gross(numeral_count(10, G / 2)) == "10^(G/2)"

    def test_finite_count_matches_enumeration(self):
        assert numeral_count(10, 3) == fin(1000)
        # oracle: every finite system up to base 5, length 4
        for b in range(2, 6):
            for k in range(1, 5):
                strings = set(itertools.product(range(b), repeat=k))
                assert numeral_count(b, k) == fin(len(strings))
                assert len(enumerate_all(b, k)) == len(strings)

    def test_count_increases_with_length_and_base(self):
        assert compare(numeral_count(10, G / 2), numeral_count(10, G)) is Ordering.LESS
        assert compare(numeral_count(2, G), numeral_count(3, G)) is Ordering.LESS
        assert compare(numeral_count(2, G), G) is Ordering.GREATER

    def test_signed_line_count(self):
        assert signed_line_count(10) == ExpCount(Fraction(2), 10, 2 * G)
        assert render_gross(signed_line_count(10)) == "2*10^(2*G)"
        # base 2: the artifact keeps 2*2^(2G); compare resolves the identity
        kept = signed_line_count(2)
        assert kept == ExpCount(Fraction(2), 2, 2 * G)
        assert compare(kept, pow_count(2, 2 * G + 1)) is Ordering.EQUAL

    def test_signed_line_finite_analogue(self):
        # 2 integer + 2 fractional digits, base 10: one sign, four digits
        strings = {
            (sign,) + digits
            for sign in "+-"
            for digits in itertools.product(range(10), repeat=4)
        }
        assert len(strings) == 2 * 10 ** 4

    def test_float_count(self):
        assert float_count(10) == ExpCount(Fraction(4), 10, 2 * G)
        assert render_gross(float_count(10)) == "4*10^(2*G)"
        assert render_gross(float_count(2)) == "4*2^(2*G)"

    def test_float_finite_analogue(self):
        # 2 mantissa + 2 exponent digits, base 3, two independent signs
        strings = {
            (ms,) + m + (ps,) + p
            for ms in "+-"
            for m in itertools.product(range(3), repeat=2)
            for ps in "+-"
            for p in itertools.product(range(3), repeat=2)
        }
        assert len(strings) == 4 * 3 ** 4 == 324


class TestCritical:
    def test_sandwich(self):
        pair = critical(10, G)
        assert pair.k1 == CritRef(10, G, 0)
        assert pair.k2 == CritRef(10, G, 1)
        assert compare(pow_count(10, pair.k1), G) is Ordering.LESS
        assert compare(pow_count(10, pair.k2), G) is Ordering.GREATER

    def test_other_infinite_targets(self):
        pair = critical(2, 2 * G + 1)  # the count of the integers
        assert compare(pow_count(2, pair.k1), 2 * G + 1) is Ordering.LESS
        assert compare(pow_count(2, pair.k2), 2 * G + 1) is Ordering.GREATER
        evens = critical(10, G / 2)
        assert compare(pow_count(10, evens.k2), G / 2) is Ordering.GREATER

    def test_step_between_critical_counts(self):
        pair = critical(10, G)
        ratio = pow_count(10, pair.k2)
        assert compare(ratio, pow_count(10, pair.k1)) is Ordering.GREATER

    def test_finite_target_rejected(self):
        with pytest.raises(errors.NotInfinite):
            critical(10, 27720)
        with pytest.raises(errors.NotInfinite):
            critical(10, fin(5))

    @pytest.mark.parametrize("target", [pow_count(2, G), pow_count(10, CritRef(10, G, 0))])
    def test_exponential_target_is_not_a_polynomial(self, target):
        with pytest.raises(errors.EvalError, match="need a polynomial target count") as info:
            critical(10, target)
        assert info.type is errors.EvalError

    def test_fractional_target_rejected(self):
        with pytest.raises(errors.EvalError):
            critical(10, G + fin(Fraction(1, 2)))

    def test_finite_sanity_analogue(self):
        # the same sandwich computed by integer logarithm at a finite stand-in
        M = 27720
        k1 = len(str(M)) - 1
        assert 10 ** k1 <= M < 10 ** (k1 + 1)
        assert k1 == 4


class TestCompare:
    def test_paper_chain(self):
        chain = enumerate_first(10, G, 4)
        tails = [x.tail for x in chain]
        assert tails == [(), (1,), (2,), (3,)]
        for a, b in zip(chain, chain[1:]):
            assert compare_numerals(a, b) is Ordering.LESS

    def test_equal(self):
        x = numeral(10, G, head=(3,), tail=(7,))
        assert compare_numerals(x, x) is Ordering.EQUAL

    def test_head_dominates_tail(self):
        hi = numeral(10, G, head=(1,))
        lo = numeral(10, G, tail=(9, 9, 9))
        assert compare_numerals(hi, lo) is Ordering.GREATER

    def test_tail_alignment(self):
        # ...21 vs ...9: the longer tail starts at a more significant spot
        a = numeral(10, G, tail=(2, 1))
        b = numeral(10, G, tail=(9,))
        assert compare_numerals(a, b) is Ordering.GREATER

    def test_zones_that_meet_compare_as_whole_strings(self):
        # blocks given past the middle are re-split from their digits, so
        # 1|555…5 and 13|44…4 compare as the whole strings they are
        n = 10 ** 4 + 1
        x = numeral(10, n, head=(1,), tail=(5,) * (n - 1))
        y = numeral(10, n, head=(1, 3), tail=(4,) * (n - 2))
        assert compare_numerals(x, y) is Ordering.GREATER

    def test_mismatched_systems(self):
        with pytest.raises(errors.IncomparableSystems):
            compare_numerals(zeros(2, G), zeros(10, G))
        with pytest.raises(errors.IncomparableSystems):
            compare_numerals(zeros(10, G), zeros(10, G / 2))
        with pytest.raises(errors.IncomparableSystems):
            compare_numerals(zeros(10, G), zeros(10, G, sign="+"))

    def test_signed_order(self):
        neg = numeral(10, G, tail=(5,), sign="-")
        pos = numeral(10, G, tail=(1,), sign="+")
        assert compare_numerals(neg, pos) is Ordering.LESS
        # larger magnitude is smaller on the negative side
        small = numeral(10, G, tail=(1,), sign="-")
        assert compare_numerals(neg, small) is Ordering.LESS

    def test_two_zero_numerals_stay_distinct(self):
        assert compare_numerals(zeros(10, G, "-"), zeros(10, G, "+")) is Ordering.LESS

    def test_finite_agrees_with_fraction_value(self):
        # oracle: lexicographic order must equal numeric order of 0.d1d2d3
        system = enumerate_all(10, 2)
        rng = random.Random(7)
        for _ in range(300):
            x, y = rng.choice(system), rng.choice(system)
            vx = Fraction(sum(d * 10 ** (1 - i) for i, d in enumerate(_full(x, 2))), 100)
            vy = Fraction(sum(d * 10 ** (1 - i) for i, d in enumerate(_full(y, 2))), 100)
            verdict = compare_numerals(x, y).value
            assert ((vx > vy) - (vx < vy)) == verdict


def _full(x: InfNumeral, n: int):
    return x.head + (0,) * (n - len(x.head) - len(x.tail)) + x.tail


class TestSuccessor:
    def test_first_step(self):
        nxt = successor(zeros(10, G))
        assert nxt.tail == (1,)
        assert render_digits(nxt) == "0.000…0001"

    def test_carry_one_step(self):
        # finite truncation oracle at length 8: 0.00000009 + 1 = 0.00000010
        sparse = successor(numeral(10, G, tail=(9,)))
        assert sparse.tail == (1, 0)
        dense = successor(numeral(10, 8, tail=(9,)))
        assert _full(dense, 8) == (0, 0, 0, 0, 0, 0, 1, 0)

    def test_carry_absorbed_by_middle(self):
        x = numeral(10, G, tail=(9, 9))
        assert successor(x).tail == (1, 0, 0)

    def test_carry_stops_at_first_zero(self):
        x = numeral(10, G, tail=(2, 9, 9))
        assert successor(x).tail == (3, 0, 0)

    def test_head_untouched_by_infinite_gap(self):
        x = numeral(10, G, head=(5,), tail=(9,))
        nxt = successor(x)
        assert nxt.head == (5,) and nxt.tail == (1, 0)

    def test_finite_carry_into_head(self):
        x = numeral(10, 3, head=(1, 9, 9))
        assert _full(successor(x), 3) == (2, 0, 0)

    def test_overflow_at_maximum(self):
        with pytest.raises(errors.Overflow):
            successor(numeral(10, 2, head=(9, 9)))
        with pytest.raises(errors.Overflow):
            successor(numeral(2, 3, head=(1, 1, 1)))

    def test_enumerate_finite_system_completely(self):
        # spec-scale oracle: all 1000 numerals of the 3-digit decimal system
        chain = enumerate_first(10, 3, 1000)
        assert len(set(chain)) == 1000
        assert _full(chain[-1], 3) == (9, 9, 9)
        for a, b in zip(chain, chain[1:]):
            assert compare_numerals(a, b) is Ordering.LESS
        with pytest.raises(errors.Overflow):
            successor(chain[-1])

    def test_removing_zero_leaves_symbolic_count(self):
        remaining = sub(numeral_count(10, G), fin(1))
        assert render_gross(remaining) == "10^G - 1"
        rejoined = sub(remaining, sub(numeral_count(10, G), fin(1)))
        assert rejoined == fin(0)


class TestPredecessor:
    def test_inverse_of_first_step(self):
        z = zeros(10, G)
        assert predecessor(successor(z)) == z

    def test_borrow_inside_tail(self):
        x = numeral(10, G, tail=(2, 0))
        assert predecessor(x).tail == (1, 9)

    def test_underflow_at_zero(self):
        with pytest.raises(errors.Underflow):
            predecessor(zeros(10, G))
        with pytest.raises(errors.Underflow):
            predecessor(zeros(10, 4))

    def test_infinite_borrow_not_representable(self):
        # 0.1000…000 - 1 would need G-many trailing 9s
        with pytest.raises(errors.Underflow):
            predecessor(numeral(10, G, head=(1,)))

    def test_finite_borrow_across_gap(self):
        x = numeral(10, 6, head=(1,))
        assert _full(predecessor(x), 6) == (0, 9, 9, 9, 9, 9)


# the successor and predecessor as two separate carry loops, and the
# comparison as two index loops, kept as the references that the one carry
# rule and the one zone comparison are checked against


def reference_successor(x: InfNumeral) -> InfNumeral:
    b = x.base
    tail = list(x.tail)
    carry = 1
    for i in range(len(tail) - 1, -1, -1):
        if not carry:
            break
        carry, tail[i] = divmod(tail[i] + 1, b)
    if not carry:
        return numeral(b, x.length, x.head, tuple(tail), x.sign)
    gap = x.gap()
    if gap is None or gap >= 1:
        return numeral(b, x.length, x.head, (1,) + tuple(tail), x.sign)
    head = list(x.head)
    for i in range(len(head) - 1, -1, -1):
        if not carry:
            break
        carry, head[i] = divmod(head[i] + 1, b)
    if carry:
        raise errors.Overflow("the maximal numeral has no successor")
    return numeral(b, x.length, tuple(head), tuple(tail), x.sign)


def reference_predecessor(x: InfNumeral) -> InfNumeral:
    b = x.base
    if x.tail:
        tail = list(x.tail)
        for i in range(len(tail) - 1, -1, -1):
            tail[i] -= 1
            if tail[i] >= 0:
                break
            tail[i] = b - 1
        return numeral(b, x.length, x.head, tuple(tail), x.sign)
    if not x.head:
        raise errors.Underflow("the all-zeros numeral has no predecessor")
    gap = x.gap()
    if gap is None:
        raise errors.Underflow(
            "the predecessor would need infinitely many trailing nonzero digits"
        )
    gnum.refuse(errors.RepresentationLimit, gap, "MAX_ITEMS",
                "digits {} written out by the predecessor", b - 1)
    head = x.head[:-1] + (x.head[-1] - 1,)
    return numeral(b, x.length, head, (b - 1,) * gap, x.sign)


def reference_cmp_magnitude(x: InfNumeral, y: InfNumeral) -> int:
    n = x.finite_length
    if n is not None:
        if len(x.head) + len(y.tail) > n or len(y.head) + len(x.tail) > n:
            dx, dy = _full(x, n), _full(y, n)
            return (dx > dy) - (dx < dy)
    for i in range(max(len(x.head), len(y.head))):
        dx = x.head[i] if i < len(x.head) else 0
        dy = y.head[i] if i < len(y.head) else 0
        if dx != dy:
            return (dx > dy) - (dx < dy)
    width = max(len(x.tail), len(y.tail))
    for i in range(width):
        dx = x.tail[i - width + len(x.tail)] if i >= width - len(x.tail) else 0
        dy = y.tail[i - width + len(y.tail)] if i >= width - len(y.tail) else 0
        if dx != dy:
            return (dx > dy) - (dx < dy)
    return 0


def reference_compare(x: InfNumeral, y: InfNumeral) -> int:
    """The order of two numerals of one finite system, by their expanded
    digit tuples."""
    if x.sign != y.sign:
        return -1 if x.sign == "-" else 1
    n = x.finite_length
    dx, dy = _full(x, n), _full(y, n)
    verdict = (dx > dy) - (dx < dy)
    return -verdict if x.sign == "-" else verdict


_LENGTHS = [*range(1, 9), 10 ** 4 - 1, 10 ** 4, 10 ** 4 + 1, 2 * 10 ** 4, G, G / 2, G - 3]


@st.composite
def any_numeral(draw, base=None, length=None, sign=None):
    """Numerals of every zone shape, with digits biased to 0 and b-1; a
    finite string may have its middle filled with one digit, so that head
    and tail meet."""
    if base is None:
        base = draw(st.integers(min_value=2, max_value=36))
    if length is None:
        length = draw(st.sampled_from(_LENGTHS))
    if sign is None:
        sign = draw(st.sampled_from(["", "+", "-"]))
    digit = st.sampled_from([0, base - 1]) | st.integers(min_value=0, max_value=base - 1)
    run = st.lists(digit, max_size=6).map(tuple)
    head, tail = draw(run), draw(run)
    n = length if isinstance(length, int) else length.as_int()
    if n is not None:
        head = head[:n]
        tail = tail[: n - len(head)]
        if draw(st.booleans()):
            head += (draw(digit),) * (n - len(head) - len(tail))
    return numeral(base, length, head, tail, sign)


def _outcome(step, x):
    try:
        return step(x)
    except errors.GrossError as err:
        return type(err), str(err)


@given(any_numeral())
@settings(max_examples=400, deadline=None)
def test_one_carry_rule_matches_the_reference(x):
    assert _outcome(successor, x) == _outcome(reference_successor, x)
    assert _outcome(predecessor, x) == _outcome(reference_predecessor, x)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_zone_comparison_matches_the_reference(data):
    x = data.draw(any_numeral())
    n = x.finite_length
    if n is not None and data.draw(st.booleans()):
        # x's string, perhaps with one digit changed, split into head and
        # tail anywhere, so that a head block can reach the other tail block
        digits = list(_full(x, n))
        if data.draw(st.booleans()):
            digits[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(0, x.base - 1))
        split = data.draw(st.integers(0, n))
        y = numeral(x.base, n, digits[:split], digits[split:], x.sign)
    else:
        y = data.draw(any_numeral(x.base, x.length, x.sign))
    verdict = reference_cmp_magnitude(x, y)
    assert compare_numerals(x, y).value == (-verdict if x.sign == "-" else verdict)


@st.composite
def sparse_string(draw, base, n):
    """A digit tuple of n positions: zeros with a few short runs written near
    the start, the middle, the end or anywhere, and perhaps one long run of
    a single digit."""
    digit = st.sampled_from([0, base - 1]) | st.integers(min_value=0, max_value=base - 1)
    digits = [0] * n
    runs = draw(st.lists(st.lists(digit, min_size=1, max_size=6), max_size=4))
    if draw(st.booleans()):
        runs.append([draw(digit)] * draw(st.integers(min_value=1, max_value=n)))
    for run in runs:
        run = run[:n]
        near = draw(st.sampled_from([0, n // 2, n]) | st.integers(min_value=0, max_value=n))
        at = max(0, min(near - draw(st.integers(0, len(run))), n - len(run)))
        digits[at : at + len(run)] = run
    return tuple(digits)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_finite_strings_have_one_record_at_every_length(data):
    # lengths on both sides of the 32 positions where rendering turns to
    # head…tail, and of 10^4
    n = data.draw(
        st.integers(min_value=1, max_value=64)
        | st.sampled_from([10 ** 4 - 1, 10 ** 4, 10 ** 4 + 1])
        | st.integers(min_value=1, max_value=2 * 10 ** 4)
    )
    base = data.draw(st.integers(min_value=2, max_value=36))
    signs = data.draw(st.sampled_from([("",), ("+", "-")]))
    digits = data.draw(sparse_string(base, n))
    x = numeral(base, n, digits, (), data.draw(st.sampled_from(signs)))
    assert _full(x, n) == digits
    for split in {0, n // 2, n, data.draw(st.integers(min_value=0, max_value=n))}:
        y = numeral(base, n, digits[:split], digits[split:], x.sign)
        assert y == x and render_digits(y) == render_digits(x)

    other = list(digits)
    if data.draw(st.booleans()):
        other = list(data.draw(sparse_string(base, n)))
    else:
        other[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(0, base - 1))
    split = data.draw(st.integers(min_value=0, max_value=n))
    y = numeral(base, n, other[:split], other[split:], data.draw(st.sampled_from(signs)))
    assert compare_numerals(x, y).value == reference_compare(x, y)

    assert _outcome(successor, x) == _outcome(reference_successor, x)
    assert _outcome(predecessor, x) == _outcome(reference_predecessor, x)


# randomized round-trip on sparse numerals

digit_runs = st.lists(st.integers(min_value=0, max_value=9), max_size=4).map(tuple)


@given(digit_runs, digit_runs)
@settings(max_examples=100)
def test_successor_predecessor_round_trip(head, tail):
    x = numeral(10, G, head=head, tail=tail)
    assert predecessor(successor(x)) == x
    assert compare_numerals(x, successor(x)) is Ordering.LESS


@given(digit_runs, digit_runs)
@settings(max_examples=100)
def test_round_trip_binary(head, tail):
    head = tuple(d % 2 for d in head)
    tail = tuple(d % 2 for d in tail)
    x = numeral(2, G / 2, head=head, tail=tail)
    assert predecessor(successor(x)) == x


@given(st.integers(min_value=0, max_value=9999))
@settings(max_examples=60)
def test_finite_matches_integer_arithmetic(k):
    # the 4-digit decimal system is literally the integers 0..9999
    digits = tuple(int(c) for c in f"{k:04d}")
    x = numeral(10, 4, head=digits)
    if k < 9999:
        assert _full(successor(x), 4) == tuple(int(c) for c in f"{k + 1:04d}")
    if k > 0:
        assert _full(predecessor(x), 4) == tuple(int(c) for c in f"{k - 1:04d}")


class TestRender:
    def test_annotated_form(self):
        x = numeral(10, G, tail=(1,))
        assert render_numeral(x) == "0.000…0001 [10^G positions: G]"

    def test_finite_form(self):
        x = numeral(10, 3, tail=(1,))
        assert render_numeral(x) == "0.001 [1000 positions: 3]"

    def test_signed_form(self):
        x = numeral(10, G, tail=(5,), sign="-")
        assert render_digits(x) == "-0.000…0005"

    def test_half_length_form(self):
        x = zeros(2, G / 2)
        assert render_numeral(x) == "0.000…000 [2^(G/2) positions: G/2]"

    def test_digits_past_nine_are_letters(self):
        x = successor(numeral(16, G, tail=(9,)))
        assert render_digits(x) == "0.000…000a"
        chain = enumerate_first(16, 2, 12)
        assert [render_digits(y) for y in chain[-3:]] == ["0.09", "0.0a", "0.0b"]
        assert render_digits(numeral(36, 2, head=(35, 10))) == "0.za"

    def test_radix_is_at_most_one_character_per_digit(self):
        with pytest.raises(errors.EvalError, match="from 2 to 36, got 37"):
            zeros(37, G)
        assert render_gross(numeral_count(100, G)) == "100^G"

    @pytest.mark.parametrize("length", [33, 10 ** 4, 10 ** 4 + 1])
    def test_no_gap_writes_the_digits_alone(self, length):
        head = (1,) * (length // 2)
        tail = (2,) * (length - len(head))
        x = numeral(10, length, head=head, tail=tail)
        assert render_digits(x) == "0." + "1" * len(head) + "2" * len(tail)
        assert render_digits(numeral(10, length, head=head)).endswith("1000…000")

    def test_thirty_two_positions_are_written_in_full(self):
        assert gclang.render_value(gclang.eval_text('num(10, 32){tail: "1"}')) == (
            f"0.{'0' * 31}1 [{10 ** 32} positions: 32]"
        )

    @pytest.mark.parametrize(
        "length, count", [(33, str(10 ** 33)), (10 ** 4, "10^10000"), (10 ** 4 + 1, "10^10001")]
    )
    def test_longer_finite_numerals_print_head_and_tail(self, length, count):
        line = f'num(10, {length}){{tail: "1"}}'
        assert gclang.render_value(gclang.eval_text(line)) == (
            f"0.000…0001 [{count} positions: {length}]"
        )

    def test_one_string_prints_alike_however_it_was_given(self):
        dense = gclang.eval_text(f'num(10, 10001){{head: "1{"0" * 9999}1"}}')
        sparse = gclang.eval_text('num(10, 10001){head: "1", tail: "1"}')
        assert dense == sparse
        assert gclang.render_value(dense) == gclang.render_value(sparse) == (
            "0.1000…0001 [10^10001 positions: 10001]"
        )


class TestLongCountTags:
    """A finite count b^N past gnum.MAX_DIGITS digits is tagged b^N; shorter
    counts keep their digits."""

    @pytest.mark.parametrize(
        "base, length, count",
        [
            (10, 4300, "10^4300"),
            (10, 300000, "10^300000"),
            (2, 14285, "2^14285"),
            (36, 2763, "36^2763"),
            (3, 10 ** 6, "3^1000000"),
        ],
    )
    def test_long_counts_are_written_as_powers(self, base, length, count):
        x = numeral(base, length, tail=(1,))
        assert render_numeral(x).endswith(f" [{count} positions: {length}]")

    @pytest.mark.parametrize("base, length", [(10, 4299), (2, 14284), (36, 2762), (10, 3)])
    def test_counts_within_the_limit_keep_their_digits(self, base, length):
        assert render_numeral(zeros(base, length)).endswith(
            f" [{base ** length} positions: {length}]"
        )

    def test_a_length_past_the_limit_keeps_its_refusal(self):
        tag = render_numeral(zeros(10, 10 ** 4299)).split(" [")[1]
        assert tag == f"10^{10 ** 4299} positions: {10 ** 4299}]"
        with pytest.raises(errors.ExponentTooLarge):
            render_numeral(zeros(10, 10 ** 4300))

    def test_a_long_numeral_prints_through_the_cli(self, capsys):
        code = cli.run_line("num(10, 4300)", gclang.default_env(), json_mode=True, point=None)
        out = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_OK and out["type"] == "numeral"
        assert out["value"].endswith("[10^4300 positions: 4300]")


class TestFloatCount:
    def test_float_count_doubles_the_signed_line(self):
        for base in (2, 10, 36):
            assert float_count(base) == 2 * signed_line_count(base)
            assert float_count(base) == ExpCount(Fraction(4), base, 2 * G)

    @pytest.mark.parametrize("base", [1, 0, Fraction(5, 2)])
    def test_bad_base_keeps_its_error(self, base):
        with pytest.raises(errors.EvalError) as err:
            float_count(base)
        assert str(err.value) == f"radix must be an integer >= 2, got {base!r}"
