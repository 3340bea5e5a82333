"""Residue-class subsets of the naturals and their exact cardinalities.

Frozen expectations were produced by brute enumeration over 1..N for N a
multiple of every modulus involved, then cross-checked against the symbolic
cardinalities at G := N.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grosscalc import errors
from grosscalc.gnum import G, ZERO, fin
from grosscalc.oracle import brute_count, check_card, subst
from grosscalc.setmeasure import (
    EMPTY,
    EMPTY_SIGNED,
    INTEGERS,
    NATURALS,
    CombineE,
    ComplementE,
    FiniteSetE,
    ProgressionE,
    SetOp,
    SignedSet,
    card,
    card_signed,
    combine,
    combine_signed,
    complement,
    complement_signed,
    finite_set,
    lift_signed,
    members,
    nat_subset,
    product_card,
    progression,
    render_nat,
    render_signed,
)

ZERO_ONLY = SignedSet(EMPTY, True, EMPTY)


def brute(s, limit):
    """Extensional membership over 1..limit, straight from the definition."""
    out = set()
    residues, removed = s.residues, s.removed
    for n in range(1, limit + 1):
        r = n % s.modulus
        if (r in residues) != (n in removed):
            out.add(n)
    out |= {n for n in s.added if n <= limit}
    return out


class TestConstruction:
    def test_minimal_modulus(self):
        # evens described mod 6 collapse to mod 2
        s = nat_subset(6, {0, 2, 4})
        assert s.modulus == 2 and s.residues == frozenset({0})

    def test_exceptions_on_wrong_side_fold_away(self):
        s = nat_subset(2, {0}, added={4})  # 4 is already a member
        assert s.added == frozenset()
        t = nat_subset(2, {0}, removed={3})  # 3 was never a member
        assert t.removed == frozenset()

    def test_contradictory_exceptions_rejected(self):
        with pytest.raises(errors.EvalError):
            nat_subset(2, {0}, added={7}, removed={7})

    def test_progression(self):
        s = progression(14, 55)
        assert s.modulus == 55 and s.residues == frozenset({14})
        assert brute(s, 550) == set(range(14, 551, 55))

    def test_progression_with_holes(self):
        # multiples of 5 starting at 20: 5, 10, 15 are carved out
        s = progression(20, 5)
        assert s.removed == frozenset({5, 10, 15})
        assert brute(s, 100) == set(range(20, 101, 5))

    def test_finite_set(self):
        s = finite_set([3, 4, 5])
        assert s.modulus == 1 and s.residues == frozenset()
        assert s.added == frozenset({3, 4, 5})


class TestCombine:
    def test_intersection_of_progressions(self):
        # frozen: {4 + 5k} meet {3 + 11j} over 1..550 = {14, 69, ..., 509}
        a, b = progression(4, 5), progression(3, 11)
        s = combine(SetOp.INTERSECT, a, b)
        assert s.modulus == 55 and s.residues == frozenset({14})
        assert brute(s, 550) == brute(a, 550) & brute(b, 550)

    def test_union_with_finite_set(self):
        s = combine(
            SetOp.UNION,
            combine(SetOp.INTERSECT, progression(4, 5), progression(3, 11)),
            finite_set([3, 4, 5, 69]),
        )
        # 69 is 14 mod 55 so it folds into the class; 3, 4, 5 stay exceptions
        assert s.added == frozenset({3, 4, 5})
        assert s.removed == frozenset()
        assert brute(s, 550) == {3, 4, 5} | set(range(14, 551, 55))

    def test_difference(self):
        s = combine(SetOp.DIFFERENCE, progression(1, 2), finite_set([3, 7]))
        assert s.removed == frozenset({3, 7})
        assert brute(s, 100) == set(range(1, 101, 2)) - {3, 7}

    def test_complement(self):
        evens = nat_subset(2, {0})
        odds = complement(evens)
        assert odds == nat_subset(2, {1})
        assert complement(NATURALS) == EMPTY

    def test_complement_swaps_exceptions(self):
        s = combine(SetOp.UNION, progression(1, 2), finite_set([2]))
        c = complement(s)
        assert 2 in c.removed
        assert brute(c, 100) == set(range(1, 101)) - brute(s, 100)


class TestCard:
    def test_whole_line(self):
        assert card(NATURALS) == G
        assert card(EMPTY) == ZERO

    def test_halving(self):
        evens = nat_subset(2, {0})
        odds = nat_subset(2, {1})
        assert card(evens) == G / 2
        assert card(odds) == G / 2
        # frozen: split halves recombine to the whole
        assert card(evens) + card(odds) == G

    def test_square_residues(self):
        s = nat_subset(4, {1, 3})
        assert card(s) == G / 2

    def test_exceptions_shift_count(self):
        s = combine(SetOp.UNION, progression(1, 2), finite_set([2]))
        assert card(s) == G / 2 + 1
        t = combine(SetOp.DIFFERENCE, progression(1, 2), finite_set([3]))
        assert card(t) == G / 2 - 1

    def test_measured_union_value(self):
        # frozen: |{3,4,5,69} union ({4+5k} meet {3+11j})| = G/55 + 3
        s = combine(
            SetOp.UNION,
            combine(SetOp.INTERSECT, progression(4, 5), progression(3, 11)),
            finite_set([3, 4, 5, 69]),
        )
        assert card(s) == G / 55 + 3
        assert subst(card(s), 27720) == Fraction(27720, 55) + 3 == 507

    def test_finite_card(self):
        assert card(finite_set([3, 4, 5])) == fin(3)

    def test_additivity_of_disjoint_union(self):
        a = nat_subset(6, {1})
        b = nat_subset(6, {2, 4})
        u = combine(SetOp.UNION, a, b)
        assert card(u) == card(a) + card(b)

    def test_product_card(self):
        assert product_card(NATURALS, NATURALS) == G ** 2
        evens = nat_subset(2, {0})
        assert product_card(evens, NATURALS) == G ** 2 / 2


class TestMembers:
    def test_smallest_elements(self):
        s = combine(
            SetOp.UNION,
            combine(SetOp.INTERSECT, progression(4, 5), progression(3, 11)),
            finite_set([3, 4, 5, 69]),
        )
        assert members(s, 5) == (3, 4, 5, 14, 69)

    def test_skips_removed(self):
        s = combine(SetOp.DIFFERENCE, progression(1, 2), finite_set([1, 3]))
        assert members(s, 4) == (5, 7, 9, 11)

    def test_finite_exhaustion(self):
        assert members(finite_set([8, 2, 5]), 10) == (2, 5, 8)
        assert members(EMPTY, 3) == ()


class TestSigned:
    def test_integer_line(self):
        assert card_signed(INTEGERS) == 2 * G + 1
        assert render_signed(INTEGERS) == "Z"

    def test_lift(self):
        s = lift_signed(nat_subset(2, {0}))
        assert card_signed(s) == G / 2

    def test_zero_adjoined(self):
        s = combine_signed(SetOp.UNION, lift_signed(NATURALS), ZERO_ONLY)
        assert card_signed(s) == G + 1

    def test_zero_removed(self):
        no_zero = combine_signed(SetOp.DIFFERENCE, INTEGERS, ZERO_ONLY)
        assert card_signed(no_zero) == 2 * G

    def test_complement_involution(self):
        assert complement_signed(complement_signed(INTEGERS)) == INTEGERS
        assert complement_signed(INTEGERS) == EMPTY_SIGNED

    def test_membership(self):
        evens_z = SignedSet(nat_subset(2, {0}), True, nat_subset(2, {0}))
        for x, want in [(-4, True), (-3, False), (0, True), (2, True), (7, False)]:
            assert evens_z.contains(x) == want


class TestRender:
    @pytest.mark.parametrize(
        "build, text",
        [
            (lambda: NATURALS, "N"),
            (lambda: EMPTY, "{}"),
            (lambda: nat_subset(2, {0}), "ap(2, 2)"),
            (lambda: nat_subset(2, {1}), "ap(1, 2)"),
            (lambda: progression(14, 55), "ap(14, 55)"),
            (lambda: finite_set([3, 4, 5]), "{3, 4, 5}"),
            (
                lambda: combine(SetOp.UNION, progression(14, 55), finite_set([3, 4, 5])),
                "ap(14, 55) | {3, 4, 5}",
            ),
            (
                lambda: combine(SetOp.DIFFERENCE, progression(1, 2), finite_set([3])),
                "ap(1, 2) \\ {3}",
            ),
        ],
    )
    def test_forms(self, build, text):
        assert render_nat(build()) == text


class TestExprTrees:
    def example_tree(self):
        return CombineE(
            SetOp.UNION,
            CombineE(SetOp.INTERSECT, ProgressionE(4, 5), ProgressionE(3, 11)),
            FiniteSetE(frozenset({3, 4, 5, 69})),
        )

    def test_dual_route_agreement(self):
        e = self.example_tree()
        built = e.build()
        assert brute_count(e, 550) == len(brute(built, 550))
        mask = e.mask_upto(550)
        for n in (3, 4, 5, 13, 14, 15, 69, 124):
            assert bool(mask >> n & 1) == (n in brute(built, 550))

    def test_complement_tree(self):
        e = ComplementE(ProgressionE(2, 2))
        assert e.build() == nat_subset(2, {1})
        assert e.mask_upto(7) == 0b10101010

    def test_oracle_check_card(self):
        report = check_card(self.example_tree(), 27720)
        assert report.match
        assert report.symbolic_value == 507 and report.brute_value == 507

    def test_check_card_rejects_bad_points(self):
        e = ProgressionE(4, 5)
        with pytest.raises(errors.InvalidL):
            check_card(e, 27721)  # not divisible by 5
        f = FiniteSetE(frozenset({100}))
        with pytest.raises(errors.InvalidL):
            check_card(f, 500)  # below the 10x exception ceiling


# booleans of residue sets form an algebra; check the laws extensionally

moduli = st.integers(min_value=1, max_value=12)
subsets = st.builds(
    lambda m, picks, extra, holes: _build_subset(m, picks, extra, holes),
    moduli,
    st.sets(st.integers(min_value=0, max_value=11), max_size=6),
    st.sets(st.integers(min_value=1, max_value=60), max_size=3),
    st.sets(st.integers(min_value=1, max_value=60), max_size=3),
)


def _build_subset(m, picks, extra, holes):
    residues = {p % m for p in picks}
    s = nat_subset(m, residues)
    for n in extra:
        s = combine(SetOp.UNION, s, finite_set([n]))
    for n in holes:
        s = combine(SetOp.DIFFERENCE, s, finite_set([n]))
    return s


LIMIT = 27720  # lcm(1..12), exercises every residue class


@given(subsets, subsets)
@settings(max_examples=60, deadline=None)
def test_union_extensional(a, b):
    u = combine(SetOp.UNION, a, b)
    assert brute(u, LIMIT) == brute(a, LIMIT) | brute(b, LIMIT)


@given(subsets, subsets)
@settings(max_examples=60, deadline=None)
def test_intersection_extensional(a, b):
    u = combine(SetOp.INTERSECT, a, b)
    assert brute(u, LIMIT) == brute(a, LIMIT) & brute(b, LIMIT)


@given(subsets, subsets)
@settings(max_examples=60, deadline=None)
def test_difference_extensional(a, b):
    u = combine(SetOp.DIFFERENCE, a, b)
    assert brute(u, LIMIT) == brute(a, LIMIT) - brute(b, LIMIT)


@given(subsets)
@settings(max_examples=60, deadline=None)
def test_complement_involution(a):
    assert complement(complement(a)) == a


@given(subsets, subsets)
@settings(max_examples=40, deadline=None)
def test_de_morgan(a, b):
    lhs = complement(combine(SetOp.UNION, a, b))
    rhs = combine(SetOp.INTERSECT, complement(a), complement(b))
    assert lhs == rhs


@given(subsets, subsets)
@settings(max_examples=40, deadline=None)
def test_inclusion_exclusion(a, b):
    union = combine(SetOp.UNION, a, b)
    meet = combine(SetOp.INTERSECT, a, b)
    assert card(union) + card(meet) == card(a) + card(b)


@given(subsets)
@settings(max_examples=40, deadline=None)
def test_complement_card(a):
    assert card(a) + card(complement(a)) == G
