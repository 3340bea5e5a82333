"""The oracle's brute count, held to the set walk it replaced.

``brute_count`` writes each tree's extension over {1..L} as one int, bit x
set for member x.  ``reference_extension`` keeps the earlier walk, one
Python set per node, so that the masks can be checked member by member
against it over random trees and points.
"""
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grosscalc import errors, gnum
from grosscalc.oracle import brute_count, random_set_expr
from grosscalc.setmeasure import (
    EMPTY_E,
    UNIVERSE_Z_E,
    CombineE,
    ComplementE,
    FiniteSetE,
    ProgressionE,
    SetOp,
    SignedSet,
    UniverseNE,
    combine_signed,
    complement_signed,
    lift_signed,
    mirror_signed,
)


def reference_extension(tree, L: int) -> set:
    """The members of tree in {1..L}, or in {-L..L} for a signed tree."""
    if isinstance(tree, SignedSet):
        out = {-x for x in reference_extension(tree.negatives, L)}
        out |= reference_extension(tree.positives, L)
        return out | {0} if tree.has_zero else out
    if isinstance(tree, FiniteSetE):
        return {e for e in tree.elems if 1 <= e <= L}
    if isinstance(tree, ProgressionE):
        return set(range(tree.first, L + 1, tree.step))
    if isinstance(tree, UniverseNE):
        return set(range(1, L + 1))
    if isinstance(tree, ComplementE):
        return set(range(1, L + 1)) - reference_extension(tree.inner, L)
    a, b = reference_extension(tree.left, L), reference_extension(tree.right, L)
    return {SetOp.UNION: a | b, SetOp.INTERSECT: a & b, SetOp.DIFFERENCE: a - b}[tree.op]


def mask_members(mask: int) -> set:
    return {x for x, bit in enumerate(reversed(bin(mask))) if bit == "1"}


def extension(tree, L: int) -> set:
    """The members brute_count counts, read from the masks."""
    if isinstance(tree, SignedSet):
        out = {-x for x in mask_members(tree.negatives.mask_upto(L))}
        out |= mask_members(tree.positives.mask_upto(L))
        return out | {0} if tree.has_zero else out
    return mask_members(tree.mask_upto(L))


nat_trees = st.integers(0, 2 ** 32).map(lambda seed: random_set_expr(random.Random(seed)))
signed_trees = st.recursive(
    st.one_of(
        nat_trees.map(lift_signed),
        nat_trees.map(mirror_signed),
        st.sampled_from([UNIVERSE_Z_E, SignedSet(EMPTY_E, True, EMPTY_E)]),
    ),
    lambda inner: st.one_of(
        st.builds(combine_signed, st.sampled_from(SetOp), inner, inner),
        inner.map(complement_signed),
    ),
    max_leaves=4,
)
points = st.integers(1, 2000)


@given(nat_trees, points)
@settings(max_examples=300, deadline=None)
def test_masks_of_natural_trees_match_the_set_walk(tree, L):
    want = reference_extension(tree, L)
    assert extension(tree, L) == want
    assert brute_count(tree, L) == len(want)


@given(signed_trees, points)
@settings(max_examples=200, deadline=None)
def test_masks_of_signed_trees_match_the_set_walk(tree, L):
    want = reference_extension(tree, L)
    assert extension(tree, L) == want
    assert brute_count(tree, L) == len(want)


@pytest.mark.parametrize(
    "tree, L, members",
    [
        (ProgressionE(50, 3), 49, set()),  # starts past L
        (ProgressionE(50, 3), 50, {50}),
        (ProgressionE(5, 1), 9, {5, 6, 7, 8, 9}),
        (ProgressionE(1, 1), 1, {1}),
        (FiniteSetE(frozenset({3, 50, 10})), 10, {3, 10}),  # 50 lies above L
        (EMPTY_E, 10, set()),
        (ComplementE(EMPTY_E), 4, {1, 2, 3, 4}),
        (CombineE(SetOp.DIFFERENCE, UniverseNE(), ProgressionE(2, 2)), 7, {1, 3, 5, 7}),
    ],
)
def test_edges(tree, L, members):
    assert reference_extension(tree, L) == members
    assert extension(tree, L) == members
    assert brute_count(tree, L) == len(members)


def test_wide_steps_cost_no_long_division():
    # a progression's mask is built by doubling a pattern, so a step of
    # half a million bits takes shifts, not a quadratic division by 2^step - 1
    tree = CombineE(SetOp.UNION, ProgressionE(1, 500_000), ProgressionE(3, 333_333))
    start = time.perf_counter()
    assert brute_count(tree, gnum.MAX_ITEMS) == 5
    assert time.perf_counter() - start < 1.0


class TestPointCap:
    @pytest.mark.parametrize("tree", [UniverseNE(), UNIVERSE_Z_E])
    def test_a_point_past_the_cap_is_refused_before_any_mask(self, tree):
        with pytest.raises(errors.InvalidL) as info:
            brute_count(tree, gnum.MAX_ITEMS + 1)
        assert str(info.value) == "brute-force point L: 1000001 past MAX_ITEMS = 1000000"

    @pytest.mark.parametrize("L", [0, -1, -2])
    def test_a_point_below_one_is_refused(self, L):
        # the naturals' mask (1 << L + 1) - 2 would read -1 at L = -1
        with pytest.raises(errors.InvalidL):
            brute_count(UNIVERSE_Z_E, L)

    def test_the_cap_is_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(gnum, "MAX_ITEMS", 10)
        assert brute_count(UniverseNE(), 10) == 10
        with pytest.raises(errors.InvalidL):
            brute_count(UniverseNE(), 11)
