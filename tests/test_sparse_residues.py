"""Set algebra that costs what its description costs, not its expansion.

A record stores the sparser side of its classes and a floor below which no
member-class element is a member.  Complements flip a flag, far progressions
list no holes, and combinations meet the stored sides by the Chinese
remainder theorem or by lifting the sparser sides to the lcm; the minimal
period comes from stripping primes.  These tests hold the records to a dense
reference (the walk over every residue of the lcm, the scan over every
divisor and the explicit holes of a progression), run the oracle over
coprime moduli, and pin the size caps and the typed refusals that ride
along.
"""
import itertools
import json
import math
import random
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grosscalc import cli, errors, gnum, oracle, setmeasure
from grosscalc.gclang import default_env, eval_text
from grosscalc.gnum import G
from grosscalc.oracle import admissible_points, check_card, check_set
from grosscalc.setmeasure import (
    NATURALS,
    CombineE,
    ComplementE,
    FiniteSetE,
    NatSubset,
    ProgressionE,
    SetOp,
    UniverseNE,
    card,
    combine,
    complement,
    largest_exception,
    members,
    nat_subset,
    progression,
)

_MEMBERSHIP = {
    SetOp.UNION: lambda a, b: a or b,
    SetOp.INTERSECT: lambda a, b: a and b,
    SetOp.DIFFERENCE: lambda a, b: a and not b,
}


# the dense reference: every residue of the lcm, every divisor of the modulus


def dense_nat_subset(modulus, residues, added=(), removed=()):
    residues = frozenset(r % modulus for r in residues)
    for d in range(1, modulus + 1):
        if modulus % d:
            continue
        folded = {r % d for r in residues}
        if all(((r % d) in folded) == (r in residues) for r in range(modulus)):
            modulus, residues = d, frozenset(folded)
            break
    added = frozenset(a for a in added if (a % modulus) not in residues)
    removed = frozenset(r for r in removed if (r % modulus) in residues)
    return nat_subset(modulus, residues, added, removed)


def dense_combine(op, s, t):
    lift = math.lcm(s.modulus, t.modulus)
    fn = _MEMBERSHIP[op]
    rs, rt = s.residues, t.residues
    residues = [r for r in range(lift) if fn(r % s.modulus in rs, r % t.modulus in rt)]
    added, removed = [], []
    for x in s.added | s.removed | t.added | t.removed:
        is_in = fn(s.contains(x), t.contains(x))
        if is_in and x % lift not in residues:
            added.append(x)
        elif not is_in and x % lift in residues:
            removed.append(x)
    return dense_nat_subset(lift, residues, added, removed)


def dense_complement(s):
    residues = set(range(s.modulus)) - s.residues
    return dense_nat_subset(s.modulus, residues, added=s.removed, removed=s.added)


def dense_progression(first, step):
    r = first % step
    return dense_nat_subset(step, (r,), removed=range(r if r >= 1 else step, first, step))


@st.composite
def descriptions(draw, max_modulus=60):
    """A raw (modulus, residues, added, removed) description, not canonical."""
    modulus = draw(st.integers(1, max_modulus))
    residues = draw(st.frozensets(st.integers(0, 3 * modulus), max_size=2 * modulus))
    added = draw(st.frozensets(st.integers(1, 300), max_size=4))
    removed = draw(st.frozensets(st.integers(1, 300), max_size=4)) - added
    return modulus, residues, added, removed


@st.composite
def periodic_descriptions(draw):
    """A description whose pattern repeats a short block: periods to find."""
    block = draw(st.integers(1, 12))
    pattern = draw(st.frozensets(st.integers(0, block - 1)))
    modulus = block * draw(st.integers(1, 5))
    residues = {r for r in range(modulus) if r % block in pattern}
    added = draw(st.frozensets(st.integers(1, 300), max_size=4))
    removed = draw(st.frozensets(st.integers(1, 300), max_size=4)) - added
    return modulus, residues, added, removed


records = st.one_of(descriptions(), periodic_descriptions()).map(lambda d: nat_subset(*d))


class TestAgainstDenseReference:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(descriptions(), periodic_descriptions()))
    def test_nat_subset(self, description):
        assert nat_subset(*description) == dense_nat_subset(*description)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(list(SetOp)), records, records)
    def test_combine(self, op, s, t):
        assert combine(op, s, t) == dense_combine(op, s, t)

    @settings(max_examples=200, deadline=None)
    @given(records)
    def test_complement(self, s):
        assert complement(s) == dense_complement(s)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 500), st.integers(1, 60))
    def test_progression(self, first, step):
        assert progression(first, step) == dense_progression(first, step)

    def test_minimal_period_of_prime_powers(self):
        # 2^3 * 3^2 * 5 with a pattern of period 2^2 * 3 = 12
        residues = {r for r in range(360) if r % 12 in (1, 5, 6)}
        s = nat_subset(360, residues)
        assert s.modulus == 12 and s.residues == frozenset({1, 5, 6})
        assert s == dense_nat_subset(360, residues)


far_progressions = st.builds(progression, st.integers(1, 2000), st.integers(1, 12))
complemented = records.map(complement)
described = st.one_of(records, complemented, far_progressions)


def dense(s):
    """The same set rebuilt by the dense reference from its expanded views."""
    return dense_nat_subset(s.modulus, s.residues, s.added, s.removed)


def brute_members(s, n):
    """The n smallest members, by membership tests from 1 on (records here
    have fewer than n members only when they are finite, below 10^5)."""
    return tuple(itertools.islice((x for x in range(1, 10**5) if s.contains(x)), n))


class TestDescriptionCost:
    def test_complement_stores_one_class(self):
        c = complement(progression(5, 999983))
        assert c.complemented and c.classes == frozenset({5})
        assert len(c.residues) == 999982 and 5 not in c.residues and 6 in c.residues

    def test_far_progression_lists_no_holes(self):
        s = progression(2000001, 2)
        assert s.holes == frozenset() and s.floor == 2000001
        assert len(s.removed) == 10**6 and 1999999 in s.removed and 2000001 not in s.removed

    def test_naturals_store_nothing(self):
        assert NATURALS.complemented and NATURALS.classes == frozenset()
        s = combine(SetOp.DIFFERENCE, NATURALS, progression(7, 999983))
        assert s.complemented and s.classes == frozenset({7})
        assert card(s) == 999982 * G / 999983

    def test_complement_of_a_tie_stores_the_members(self):
        c = complement(nat_subset(4, {0, 1}))
        assert not c.complemented and c.classes == frozenset({2, 3})

    def test_views_keep_their_meaning(self):
        c = complement(combine(SetOp.UNION, progression(3, 7), FiniteSetE(frozenset({2})).build()))
        assert c.residues == frozenset({0, 1, 2, 4, 5, 6}) and c.removed == frozenset({2})
        assert progression(20, 5).removed == frozenset({5, 10, 15})

    @pytest.mark.parametrize(
        "text, rendered",
        [
            ("ap(20, 5)", "ap(5, 5) \\ {5, 10, 15}"),
            ("~ap(7, 4)", "ap(4, 4) | ap(1, 4) | ap(2, 4) | {3}"),
            ("(ap(9, 4) | ap(11, 6)) \\ {21}", "(ap(1, 12) | ap(5, 12) | ap(9, 12) | ap(11, 12)) \\ {1, 5, 21}"),
            ("ap(13, 3) & ~{16}", "ap(1, 3) \\ {1, 4, 7, 10, 16}"),
            ("N \\ {1, 2, 3}", "ap(1, 1) \\ {1, 2, 3}"),
        ],
    )
    def test_renderings_list_the_holes_below_the_floor(self, text, rendered):
        assert str(eval_text(text).record) == rendered

    def test_union_cap_counts_both_sides_lifted(self):
        # the lcm is past half the cap but not past it, so only the count of
        # both sides lifted refuses this, as it did when they were listed
        with pytest.raises(errors.RepresentationLimit) as info:
            eval_text("~ap(1, 600000) | ~ap(2, 600000)")
        assert str(info.value) == (
            "residue classes of S | T at modulus 600000: 1199998 past MAX_ITEMS = 1000000"
        )

    def test_cost_follows_the_description(self):
        # each line expanded a million classes or holes; now none is
        start = time.perf_counter()
        for i in range(1, 31):
            assert eval_text(f"card(N \\ ap({i}, 999983))") == 999982 * G / 999983
            assert eval_text(f"card(~ap({i}, 999983))") == 999982 * G / 999983
            assert eval_text(f"card(ap({1999999 - i}, 2))") == G / 2 - (1999998 - i) // 2
        assert time.perf_counter() - start < 2.0

    def test_wide_intersection_pairs_the_member_classes(self, monkeypatch):
        # each side holds just over half its classes, so the stored sides
        # would lift to about 10^10 classes of the lcm, while the member
        # sides pair up in about 10^5
        lift_classes = setmeasure._lift

        def bounded(residues, modulus, lift):
            assert len(residues) * (lift // modulus) <= gnum.MAX_ITEMS, "lifted past the cap"
            return lift_classes(residues, modulus, lift)

        monkeypatch.setattr(setmeasure, "_lift", bounded)
        start = time.perf_counter()
        assert eval_text(
            "card((ap(1, 2) | ap(2, 100003)) & (ap(2, 2) & ~ap(2, 100019)))"
        ) == 50009 * G / 10002200057
        assert eval_text(
            "card((ap(2, 2) | ap(1, 100003)) & (ap(1, 2) | ap(2, 100019)))"
        ) == 100011 * G / 10002200057
        assert time.perf_counter() - start < 5.0

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(list(SetOp)), described, described)
    def test_wide_intersection(self, op, s, t):
        # under a cap of 40 most lcms are past it, and the cap refuses just
        # the meets whose member sides list more classes of the lcm: both
        # sides lifted for a union, the left one for a difference and the
        # CRT pairs for an intersection
        lift = math.lcm(s.modulus, t.modulus)
        rs, rt = s.residues, t.residues
        in_s = [r % s.modulus in rs for r in range(lift)]
        in_t = [r % t.modulus in rt for r in range(lift)]
        listed = {
            SetOp.UNION: sum(in_s) + sum(in_t),
            SetOp.DIFFERENCE: sum(in_s),
            SetOp.INTERSECT: sum(a and b for a, b in zip(in_s, in_t)),
        }[op]
        with mock.patch.object(gnum, "MAX_ITEMS", 40):
            try:
                got = combine(op, s, t)
            except errors.RepresentationLimit:
                assert listed > 40
                return
        assert listed <= 40
        assert got == dense_combine(op, dense(s), dense(t))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(list(SetOp)), described, described)
    def test_combine(self, op, s, t):
        assert combine(op, s, t) == dense_combine(op, dense(s), dense(t))

    @settings(max_examples=200, deadline=None)
    @given(described)
    def test_complement(self, s):
        assert complement(s) == dense_complement(dense(s))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 2000), st.integers(1, 12))
    def test_far_progression(self, first, step):
        assert progression(first, step) == dense_progression(first, step)

    @settings(max_examples=200, deadline=None)
    @given(described, st.integers(1, 12))
    def test_members(self, s, n):
        assert members(s, n) == brute_members(s, n)

    def test_members_of_a_wide_union(self):
        assert eval_text("members(ap(32, 283) | ap(126, 271), 1)") == (32,)
        assert members(complement(progression(1, 999983)), 3) == (2, 3, 4)
        assert members(progression(2000001, 2), 2) == (2000001, 2000003)


class TestOracleReadsTheDescription:
    @pytest.fixture
    def no_expansion(self, monkeypatch):
        def expanded(self):
            raise AssertionError("the holes below a floor were listed")

        monkeypatch.setattr(NatSubset, "removed", property(expanded))

    def test_far_progression(self, no_expansion):
        s = progression(2001, 2)
        assert largest_exception(s) == 1999
        assert check_set(ProgressionE(2001, 2), s, 20000).match
        assert card(s) == G / 2 - 1000

    def test_refusal_text(self, no_expansion):
        with pytest.raises(errors.InvalidL) as info:
            check_set(ProgressionE(21, 2), progression(21, 2), 100)
        assert str(info.value) == "L=100 is not beyond 10x the largest exception 19"

    @pytest.mark.parametrize(
        "text",
        ["ap(20, 1)", "ap(42, 6)", "ap(40, 3) | ap(41, 3)", "ap(41, 6) \\ {53}", "ap(41, 6) | {1}", "~{4, 9}"],
    )
    def test_ceiling_is_the_largest_exception(self, text):
        s = eval_text(text).record
        expected = max(s.added | s.removed, default=0)
        assert largest_exception(s) == expected


def _one_modulus_recipe(rng, step):
    """A union of classes of one step, perhaps with exceptions, perhaps
    complemented."""
    expr = ProgressionE(rng.randint(1, 150), step)
    for _ in range(rng.randint(0, 2)):
        expr = CombineE(SetOp.UNION, expr, ProgressionE(rng.randint(1, 150), step))
    if rng.random() < 0.3:
        holes = FiniteSetE(frozenset(rng.randint(1, 150) for _ in range(rng.randint(1, 3))))
        expr = CombineE(SetOp.DIFFERENCE, expr, holes)
    if rng.random() < 0.3:
        expr = ComplementE(expr)
    return expr


class TestCoprimeOracleSweep:
    def test_coprime_moduli_up_to_100(self):
        rng = random.Random(2026)
        moduli = []
        for _ in range(40):
            while True:
                a, b = rng.randint(2, 100), rng.randint(2, 100)
                if a != b and math.gcd(a, b) == 1:
                    break
            expr = CombineE(
                rng.choice(list(SetOp)),
                _one_modulus_recipe(rng, a),
                _one_modulus_recipe(rng, b),
            )
            moduli.append(expr.build().modulus)
            for L in admissible_points(expr):
                report = check_card(expr, L)
                assert report.match, str(report)
        # most recipes keep a modulus that mixes both moduli's classes
        assert sum(m > 100 for m in moduli) >= 30


class TestPrimeIntersections:
    FOUR = "card(ap(1,97) & ap(1,101) & ap(1,103) & ap(1,107))"
    FIVE = "card(ap(1,97) & ap(1,101) & ap(1,103) & ap(1,107) & ap(1,109))"

    def test_four_primes(self):
        assert eval_text(self.FOUR) == G / 107972737

    def test_five_primes(self):
        assert eval_text(self.FIVE) == G / 11769028333

    def test_cost_does_not_follow_the_lcm(self):
        # the walk over the lcm took tens of seconds here
        start = time.perf_counter()
        eval_text(self.FOUR)
        assert time.perf_counter() - start < 1.0

    def test_offset_classes_meet_by_crt(self):
        s = eval_text("ap(3,97) & ap(5,101) & ap(7,103)").record
        assert s.modulus == 97 * 101 * 103 and len(s.residues) == 1
        (x,) = s.residues
        assert (x % 97, x % 101, x % 103) == (3, 5, 7)


def refusal(build):
    """The text of the RepresentationLimit that build() raises."""
    with pytest.raises(errors.RepresentationLimit) as info:
        build()
    return str(info.value)


def cap_text(what, modulus, size):
    return f"residue classes of {what} at modulus {modulus}: {size} past MAX_ITEMS = 1000000"


class TestSizeGuards:
    def test_four_prime_union(self):
        assert refusal(lambda: eval_text("ap(1,97) | ap(1,101) | ap(1,103) | ap(1,107)")) == (
            cap_text("S | T", 107972737, 4207428)
        )

    def test_union_counts_the_classes_of_both_sides(self):
        # 2 classes of the lcm from the left, 1000003 from the right
        assert refusal(lambda: eval_text("ap(1, 1000003) | ap(2, 2)")) == (
            cap_text("S | T", 2000006, 1000005)
        )

    def test_far_start(self):
        assert refusal(lambda: eval_text("ap(10^7, 2)")) == (
            "elements ap(10000000, 2) skips below its start: 4999999 past MAX_ITEMS = 1000000"
        )

    def test_far_start_at_the_cap(self):
        # 1, 3, ..., 1999999: exactly MAX_ITEMS skipped elements
        s = progression(2 * gnum.MAX_ITEMS + 1, 2)
        assert len(s.removed) == gnum.MAX_ITEMS

    def test_large_intersection(self):
        # 1008 * 1012 classes of the lcm survive
        assert refusal(lambda: eval_text("(N \\ ap(1,1009)) & (N \\ ap(1,1013))")) == (
            cap_text("S & T", 1022117, 1020096)
        )

    def test_large_member_side_intersection(self):
        # two member sides are counted up front like any other meet, and
        # their CRT pairs number 1001 * 1005
        s, t = nat_subset(2003, range(1001)), nat_subset(2011, range(1005))
        assert refusal(lambda: combine(SetOp.INTERSECT, s, t)) == (
            cap_text("S & T", 4028033, 1006005)
        )

    def test_large_difference(self):
        assert refusal(lambda: eval_text("N \\ ap(1, 1000003)")) == (
            cap_text("S \\ T", 1000003, 1000003)
        )

    def test_large_complement(self):
        assert refusal(lambda: complement(nat_subset(1000003, (0,)))) == (
            cap_text("~S", 1000003, 1000002)
        )

    def test_large_complement_in_the_language(self):
        assert refusal(lambda: eval_text("~ap(1, 1000003)")) == (
            cap_text("~S", 1000003, 1000002)
        )


class TestPowerOfAnExponentialCount:
    def test_typed_error(self):
        with pytest.raises(errors.UnsupportedPower):
            eval_text("G^(2^G)")
        with pytest.raises(errors.UnsupportedPower):
            eval_text("(G^2)^(3^G)")

    def test_json_mode_prints_the_error(self, capsys):
        code = cli.run_line("G^(2^G)", default_env(), json_mode=True, point=None)
        assert code == cli.EXIT_EVAL
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["kind"] == "UnsupportedPower"


class _CountedBuilds(UniverseNE):
    builds = 0

    def build(self):
        type(self).builds += 1
        return super().build()


class TestSweepBuildsOnce:
    def test_one_build_per_recipe(self, monkeypatch):
        _CountedBuilds.builds = 0
        monkeypatch.setattr(oracle, "random_set_expr", lambda rng: _CountedBuilds())
        failures, reports = oracle.sweep(1, 5)
        assert failures == 0 and len(reports) == 15
        assert _CountedBuilds.builds == 5

    def test_reports_match_the_public_route(self):
        _, reports = oracle.sweep(2026, 30)
        rng = random.Random(2026)
        expected = []
        for _ in range(30):
            expr = oracle.random_set_expr(rng)
            # int(L) drops the record the point carries: each check builds anew
            expected.extend(check_card(expr, int(L)) for L in admissible_points(expr))
        assert reports == expected
