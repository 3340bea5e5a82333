"""Set algebra that costs what its residue classes cost, not the lcm.

The record operations pair classes by the Chinese remainder theorem, lift
classes to the lcm and strip primes to find the minimal period.  These tests
hold them to a dense reference (the walk over every residue of the lcm and
the scan over every divisor), run the oracle over coprime moduli, and pin
the size caps and the typed refusals that ride along.
"""
import json
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grosscalc import cli, errors, gnum, oracle
from grosscalc.gclang import default_env, eval_text
from grosscalc.gnum import G
from grosscalc.oracle import admissible_points, check_card
from grosscalc.setmeasure import (
    CombineE,
    ComplementE,
    FiniteSetE,
    NatSubset,
    ProgressionE,
    SetOp,
    UniverseNE,
    combine,
    complement,
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
    return NatSubset(modulus, residues, added, removed)


def dense_combine(op, s, t):
    lift = math.lcm(s.modulus, t.modulus)
    fn = _MEMBERSHIP[op]
    residues = [
        r for r in range(lift) if fn(r % s.modulus in s.residues, r % t.modulus in t.residues)
    ]
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


class TestSizeGuards:
    def test_four_prime_union(self):
        with pytest.raises(errors.RepresentationLimit):
            eval_text("ap(1,97) | ap(1,101) | ap(1,103) | ap(1,107)")

    def test_union_counts_the_classes_of_both_sides(self):
        # 2 classes of the lcm from the left, 1000003 from the right
        with pytest.raises(errors.RepresentationLimit):
            eval_text("ap(1, 1000003) | ap(2, 2)")

    def test_far_start(self):
        with pytest.raises(errors.RepresentationLimit):
            eval_text("ap(10^7, 2)")

    def test_far_start_at_the_cap(self):
        # 1, 3, ..., 1999999: exactly MAX_ITEMS skipped elements
        s = progression(2 * gnum.MAX_ITEMS + 1, 2)
        assert len(s.removed) == gnum.MAX_ITEMS

    def test_large_intersection(self):
        # 1008 * 1012 classes of the lcm survive
        with pytest.raises(errors.RepresentationLimit):
            eval_text("(N \\ ap(1,1009)) & (N \\ ap(1,1013))")

    def test_large_difference(self):
        with pytest.raises(errors.RepresentationLimit):
            eval_text("N \\ ap(1, 1000003)")

    def test_large_complement(self):
        with pytest.raises(errors.RepresentationLimit):
            complement(nat_subset(1000003, (0,)))

    def test_large_complement_in_the_language(self):
        with pytest.raises(errors.RepresentationLimit):
            eval_text("~ap(1, 1000003)")


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
            expected.extend(check_card(expr, L) for L in admissible_points(expr))
        assert reports == expected
