"""Tests of the benchmark's own reference checks.

    python3 -m pytest bench

They run against ./src (the checks themselves never import grosscalc; the
planted-answer tests go through the same verdict code as a benchmark run).
"""
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gcheck as gc  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


def explicit_count(contains, L):
    return sum(1 for x in range(1, L + 1) if contains(x))


# closed-form CRT counts


@pytest.mark.parametrize("seed", range(40))
def test_crt_card_matches_explicit_count(seed):
    rng = random.Random(seed)
    progs = [(rng.randint(1, 40), rng.randint(1, 12)) for _ in range(rng.randint(1, 3))]
    coeff, const = gc.crt_card(progs)

    def contains(x):
        return all(x >= a and (x - a) % d == 0 for a, d in progs)

    period = math.lcm(*(d for _, d in progs))
    for k in (1, 2, 7):  # the closed form holds once L is past every start
        L = period * (k + 40 // period)
        assert coeff * L + const == explicit_count(contains, L)


@pytest.mark.parametrize("seed", range(40))
def test_formula_card_matches_explicit_count(seed):
    rng = random.Random(1000 + seed)
    progs = [(rng.randint(1, 30), m) for m in rng.sample([2, 3, 5, 7, 11, 4, 9], rng.randint(1, 3))]
    table = [rng.random() < 0.5 for _ in range(1 << len(progs))]

    def member(bits):
        return table[bits]

    def contains(x):
        bits = sum(1 << i for i, (a, d) in enumerate(progs) if x >= a and (x - a) % d == 0)
        return table[bits]

    coeff, const = gc.formula_card(progs, member)
    period = 1
    for _, d in progs:
        period *= d
    for k in (3, 4):
        L = period * k + period * (40 // period + 1)
        assert coeff * L + const == explicit_count(contains, L)


def test_paper_example_closed_form():
    # ap(4,5) & ap(3,11) is the class 14 mod 55 from 14 on: G/55.  With
    # {3,4,5,69}, of which only 69 lies in that class, the count is G/55 + 3.
    assert gc.crt_card([(4, 5), (3, 11)]) == (Fraction(1, 55), 0)
    assert gc.crt_card([(69, 5), (3, 11)]) == (Fraction(1, 55), -1)


def test_periodic_card_and_recipe_counter():
    rng = random.Random(7)
    for _ in range(30):
        r = wl.random_recipe(rng)
        period, threshold = wl.recipe_shape(r)
        members = wl.recipe_members(r, threshold + 3 * period)
        coeff, const = gc.periodic_card(members.__contains__, period, threshold)
        count = wl.recipe_counter(r)
        for k in (1, 2, 3):
            L = period * (threshold // period + k)
            direct = len(wl.recipe_members(r, L))
            assert coeff * L + const == direct == count(L)


# Fraction substitution


@pytest.mark.parametrize("L", [2, 3, 7, 10, 1000])
def test_substitution_matches_hand_expansion(L):
    cases = {
        "(G + 1)^3": L**3 + 3 * L**2 + 3 * L + 1,
        "(2*G + 3) * (G - 1)": 2 * L**2 + L - 3,
        "(G^2 - 1) * (G^2 + 1)": L**4 - 1,
        "(G^3 + G) / (2*G)": Fraction(L**2 + 1, 2),
        "G/55 + 3": Fraction(L, 55) + 3,
        "G^(G + 1) / G^G": L,
        "3*2^(G + 1) - 2^G": 5 * 2**L,
        "-(G - 2)^2 + G^2": 4 * L - 4,
    }
    for text, value in cases.items():
        assert gc.at(gc.parse(text), L) == value, text


def test_substitution_critical_length():
    assert gc.at(gc.parse("crit(10, G)"), 999) == 2
    assert gc.at(gc.parse("crit(10, G)"), 1000) == 3
    assert gc.at(gc.parse("(crit(2, 3*G) + 1)"), 8) == 5
    assert gc.at(gc.parse("numerals(2, G/2)"), 6) == 8


def test_normal_form_equality_and_order():
    assert gc.nf_text("(G + 1)^2") == gc.nf_text("G^2 + 2*G + 1")
    assert gc.nf_text("5*2^(G + 1)") == gc.nf_text("2^(G + 3) + 2*2^G")
    assert gc.nf_text("G^(2*G^(G + 7))") == gc.nf_text("G^(G^(G + 7)) * G^(G^(G + 7))")
    assert gc.nf_text("G^2") != gc.nf_text("G^2 + 1")
    assert gc.verdict("<", "2^G", "10^G") == "true"
    assert gc.verdict("<", "2^(3*G)", "3^(2*G)") == "true"
    assert gc.verdict(">", "G^3", "G^2 + 100*G") == "true"
    assert gc.verdict("<", "numerals(10, crit(10, G))", "G/2") == "Undetermined"
    assert gc.verdict("<=", "numerals(10, crit(10, G))", "G + 1") == "true"


# planted answers go through the benchmark's own verdict code


@pytest.fixture(scope="module")
def program():
    return run.load_program()


def _json(value, type_="count"):
    return json.dumps({"input": "x", "value": value, "type": type_})


def _paper_op(text):
    return next(wl.Op(t, c) for t, c in wl.PAPER if t == text)


def test_planted_wrong_answer_is_a_failed_op(program):
    op = _paper_op("card({3,4,5,69} | (ap(4,5) & ap(3,11)))")
    right, wrong = run.verdicts([op, op], [_json("G/55 + 3"), _json("G/55 + 4")], program)
    assert right == "ok"
    assert wrong not in ("ok", "fault")


def test_planted_wrong_refusal_and_crash(program):
    op = _paper_op("2^G - 3^G")
    kinds = run.verdicts(
        [op, op, op],
        [json.dumps({"error": {"kind": "UnsupportedSum", "detail": ""}}),
         json.dumps({"error": {"kind": "Undetermined", "detail": ""}}),
         ("crash", "ValueError")],
        program,
    )
    assert kinds[0] == "ok"
    assert kinds[1] not in ("ok", "fault")
    assert kinds[2] not in ("ok", "fault")  # only the kept faults may crash


def test_kept_fault_counts_as_failed_not_wrong(program):
    fault = wl.fault_ops()[0]
    crashed, fixed, refused = run.verdicts(
        [fault, fault, fault],
        [("crash", "ValueError"), _json("2"), json.dumps({"error": {"kind": "RepresentationLimit"}})],
        program,
    )
    assert crashed == "fault"
    assert fixed == "ok" and refused == "ok"


def test_planted_wrong_set_count(program):
    ops = wl.coprime_sets(3)[:20]
    runner, _ = run.make_runner("coprime_sets", ops, program)
    raws = [runner(op) for op in ops]
    assert run.verdicts(ops, raws, program) == ["ok"] * len(ops)
    bent = [("value", "G/7 + 1", "count") if r[2] == "count" else ("value", "[1]", "sequence") for r in raws]
    assert all(v not in ("ok", "fault") for v in run.verdicts(ops, bent, program))
