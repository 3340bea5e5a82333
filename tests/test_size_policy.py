"""The size policy: gnum.MAX_POWER_BITS bounds every exact power computed,
a power of a count by its terms times coefficient bits, gnum.MAX_ITEMS
everything listed, lifted, skipped or expanded one by one, and
gnum.MAX_DIGITS every integer written or read.  Every guard is one
gnum.refuse call, so each refusal has one shape, ``what: size past CAP =
value``, that names the cap it hit and any integer however long.  Each
guard passes at its cap and refuses one past it, and lowering a cap in gnum
moves every guard and message on it."""

import json
import re
import time

import pytest

from grosscalc import cli, errors, gclang, gnum, oracle, posnum, setmeasure
from grosscalc.setmeasure import NATURALS, SetOp, UniverseNE, combine, nat_subset, progression

WIDE = "2^14000 * 2^14000"  # a 28000-bit integer, past gnum.MAX_DIGITS digits


def _run(line, capsys, point=None):
    code = cli.run_line(line, gclang.default_env(), json_mode=True, point=point)
    return code, json.loads(capsys.readouterr().out)


# one input at each guard's cap, and its value
AT_CAP = [
    ("2^(G + 500000) / 2^G == 2^500000", "true"),
    ("2^500000 > 1", "true"),
    ("numerals(2, crit(2, G) + 500000) > G", "true"),
    ("3 * 2^(G + 1/500000) > 2^G", "true"),
    ("2^(500000*G) > 3^G", "true"),
    ("subst(2^G, 500000) > 1", "true"),
    ("subst(G^100000, 1000) > 1", "true"),
    ("card(ap(2000001, 2))", "G/2 - 1000000"),
    ("card(N | ap(1, 999999))", "G"),
    ("card(N \\ ap(1, 1000000))", "999999*G/1000000"),
    ("card((N \\ ap(1, 17)) & (N \\ ap(1, 62501)))", "1000000*G/1062517"),
    ("card(~ap(1, 1000001))", "1000000*G/1000001"),
    ("(2^3999*G)^250 > G", "true"),
    # 707 terms of 1412 bits
    ("(G + 1)^706 > G", "true"),
    # 999 exponents from 0 to 998 of 998 bits, not C(501, 2) terms
    ("(G^2 + G + 1)^499 > G", "true"),
    ("(2^G)^1000000 == 2^(1000000*G)", "true"),
]


@pytest.mark.parametrize("line, value", AT_CAP)
def test_each_guard_passes_at_its_cap(line, value):
    assert gclang.render_value(gclang.eval_text(line)) == value


# one input just past each guard's cap, and the error it ends in
PAST_CAP = [
    (
        "2^(G + 500001) / 2^G",
        "ExponentTooLarge",
        "bit bound of 2^500001: 1000002 past MAX_POWER_BITS = 1000000",
    ),
    ("2^500001", "ExponentTooLarge", "bit bound of 2^500001: 1000002 past MAX_POWER_BITS = 1000000"),
    (
        "(1/2)^500001",
        "ExponentTooLarge",
        "bit bound of 1/2^500001: 1000002 past MAX_POWER_BITS = 1000000",
    ),
    (
        "numerals(2, crit(2, G) + 500001) > G",
        "ExponentTooLarge",
        "bit bound of 2^500001 in a critical-length comparison: 1000002 past MAX_POWER_BITS = "
        "1000000",
    ),
    (
        "3 * 2^(G + 1/500001) > 2^G",
        "ExponentTooLarge",
        "bit bound of a cross-power comparison at exponent 1/500001: 1000002 past MAX_POWER_BITS = "
        "1000000",
    ),
    (
        "2^(500001*G) > 3^G",
        "ExponentTooLarge",
        "bit bound of a cross-power comparison at exponent 500001: 1000002 past MAX_POWER_BITS = "
        "1000000",
    ),
    (
        "subst(2^G, 500001)",
        "ExponentTooLarge",
        "bit bound of 2^500001 in a substitution: 1000002 past MAX_POWER_BITS = 1000000",
    ),
    (
        "subst(G^100001, 1000)",
        "ExponentTooLarge",
        "bit bound of 1000^100001 in a substitution: 1000010 past MAX_POWER_BITS = 1000000",
    ),
    (
        "ap(2000003, 2)",
        "RepresentationLimit",
        "elements ap(2000003, 2) skips below its start: 1000001 past MAX_ITEMS = 1000000",
    ),
    (
        "N | ap(1, 1000000)",
        "RepresentationLimit",
        "residue classes of S | T at modulus 1000000: 1000001 past MAX_ITEMS = 1000000",
    ),
    (
        "N \\ ap(1, 1000001)",
        "RepresentationLimit",
        "residue classes of S \\ T at modulus 1000001: 1000001 past MAX_ITEMS = 1000000",
    ),
    (
        "(N \\ (ap(1, 103) | ap(2, 103))) & (N \\ ap(1, 9902))",
        "RepresentationLimit",
        "residue classes of S & T at modulus 1019906: 1000001 past MAX_ITEMS = 1000000",
    ),
    (
        "~ap(1, 1000002)",
        "RepresentationLimit",
        "residue classes of ~S at modulus 1000002: 1000001 past MAX_ITEMS = 1000000",
    ),
    (
        "members(ap(1, 2), 1000001)",
        "RepresentationLimit",
        "members listed: 1000001 past MAX_ITEMS = 1000000",
    ),
    (
        'pred(num(10, 1000002){head: "1"})',
        "RepresentationLimit",
        "digits 9 written out by the predecessor: 1000001 past MAX_ITEMS = 1000000",
    ),
    (
        "first(10, G, 1000001)",
        "RepresentationLimit",
        "numerals enumerated: 1000001 past MAX_ITEMS = 1000000",
    ),
    # 708 terms of 1414 bits
    pytest.param(
        "(G + 1)^707",
        "ExponentTooLarge",
        "coefficient bits of (G + 1)^707: 1001112 past MAX_POWER_BITS = 1000000",
        id="terms-times-coefficient-bits-of-a-power",
    ),
    # 1001 terms of 1000 bits
    (
        "(G^2 + G + 1)^500",
        "ExponentTooLarge",
        "coefficient bits of (G^2 + G + 1)^500: 1001000 past MAX_POWER_BITS = 1000000",
    ),
    pytest.param(
        "(2^1999*G)^501",
        "ExponentTooLarge",
        f"coefficient bits of ({2 ** 1999}*G)^501: 1002000 past MAX_POWER_BITS = 1000000",
        id="coefficient-bits-of-a-power",
    ),
    pytest.param(
        "1" * 4301,
        "RepresentationLimit",
        "digits of a literal: 4301 past MAX_DIGITS = 4300",
        id="a-literal-of-4301-digits",
    ),
    (
        "2^20000",
        "RepresentationLimit",
        "digits of an integer of 20001 bits: 6021 past MAX_DIGITS = 4300",
    ),
    # past MAX_DIGITS the refused integers are written by their bit length
    (
        f"2^(G + {WIDE}) / 2^G",
        "ExponentTooLarge",
        "bit bound of 2^<28001-bit integer>: <28002-bit integer> past MAX_POWER_BITS = 1000000",
    ),
    (
        f"({WIDE})^(G + 100) / ({WIDE})^G",
        "ExponentTooLarge",
        "bit bound of <28001-bit integer>^100: 2800100 past MAX_POWER_BITS = 1000000",
    ),
    (
        f'pred(num(10, {WIDE}){{head: "1"}})',
        "RepresentationLimit",
        "digits 9 written out by the predecessor: <28000-bit integer> past MAX_ITEMS = 1000000",
    ),
]


@pytest.mark.parametrize("line, kind, detail", PAST_CAP)
def test_each_guard_refuses_one_past_its_cap(line, kind, detail, capsys):
    code, out = _run(line, capsys)
    assert code == cli.EXIT_EVAL
    assert out["error"] == {"kind": kind, "detail": detail}


# what was measured, the size, and the cap by name and value
SHAPE = re.compile(
    r"[^:]+: (\d+|<\d+-bit integer>) past (MAX_ITEMS|MAX_POWER_BITS|MAX_DIGITS) = \d+"
)


def test_every_refusal_past_a_cap_has_one_shape(capsys):
    details = [getattr(row, "values", row)[2] for row in PAST_CAP]
    line, point = PAST_CAP_POINT
    _, out = _run(line, capsys, point=point)
    details.append(out["oracle"].removeprefix("skipped: "))
    for detail in details:
        assert SHAPE.fullmatch(detail), detail


def test_gnum_has_no_cap_but_depth_power_bits_items_and_digits():
    assert sorted(name for name in vars(gnum) if name.startswith("MAX_")) == [
        "MAX_DIGITS", "MAX_EXPONENT_DEPTH", "MAX_ITEMS", "MAX_POWER_BITS",
    ]


def test_a_power_whose_width_passes_the_cap_is_refused_without_its_term_count():
    # C(n + 39, 39) of a 40-term base at n = 2^1000000 would take seconds
    base = " + ".join(f"G^{i}" for i in range(1, 41))
    start = time.perf_counter()
    with pytest.raises(errors.ExponentTooLarge, match=r"past MAX_POWER_BITS = 1000000$"):
        gclang.eval_text(f"({base})^(2^500000 * 2^500000)")
    assert time.perf_counter() - start < 1.0


def test_guards_off_the_language_pass_at_the_cap_and_refuse_past_it():
    # a borrow across exactly MAX_ITEMS implicit zeros is written out
    below = posnum.predecessor(posnum.numeral(10, gnum.MAX_ITEMS + 1, head=(1,)))
    assert below.head + (0,) * below.gap() + below.tail == (0,) + (9,) * gnum.MAX_ITEMS
    assert oracle.check_card(UniverseNE(), gnum.MAX_ITEMS).match
    with pytest.raises(errors.InvalidL) as info:
        oracle.check_card(UniverseNE(), gnum.MAX_ITEMS + 1)
    assert str(info.value) == "brute-force point L: 1000001 past MAX_ITEMS = 1000000"


# an oracle point past the brute-force cap: the value stands, the check is skipped
PAST_CAP_POINT = ("card(N \\ {3})", 30_000_000)


class TestOraclePointCap:
    def test_a_point_past_the_cap_is_skipped_at_once(self, capsys):
        line, point = PAST_CAP_POINT
        start = time.perf_counter()
        code, out = _run(line, capsys, point=point)
        assert time.perf_counter() - start < 1.0
        assert code == cli.EXIT_OK
        assert out["value"] == "G - 1"
        assert out["oracle"] == "skipped: brute-force point L: 30000000 past MAX_ITEMS = 1000000"

    def test_a_point_at_the_cap_is_counted(self, capsys):
        _, out = _run("card(N \\ {3})", capsys, point=gnum.MAX_ITEMS)
        assert out["oracle"] == "(N \\ {3}) at L=1000000: symbolic 999999 vs brute 999999 [ok]"


class TestEnumerateAll:
    def test_small_systems_are_listed(self):
        assert [posnum.render_digits(x) for x in posnum.enumerate_all(2, 2)] == [
            "0.00", "0.01", "0.10", "0.11",
        ]

    def test_a_count_of_at_most_max_digits_is_named(self):
        with pytest.raises(errors.RepresentationLimit) as info:
            posnum.enumerate_all(2, 21)
        assert str(info.value) == "numerals enumerated: 2097152 past MAX_ITEMS = 1000000"
        with pytest.raises(errors.RepresentationLimit) as info:
            posnum.enumerate_all(10, 4299)
        assert str(info.value) == f"numerals enumerated: {10 ** 4299} past MAX_ITEMS = 1000000"

    @pytest.mark.parametrize("base, length", [(10, 5000), (2, 10 ** 8), (10 ** 30, 10 ** 7)])
    def test_any_length_is_refused_typed_and_fast(self, base, length):
        start = time.perf_counter()
        with pytest.raises(errors.RepresentationLimit):
            posnum.enumerate_all(base, length)
        assert time.perf_counter() - start < 1.0


class TestOneValueDrivesEverySite:
    """Lowering a cap in gnum lowers it at every guard that reads it."""

    @pytest.fixture
    def few_items(self, monkeypatch):
        monkeypatch.setattr(gnum, "MAX_ITEMS", 10)

    @pytest.fixture
    def few_bits(self, monkeypatch):
        monkeypatch.setattr(gnum, "MAX_POWER_BITS", 64)

    @pytest.fixture
    def few_digits(self, monkeypatch):
        monkeypatch.setattr(gnum, "MAX_DIGITS", 10)

    @pytest.mark.parametrize(
        "at_cap, past_cap",
        [
            # 1, 3, ..., 19 skipped against 1, 3, ..., 21
            (lambda: progression(21, 2), lambda: progression(23, 2)),
            (
                lambda: combine(SetOp.UNION, NATURALS, progression(1, 9)),
                lambda: combine(SetOp.UNION, NATURALS, progression(1, 10)),
            ),
            (
                lambda: combine(SetOp.DIFFERENCE, NATURALS, progression(1, 10)),
                lambda: combine(SetOp.DIFFERENCE, NATURALS, progression(1, 11)),
            ),
            (
                lambda: combine(SetOp.INTERSECT, progression(1, 2), nat_subset(13, range(10))),
                lambda: combine(SetOp.INTERSECT, progression(1, 2), nat_subset(13, range(11))),
            ),
            (
                lambda: setmeasure.complement(progression(1, 11)),
                lambda: setmeasure.complement(progression(1, 12)),
            ),
            (lambda: setmeasure.members(NATURALS, 10), lambda: setmeasure.members(NATURALS, 11)),
            (
                lambda: posnum.enumerate_first(10, 5, 10),
                lambda: posnum.enumerate_first(10, 5, 11),
            ),
            (lambda: posnum.enumerate_all(2, 3), lambda: posnum.enumerate_all(2, 4)),
        ],
    )
    def test_items(self, few_items, at_cap, past_cap):
        at_cap()
        with pytest.raises(errors.RepresentationLimit, match=r"past MAX_ITEMS = 10$"):
            past_cap()

    def test_items_in_long_numerals(self, few_items):
        # a borrow writes out the implicit zeros, which the default cap would
        # allow; blocks given past the middle are re-split from their own
        # digits, so comparing them writes out nothing and answers
        with pytest.raises(errors.RepresentationLimit, match=r": 19999 past MAX_ITEMS = 10$"):
            posnum.predecessor(posnum.numeral(10, 20000, head=(1,)))
        x = posnum.numeral(10, 20000, head=(1,) * 15000)
        y = posnum.numeral(10, 20000, tail=(1,) * 15000)
        assert posnum.compare_numerals(x, y) is gnum.Ordering.GREATER

    def test_oracle_points(self, few_items):
        assert oracle.check_card(UniverseNE(), 10).match
        with pytest.raises(errors.InvalidL, match=r"^brute-force point L: 11 past MAX_ITEMS = 10$"):
            oracle.check_card(UniverseNE(), 11)

    @pytest.mark.parametrize(
        "at_cap, past_cap",
        [
            ("2^32 > 1", "2^33"),
            ("2^(G + 32) / 2^G > 1", "2^(G + 33) / 2^G"),
            ("numerals(2, crit(2, G) + 32) > G", "numerals(2, crit(2, G) + 33) > G"),
            ("3 * 2^(G + 1/32) > 2^G", "3 * 2^(G + 1/33) > 2^G"),
            ("2^(32*G) > 3^G", "2^(33*G) > 3^G"),
            ("subst(2^G, 32) > 1", "subst(2^G, 33)"),
            # bit_length(15) * 16 == 64
            ("subst(G^16, 15) > 1", "subst(G^17, 15)"),
            # 6 terms of 10 bits against 7 terms of 12
            ("(G + 1)^5 > G", "(G + 1)^6"),
        ],
    )
    def test_power_bits(self, few_bits, at_cap, past_cap):
        assert gclang.eval_text(at_cap) is True
        with pytest.raises(errors.ExponentTooLarge, match=r"past MAX_POWER_BITS = 64$"):
            gclang.eval_text(past_cap)

    @pytest.mark.parametrize(
        "at_cap, past_cap",
        [
            ("1234567890", "12345678901"),
            ("10^9", "10^11"),
            ("card(ap(1, 10^9))", "card(ap(1, 10^11))"),
            ("subst(G, 10^9)", "subst(G, 10^11)"),
        ],
    )
    def test_digits(self, few_digits, at_cap, past_cap):
        gclang.render_value(gclang.eval_text(at_cap))
        with pytest.raises(errors.RepresentationLimit, match=r"past MAX_DIGITS = 10$"):
            gclang.render_value(gclang.eval_text(past_cap))

    def test_power_bits_bound_exhaustive_enumeration(self, few_bits):
        with pytest.raises(errors.RepresentationLimit) as info:
            posnum.enumerate_all(2, 33)
        assert str(info.value) == "bit bound of the numeral count 2^33: 66 past MAX_POWER_BITS = 64"
