"""Outputs that rest on structure shared across the package.

Set values of N and of Z share one dual-route base, signed sets on both
routes share one container, and the language's ``^`` and Python's ``**``
share one power routine.  These tests pin what that sharing must keep: the
reprs, the class split, the zero-flag rule on both routes and the agreement
of the two power spellings.  They also cover long operator chains and the
size cap of ``members``.
"""
import operator

import pytest

from grosscalc import errors
from grosscalc.gclang import MeasuredSet, SignedMeasured, eval_text, render_value
from grosscalc.gnum import G, pow_count
from grosscalc.oracle import brute_count, check_card
from grosscalc.setmeasure import EMPTY, UNIVERSE_Z_E, SignedSet, nat_subset


class TestReprs:
    def test_numbers(self):
        assert repr(G) == "GrossPoly<G>"
        assert repr(G / 2 + 1) == "GrossPoly<G/2 + 1>"
        assert repr(pow_count(2, G)) == "ExpCount<2^G>"

    def test_records_and_signed_sets(self):
        assert repr(nat_subset(2, {0})) == "NatSubset<ap(2, 2)>"
        assert repr(SignedSet(EMPTY, True, nat_subset(2, {0}))) == "SignedSet<{0} | ap(2, 2)>"
        assert repr(UNIVERSE_Z_E) == "SignedSet<mirror(N) | {0} | N>"

    def test_set_values(self):
        assert repr(eval_text("ap(2,2)")) == "MeasuredSet<ap(2, 2)>"
        assert repr(eval_text("{0} | ap(2,2)")) == "SignedMeasured<{0} | ap(2, 2)>"
        assert repr(eval_text("Z")) == "SignedMeasured<Z>"


class TestSetValueClasses:
    def test_natural_and_signed_sets_stay_apart(self):
        nat, signed = eval_text("ap(2,2)"), eval_text("mirror(ap(2,2))")
        assert isinstance(nat, MeasuredSet) and not isinstance(nat, SignedMeasured)
        assert isinstance(signed, SignedMeasured) and not isinstance(signed, MeasuredSet)
        assert nat != signed and signed != nat

    def test_equal_records_make_equal_values(self):
        assert eval_text("ap(2,2) | ap(1,2)") == eval_text("N")
        assert hash(eval_text("ap(2,2) | ap(1,2)")) == hash(eval_text("N"))
        assert eval_text("Z \\ mirror(N)") == eval_text("{0} | N")


class TestZeroFlag:
    @pytest.mark.parametrize(
        "op, py_op", [("|", operator.or_), ("&", operator.and_), ("\\", operator.sub)]
    )
    @pytest.mark.parametrize("a", ["{0}", "{}"])
    @pytest.mark.parametrize("b", ["{0}", "{}"])
    def test_both_routes_follow_the_set_operation(self, op, py_op, a, b):
        v = eval_text(f"{a} {op} {b}")
        want = 0 in py_op({0} if a == "{0}" else set(), {0} if b == "{0}" else set())
        assert v.record.contains(0) is want
        # both tree parts are empty, so the brute count is the zero flag
        assert brute_count(v.expr, 5) == want


class TestPower:
    @pytest.mark.parametrize(
        "value, text",
        [(G ** -1, "G^-1"), ((G + 1) ** 2, "(G+1)^2"), (G ** 2, "G^2"), (G ** 0, "G^0")],
    )
    def test_python_and_language_agree(self, value, text):
        assert value == eval_text(text)

    def test_python_inverts_where_the_language_refuses(self):
        assert (2 * G) ** -1 == G ** -1 / 2
        with pytest.raises(errors.UnsupportedPower):
            eval_text("(2*G)^-1")


class TestCheckCardText:
    def test_signed_expression_renders_as_built(self):
        assert check_card(UNIVERSE_Z_E, 500).expression == "mirror(N) | {0} | N"


class TestLongChains:
    def _round_trip(self, text):
        rendered = render_value(eval_text(text))
        assert render_value(eval_text(rendered)) == rendered
        return rendered

    def test_thousand_piece_union(self):
        text = " | ".join(f"ap({i}, 1201)" for i in range(1, 1001))
        assert self._round_trip(text) == text

    def test_rendering_of_1200_residue_classes(self):
        rendered = self._round_trip(
            "(ap(26, 10) | ap(4, 8) | ap(24, 5)) \\ (ap(10, 11) | ap(17, 9))"
        )
        assert rendered.count("ap(") == 1200

    def test_long_chain_keeps_left_to_right_order(self):
        assert eval_text(" - ".join(["1000"] + ["1"] * 1500)) == -500
        assert eval_text("2 ^ 3 ^ 2") == 512


class TestMembersCap:
    def test_refusal_is_typed(self):
        with pytest.raises(errors.RepresentationLimit):
            eval_text("members(ap(1,2), 2000000)")
        with pytest.raises(errors.RepresentationLimit):
            eval_text("members(N, 10^6 + 1)")

    def test_small_counts_still_list(self):
        assert eval_text("members(ap(1,2), 4)") == (1, 3, 5, 7)
