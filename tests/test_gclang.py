"""Parser structure, evaluation semantics, and the render round trip."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grosscalc import errors
from grosscalc.gclang import (
    Bin,
    Call,
    Cmp,
    Let,
    Lit,
    MeasuredSet,
    Name,
    SetLit,
    SignedMeasured,
    Unary,
    _tokenize,
    _where,
    default_env,
    eval_text,
    parse,
    render_value,
    type_tag,
)
from grosscalc.gnum import (
    CritRef,
    ExpCount,
    G,
    fin,
    gterm,
    make_poly,
    pow_count,
    sub,
)
from grosscalc.observer import ALEPH0, MANY, Observation, PIRAHA
from grosscalc.posnum import CriticalPair, numeral

import reference_parser
from test_language_tables import _SHAPES


class TestParseStructure:
    def test_call_over_progression(self):
        assert parse("card(ap(2,2))") == Call(
            "card", (Call("ap", (Lit(2), Lit(2))),)
        )

    def test_linear_count(self):
        assert parse("2*G + 1") == Bin("+", Bin("*", Lit(2), Name("G")), Lit(1))

    def test_multiplication_binds_before_addition(self):
        assert parse("2*G+1") != parse("2*(G+1)")

    def test_power_is_right_associative(self):
        assert parse("2^3^2") == Bin("^", Lit(2), Bin("^", Lit(3), Lit(2)))

    def test_power_binds_before_unary_minus(self):
        assert parse("-2^2") == Unary("-", Bin("^", Lit(2), Lit(2)))

    def test_unary_minus_allowed_in_exponent(self):
        assert parse("2^-3") == Bin("^", Lit(2), Unary("-", Lit(3)))

    def test_intersection_binds_before_union(self):
        assert parse("{1} | ap(2,2) & N") == Bin(
            "|",
            SetLit((Lit(1),)),
            Bin("&", Call("ap", (Lit(2), Lit(2))), Name("N")),
        )

    def test_arithmetic_binds_before_set_ops(self):
        # the right operand of & takes the whole sum
        tree = parse("N & ap(1,2) \\ {3}")
        assert tree == Bin(
            "\\",
            Bin("&", Name("N"), Call("ap", (Lit(1), Lit(2)))),
            SetLit((Lit(3),)),
        )

    def test_comparison_is_loosest(self):
        tree = parse("card(N) == G")
        assert isinstance(tree, Cmp) and tree.op == "=="

    def test_comparisons_do_not_chain(self):
        with pytest.raises(errors.ParseError):
            parse("1 < 2 < 3")

    def test_circled_one_is_an_alias_for_g(self):
        assert parse("① + 1") == parse("G + 1")

    def test_let_binding(self):
        assert parse("let B1 = ap(4,5)") == Let("B1", Call("ap", (Lit(4), Lit(5))))

    def test_numeral_field_block(self):
        tree = parse('num(10, G){head: "", tail: "1", sign: "-"}')
        assert tree == Call(
            "num", (Lit(10), Name("G")), (("head", ""), ("tail", "1"), ("sign", "-"))
        )

    def test_numeral_fields_read_digits_zero_to_z(self):
        assert render_value(eval_text('succ(num(16, G){tail: "9"})')) == render_value(
            eval_text('num(16, G){tail: "a"}')
        )
        assert render_value(eval_text('num(36, 2){head: "z"}')).startswith("0.z0 ")
        for text in ('num(16, G){tail: "A"}', 'num(37, G)', "first(100, G, 2)"):
            with pytest.raises(errors.EvalError):
                eval_text(text)
        assert render_value(eval_text("numerals(100, G)")) == "100^G"

    def test_error_carries_position_and_hint(self):
        with pytest.raises(errors.ParseError) as exc:
            parse("card(ap(2,2)")
        assert exc.value.line == 1
        assert exc.value.col == 13
        assert exc.value.expected == ")"

    def test_trailing_tokens_rejected(self):
        with pytest.raises(errors.ParseError):
            parse("1 + 1 2")

    def test_unknown_character_rejected(self):
        with pytest.raises(errors.ParseError):
            parse("1 $ 2")

    def test_unterminated_string_rejected(self):
        with pytest.raises(errors.ParseError):
            parse('num(10, G){tail: "1}')

    def test_empty_input_rejected(self):
        with pytest.raises(errors.ParseError):
            parse("")

    def test_comments_are_whitespace(self):
        assert parse("1 + 1 # the obvious one") == parse("1+1")


# one node of each kind, the names of its fields, and a text it parses from
_NODES = [
    (Lit(1), ("value",), "1"),
    (Name("G"), ("ident",), "G"),
    (Unary("-", Lit(1)), ("op", "operand"), "-1"),
    (Bin("+", Lit(1), Lit(2)), ("op", "left", "right"), "1 + 2"),
    (Cmp("<", Lit(1), Lit(2)), ("op", "left", "right"), "1 < 2"),
    (SetLit((Lit(1),)), ("elems",), "{1}"),
    (Call("num", (Lit(10), Name("G")), (("tail", "1"),)), ("func", "args", "fields"),
     'num(10, G){tail: "1"}'),
    (Let("A", Lit(1)), ("name", "value"), "let A = 1"),
]
_NODE_IDS = [type(node).__name__ for node, _, _ in _NODES]


class TestSyntaxNodes:
    """Nodes are plain dataclasses: they compare by class and fields, hash,
    print and list their fields in order as dataclasses do."""

    @pytest.mark.parametrize("node, names, text", _NODES, ids=_NODE_IDS)
    def test_vars_and_fields_name_the_fields(self, node, names, text):
        # the benchmark tracer counts a tree's nodes through both
        assert tuple(vars(node)) == names
        assert tuple(f.name for f in dataclasses.fields(node)) == names
        assert hasattr(node, "__dataclass_fields__")

    def test_equality_is_by_class_and_fields(self):
        assert Bin("+", Lit(1), Lit(2)) == Bin("+", Lit(1), Lit(2))
        assert Bin("+", Lit(1), Lit(2)) != Cmp("+", Lit(1), Lit(2))
        assert Bin("+", Lit(1), Lit(2)) != Bin("-", Lit(1), Lit(2))
        assert Lit(1) != Name("1")

    @pytest.mark.parametrize("node, names, text", _NODES, ids=_NODE_IDS)
    def test_equal_nodes_hash_equal(self, node, names, text):
        twin = parse(text)
        assert twin == node and twin is not node
        assert hash(twin) == hash(node)
        assert len({twin, node}) == 1

    def test_repr_is_the_dataclass_repr(self):
        assert repr(Bin("+", Lit(1), Lit(2))) == "Bin(op='+', left=Lit(value=1), right=Lit(value=2))"
        assert repr(Call("ap", (Lit(1), Lit(2)))) == (
            "Call(func='ap', args=(Lit(value=1), Lit(value=2)), fields=())"
        )

    def test_call_fields_default_to_empty(self):
        assert Call("ap", ()).fields == ()
        assert Call("ap", ()) == Call("ap", (), ())


class TestEvaluation:
    def test_measured_counts(self):
        assert eval_text("card(ap(2,2))") == G / 2
        assert eval_text("card(Z)") == 2 * G + 1
        assert eval_text("card(N \\ {7})") == G - 1
        assert eval_text("card({0} | N)") == G + 1
        assert eval_text("prodcard(N, N)") == G**2
        assert eval_text("card({3,4,5,69} | (ap(4,5) & ap(3,11)))") == G / 55 + fin(3)

    def test_numeral_counts(self):
        assert eval_text("numerals(2, G)") == pow_count(2, G)
        assert eval_text("signedcount(10)") == ExpCount(Fraction(2), 10, 2 * G)
        assert eval_text("floatcount(10)") == ExpCount(Fraction(4), 10, 2 * G)

    def test_rational_arithmetic(self):
        assert eval_text("1 + 1") == fin(2)
        assert eval_text("22/7") == fin(Fraction(22, 7))
        assert eval_text("2^-3") == fin(Fraction(1, 8))
        assert eval_text("2^10") == fin(1024)

    def test_power_folds_into_counts(self):
        assert eval_text("2*10^(2*G)") == ExpCount(Fraction(2), 10, 2 * G)
        assert eval_text("10^G - 1") == sub(pow_count(10, G), fin(1))
        assert eval_text("G^G") == gterm(1, G)
        assert eval_text("(G^2)^G") == gterm(1, 2 * G)
        assert eval_text("(G+1)^2") == (G + 1) ** 2
        assert eval_text("1^G") == fin(1)
        assert eval_text("0^G") == fin(0)

    def test_critical_lengths(self):
        pair = eval_text("critical(10, G)")
        assert isinstance(pair, CriticalPair)
        assert eval_text("crit(10, G)") == CritRef(10, G, 0)
        assert eval_text("crit(10, G) + 1") == CritRef(10, G, 1)
        assert eval_text("crit(10, G) - 2") == CritRef(10, G, -2)
        assert eval_text("10^(crit(10, G) + 1)") == pow_count(10, CritRef(10, G, 1))
        assert eval_text("numerals(10, crit(10, G))") == pow_count(10, CritRef(10, G, 0))

    def test_comparisons(self):
        assert eval_text("2^G < 10^G") is True
        assert eval_text("G - 1 < G") is True
        assert eval_text("G^2 >= 2*G + 1") is True
        assert eval_text("card(ap(2,2)) == G/2") is True
        assert eval_text("ap(2,2) == N \\ ap(1,2)") is True
        assert eval_text("N == Z") is False

    def test_set_values_are_dual_route(self):
        v = eval_text("{3,4,5,69} | (ap(4,5) & ap(3,11))")
        assert isinstance(v, MeasuredSet)
        mask = v.expr.mask_upto(20)
        assert mask >> 14 & 1 and not mask >> 15 & 1
        assert v.record.contains(14) and not v.record.contains(15)

    def test_signed_lift(self):
        v = eval_text("{-2, -1, 0, 1}")
        assert isinstance(v, SignedMeasured)
        assert v.record.contains(-2) and v.record.contains(0)
        assert not v.record.contains(2)
        assert eval_text("card({-2, -1, 0, 1})") == fin(4)

    def test_members_and_first(self):
        assert eval_text("members(ap(4,5), 3)") == (4, 9, 14)
        chain = eval_text("first(10, G, 2)")
        assert [x.tail for x in chain] == [(), (1,)]

    def test_observations(self):
        obs = eval_text("observe(piraha, card(N))")
        assert obs == Observation(PIRAHA, MANY)
        assert eval_text("wadd(cantor, aleph0, 1)") is ALEPH0
        assert eval_text("distinct(munduruku, 3, 4)") is True
        assert eval_text("wadd(piraha, 1, 1)").value == fin(2)

    def test_numeral_construction(self):
        v = eval_text('num(10, G){tail: "1"}')
        assert v == numeral(10, G, tail=(1,))
        assert eval_text('num(10, 3){head: "102"}') == numeral(10, 3, head=(1, 0, 2))
        assert eval_text('succ(num(10, G))') == numeral(10, G, tail=(1,))
        assert eval_text('pred(succ(num(2, G)))') == numeral(2, G)

    def test_substitution(self):
        assert eval_text("subst(card(ap(2,2)), 27720)") == fin(13860)
        assert eval_text("subst(numerals(2, G), 10)") == fin(1024)
        assert eval_text("subst(crit(10, G), 1000000)") == fin(6)

    def test_let_persists_in_the_environment(self):
        env = default_env()
        eval_text("let B1 = ap(4,5)", env)
        eval_text("let B2 = ap(3,11)", env)
        assert eval_text("card({3,4,5,69} | (B1 & B2))", env) == G / 55 + fin(3)

    def test_let_rejects_reserved_names(self):
        for name in ("G", "N", "card", "true", "aleph0", "let"):
            with pytest.raises(errors.EvalError):
                eval_text(f"let {name} = 1")

    def test_unbound_identifier(self):
        with pytest.raises(errors.UnboundIdentifier):
            eval_text("card(B9)")
        with pytest.raises(errors.UnboundIdentifier):
            eval_text("frobnicate(1)")

    def test_arity_is_checked(self):
        with pytest.raises(errors.EvalError):
            eval_text("card()")
        with pytest.raises(errors.EvalError):
            eval_text("card(N, N)")

    def test_type_errors_are_diagnosed(self):
        with pytest.raises(errors.EvalError):
            eval_text("N + 1")
        with pytest.raises(errors.EvalError):
            eval_text("~G")
        with pytest.raises(errors.EvalError):
            eval_text("2 | 3")
        with pytest.raises(errors.EvalError):
            eval_text("card(N) == true")
        with pytest.raises(errors.EvalError):
            eval_text("crit(10, G) * 2")

    def test_library_errors_propagate(self):
        with pytest.raises(errors.DivisionByZero):
            eval_text("G/0")
        with pytest.raises(errors.Undetermined):
            eval_text("numerals(10, crit(10, G)) < G/2")
        with pytest.raises(errors.ForeignToken):
            eval_text("wadd(piraha, aleph0, 1)")
        with pytest.raises(errors.NegativeCount):
            eval_text("observe(cantor, 0 - G)")

    def test_set_literal_elements_must_be_finite(self):
        with pytest.raises(errors.EvalError):
            eval_text("{G}")
        with pytest.raises(errors.EvalError):
            eval_text("{1/2}")


ROUND_TRIP_CORPUS = (
    "card(ap(2,2))",
    "card(Z)",
    "card(N \\ {7})",
    "card({0} | N)",
    "prodcard(N, N)",
    "card({3,4,5,69} | (ap(4,5) & ap(3,11)))",
    "numerals(2, G)",
    "numerals(10, G)",
    "numerals(10, G/2)",
    "numerals(10, crit(10, G))",
    "10^(crit(10, G) + 1)",
    "signedcount(10)",
    "floatcount(10)",
    "10^G - 1",
    "10^G + G - 1",
    "3*10^G/7",
    "G^G",
    "G^2 - G/2",
    "2*G + 1",
    "0",
    "-5",
    "22/7",
    "-G + 1",
    "G - 1000000",
    "crit(2, G^2) - 3",
    "N",
    "Z",
    "{}",
    "ap(2,2)",
    "~ap(1,2)",
    "ap(1, 2) \\ {3, 5}",
    "{3,4,5,69} | (ap(4,5) & ap(3,11))",
    "N \\ {1000000}",
    "{0} | N",
    "mirror(ap(2,2)) | {0} | ap(2,2)",
    "Z \\ {0}",
    "{-4, -2, 7}",
    "2^G < 10^G",
    "G < 2^G",
    "card(N) == G",
    "1 < 1",
    "distinct(piraha, 3, 4)",
)


class TestRoundTrip:
    @pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
    def test_render_reparses_to_an_equal_value(self, text):
        value = eval_text(text)
        rendered = render_value(value)
        again = eval_text(rendered)
        assert again == value
        assert render_value(again) == rendered

    def test_round_trip_preserves_the_dual_route(self):
        value = eval_text("~(ap(4,5) | {2})")
        again = eval_text(render_value(value))
        assert again.expr.mask_upto(60) == value.expr.mask_upto(60)


# random linear counts a*G + b and quadratics exercise the renderer's
# sign and fraction placement
_coeff = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=9
)


@given(_coeff, _coeff, _coeff)
def test_round_trip_on_random_polynomials(a, b, c):
    value = make_poly([(a, fin(2)), (b, fin(1)), (c, fin(0))])
    rendered = render_value(value)
    assert eval_text(rendered) == value


_TOKENS = st.sampled_from(
    ["G", "N", "Z", "card", "ap", "(", ")", "{", "}", ",", "+", "-", "*",
     "/", "^", "|", "&", "\\", "~", "<", "<=", "==", ">=", ">", "0", "1",
     "2", "55", "num", "crit", "subst", "let", "=", '"12"', ":", "head"]
)


@given(st.lists(_TOKENS, max_size=14))
def test_no_input_escapes_the_diagnostic_net(pieces):
    text = " ".join(pieces)
    try:
        eval_text(text)
    except errors.GrossError:
        pass


@given(st.text(max_size=40))
def test_arbitrary_text_never_crashes_the_tokenizer(text):
    try:
        eval_text(text)
    except errors.GrossError:
        pass


def reference_tokenize(text):
    """The tokenizer as a character loop, kept as the reference the token
    table must agree with: (kind, text, line, col) tuples, or ParseError."""
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        at = col
        if c == "①":
            toks.append(("IDENT", "G", line, at))
            i += 1
            col += 1
            continue
        if c in "0123456789":
            j = i
            while j < n and text[j] in "0123456789":
                j += 1
            toks.append(("INT", text[i:j], line, at))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("IDENT", text[i:j], line, at))
            col += j - i
            i = j
            continue
        if c == '"':
            j = i + 1
            while j < n and text[j] not in ('"', "\n"):
                j += 1
            if j >= n or text[j] == "\n":
                raise errors.ParseError("unterminated string", line, at, '"')
            toks.append(("STR", text[i + 1 : j], line, at))
            col += j - i + 1
            i = j + 1
            continue
        if text[i : i + 2] in ("<=", ">=", "=="):
            toks.append(("OP", text[i : i + 2], line, at))
            i += 2
            col += 2
            continue
        if c in "()+-*/^<>&|\\~{},:=":
            toks.append(("OP", c, line, at))
            i += 1
            col += 1
            continue
        raise errors.ParseError(f"unexpected character {c!r}", line, at)
    toks.append(("EOF", "", line, col))
    return toks


def _tokens_or_error(tokenize, text):
    try:
        return [tuple(t) for t in tokenize(text)]
    except errors.ParseError as e:
        return (str(e), e.line, e.col, e.expected)


def _positioned(text):
    """_tokenize's (kind, text, offset) tokens as the loop writes them,
    (kind, text, line, col), with an operator's kind written OP."""
    return [
        (kind if kind in ("INT", "IDENT", "STR", "EOF") else "OP", tok, *_where(text, offset))
        for kind, tok, offset in _tokenize(text)
    ]


_PIECES = st.sampled_from(
    list("①²½٣é\xa0\r\t\n #\"_xG07$") + list("()+-*/^<>&|\\~{},:=") + ["<=", ">=", "=="]
)


@settings(max_examples=500)
@given(st.lists(_PIECES, max_size=30).map("".join))
def test_token_table_agrees_with_the_character_loop(text):
    assert _tokens_or_error(_positioned, text) == _tokens_or_error(reference_tokenize, text)


def test_token_table_keeps_the_loop_s_quirks():
    # a numeric character is no identifier start, and a trailing comment
    # leaves the end-of-input column where the comment began
    for text in ("x²", "²x", "½", "a٣", "٣", "1 + 2 # note", "a\n  # note", '"ab\n"'):
        assert _tokens_or_error(_positioned, text) == _tokens_or_error(reference_tokenize, text)
    assert _tokens_or_error(_positioned, "²x") == ("unexpected character '²' at line 1, column 1", 1, 1, "")
    assert _positioned("1 # note")[-1] == ("EOF", "", 1, 3)
    # an operator's kind is its own text, and a token keeps only its offset
    assert _tokenize("a <= 1 # note") == [
        ("IDENT", "a", 0), ("<=", "<=", 2), ("INT", "1", 5), ("EOF", "", 7)
    ]


def _parsed_or_error(parser, text):
    """The AST, or the error's kind, message, line, column and hint."""
    try:
        return parser(text)
    except errors.GrossError as e:
        return (e.kind, str(e), getattr(e, "line", None), getattr(e, "col", None),
                getattr(e, "expected", None))


@st.composite
def _poly_texts(draw):
    """Polynomial texts such as the benchmark's gross_poly sends."""
    def poly():
        terms = []
        for _ in range(draw(st.integers(1, 5))):
            c, e = draw(st.integers(-9, 9)), draw(st.integers(-3, 9))
            coeff = f"({c})" if c < 0 else str(c)
            terms.append(coeff if e == 0 else f"{coeff}*G" if e == 1 else f"{coeff}*G^{e}")
        return draw(st.sampled_from([" + ", " - ", "+"])).join(terms)

    return draw(st.sampled_from([
        "({p}) * ({q})", "({p}) / (G^3)", "2^(G + 1)", "({p})^3", "{p} < {q}",
        "-({p}) >= 2^G", "let P = {p}", 'num(10, G){{head: "12", tail: "1"}}',
        "card(ap(3, 7) | ~ap(1, 2)) == {q}", "({p}) * ({q}",
    ])).format(p=poly(), q=poly())


_NESTED = st.builds(
    lambda shape, depth, core: shape[0] * depth + core + shape[1] * depth,
    st.sampled_from(_SHAPES), st.sampled_from([99, 100, 101]),
    st.sampled_from(["1", "G", "G^2", "-1", "card(N)", "2^G^2", "(1"]),
)


@settings(max_examples=600, deadline=None)
@given(st.one_of(
    st.lists(_TOKENS, max_size=14).map(" ".join),
    st.lists(_PIECES, max_size=30).map("".join),
    _poly_texts(),
    _NESTED,
))
def test_parser_agrees_with_the_reference(text):
    assert _parsed_or_error(parse, text) == _parsed_or_error(reference_parser.parse, text)


class TestErrorPositions:
    """Positions worked out from a token's offset only once parsing fails."""

    @pytest.mark.parametrize("text, outcome", [
        # line 3, after a \r\n and a comment
        ("1 +\r\n2 # two\n * )", ("ParseError", "unexpected ')' at line 3, column 4 (expected expression)", 3, 4, "expression")),
        ("1 +\r\n2 # two\n  $", ("ParseError", "unexpected character '$' at line 3, column 3", 3, 3, "")),
        (("(" * 100) + "G^2" + (")" * 100),
         ("ParseError", "nesting deeper than 100 levels at line 1, column 103", 1, 103, "")),
        ('num(10, G){tail:\t"12}', ("ParseError", "unterminated string at line 1, column 18 (expected \")", 1, 18, '"')),
        ("1 # note", Lit(1)),
        ("1 + # note", ("ParseError", "unexpected end of input at line 1, column 5 (expected expression)", 1, 5, "expression")),
    ])
    def test_pinned(self, text, outcome):
        got = _parsed_or_error(parse, text)
        assert got == _parsed_or_error(reference_parser.parse, text) == outcome

    @pytest.mark.parametrize("template", ["{}", "{}^2", "2^{}", "-{} + 1"])
    def test_a_literal_past_the_digit_cap_is_a_representation_limit(self, template):
        text = template.format("7" * 4301)
        got = _parsed_or_error(parse, text)
        assert got == _parsed_or_error(reference_parser.parse, text)
        assert got[:2] == ("RepresentationLimit", "digits of a literal: 4301 past MAX_DIGITS = 4300")
        assert parse(template.format("7" * 4300)) == reference_parser.parse(template.format("7" * 4300))


class TestTypeTags:
    def test_tags(self):
        cases = (
            ("card(N)", "count"),
            ("crit(10, G)", "critical_length"),
            ("ap(2,2)", "set"),
            ("Z", "signed_set"),
            ("num(10, G)", "numeral"),
            ("critical(10, G)", "critical_pair"),
            ("observe(piraha, 9)", "observation"),
            ("wadd(cantor, aleph0, 1)", "token"),
            ("piraha", "system"),
            ("1 < 2", "bool"),
            ("members(N, 2)", "sequence"),
        )
        for text, tag in cases:
            assert type_tag(eval_text(text)) == tag, text


class TestNumFields:
    @pytest.mark.parametrize(
        "fields, key",
        [
            ('tail: "Z", tail: "1"', "tail"),
            ('tail: "1", tail: "1"', "tail"),
            ('head: "1", tail: "2", head: "3"', "head"),
            ('sign: "-", sign: "+"', "sign"),
        ],
    )
    def test_a_repeated_field_is_refused(self, fields, key):
        with pytest.raises(errors.EvalError, match=f"num field '{key}' is given twice"):
            eval_text(f"num(10, G){{{fields}}}")

    def test_each_field_once_is_accepted(self):
        got = eval_text('num(10, G){sign: "-", tail: "1", head: "2"}')
        assert got == numeral(10, G, head=(2,), tail=(1,), sign="-")
