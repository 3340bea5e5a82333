"""Coefficients stored as int when integral, as Fraction otherwise.

* The arithmetic is held to a Fraction-only reference: the canonicalization,
  products, scaling and quotients by monomials that stored every coefficient
  as a Fraction and divided with ``c / dc``, kept here as ``reference_*``.
  Random products, quotients, powers, scalings and sums give equal terms,
  the same rendering and the same error kind on both paths.
* Every coefficient and every ExpCount multiplier of a value an operation
  produces is an int or a Fraction with denominator != 1: never a float and
  never an integral Fraction.  The four places that divide coefficients are
  pinned by name.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grosscalc import cli, errors, gclang, gnum, posnum
from grosscalc.gnum import (
    ONE,
    ZERO,
    CritRef,
    ExpCount,
    G,
    GrossPoly,
    fin,
    gterm,
    make_poly,
    render_gross,
)

# the Fraction-only reference


def reference_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {value!r}")


def reference_form(p: GrossPoly) -> GrossPoly:
    """p with every coefficient, through its exponents, a Fraction."""
    return GrossPoly(tuple((Fraction(c), reference_form(e)) for c, e in p.terms))


def reference_fin(value) -> GrossPoly:
    coeff = reference_fraction(value)
    return ZERO if coeff == 0 else GrossPoly(((coeff, ZERO),))


def reference_as_rational(p: GrossPoly):
    if not p.terms:
        return Fraction(0)
    if len(p.terms) == 1 and p.terms[0][1].is_zero:
        return p.terms[0][0]
    return None


def reference_canon(pairs) -> GrossPoly:
    acc = {}
    for coeff, exp in pairs:
        coeff = reference_fraction(coeff)
        if coeff:
            acc[exp] = acc[exp] + coeff if exp in acc else coeff
    items = [(coeff, exp) for exp, coeff in acc.items() if coeff]
    items.sort(key=lambda term: gnum._order_key(term[1]), reverse=True)
    return GrossPoly(tuple(items))


def reference_sub(x: GrossPoly, y: GrossPoly) -> GrossPoly:
    return reference_canon(x.terms + tuple((-c, e) for c, e in y.terms))


def reference_pscale(x: GrossPoly, factor) -> GrossPoly:
    factor = reference_fraction(factor)
    if factor == 0:
        return ZERO
    return GrossPoly(tuple((c * factor, e) for c, e in x.terms))


def reference_pmul(x: GrossPoly, y: GrossPoly) -> GrossPoly:
    acc = []
    ys = [(cy, ey, reference_as_rational(ey)) for cy, ey in y.terms]
    for cx, ex in x.terms:
        rx = reference_as_rational(ex)
        for cy, ey, ry in ys:
            if rx is not None and ry is not None:
                exp = reference_fin(rx + ry)
            else:
                exp = reference_canon(ex.terms + ey.terms)
            acc.append((cx * cy, exp))
    return reference_canon(acc)


def reference_div_exact(x: GrossPoly, y: GrossPoly) -> GrossPoly:
    """Quotient of polynomial values by a rational or a monomial."""
    if y.is_zero:
        raise errors.DivisionByZero("division by zero")
    r = reference_as_rational(y)
    if r is not None:
        return reference_pmul(x, reference_fin(Fraction(1) / r))
    if len(y.terms) == 1:
        dc, de = y.terms[0]
        return reference_canon((c / dc, reference_sub(e, de)) for c, e in x.terms)
    raise errors.NonExactDivision("division by multi-term values is not supported")


def reference_power(x: GrossPoly, n: int) -> GrossPoly:
    """x^n for a polynomial value and an integer n."""
    if len(x.terms) == 1 and x.terms[0][0] == 1 and x.terms[0][1]:
        return GrossPoly(((Fraction(1), reference_pmul(x.terms[0][1], reference_fin(n))),))
    r = reference_as_rational(x)
    if r is not None:
        if r == 0 and n < 0:
            raise errors.DivisionByZero("0 cannot be raised to a negative power")
        if max(abs(r.numerator), r.denominator).bit_length() * abs(n) > gnum.MAX_POWER_BITS:
            raise errors.ExponentTooLarge("will not be materialized")
        return reference_fin(r ** n)
    if n < 0:
        raise errors.UnsupportedPower("only takes finite non-negative integer powers")
    out = reference_fin(1)
    for _ in range(n):
        out = reference_pmul(out, x)
    return out


# random polynomials: integer and fractional coefficients, rational exponents
# and polynomial exponents


coeffs = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
)
rational_exps = st.fractions(min_value=-2, max_value=3, max_denominator=3).map(fin)
poly_exps = st.lists(st.tuples(coeffs, rational_exps), min_size=1, max_size=2).map(make_poly)
exps = st.one_of(rational_exps, rational_exps, poly_exps)
polys = st.lists(st.tuples(coeffs, exps), max_size=3).map(make_poly)
monomials = st.tuples(coeffs, exps).map(lambda t: gterm(*t))

operations = st.one_of(
    st.tuples(st.just("mul"), polys),
    st.tuples(st.just("div"), st.one_of(monomials, polys)),
    st.tuples(st.just("pow"), st.integers(min_value=-2, max_value=3)),
    st.tuples(st.just("scale"), coeffs),
    st.tuples(st.just("add"), polys),
)


def _apply(op, arg, x, reference):
    if reference:
        if op == "mul":
            return reference_pmul(x, reference_form(arg))
        if op == "div":
            return reference_div_exact(x, reference_form(arg))
        if op == "pow":
            return reference_power(x, arg)
        if op == "scale":
            return reference_pscale(x, arg)
        return reference_canon(x.terms + reference_form(arg).terms)
    if op == "mul":
        return gnum.mul(x, arg)
    if op == "div":
        return gnum.div_exact(x, arg)
    if op == "pow":
        return gnum.power(x, fin(arg))
    if op == "scale":
        return gnum._pscale(x, arg)
    return gnum.add(x, arg)


def _outcome(op, arg, x, reference):
    try:
        return _apply(op, arg, x, reference), None
    except errors.GrossError as err:
        return None, type(err).__name__


@given(polys, st.lists(operations, min_size=1, max_size=4))
@settings(max_examples=400, deadline=None)
def test_arithmetic_agrees_with_the_fraction_reference(start, ops):
    new, ref = start, reference_form(start)
    for op, arg in ops:
        new, new_kind = _outcome(op, arg, new, reference=False)
        ref, ref_kind = _outcome(op, arg, ref, reference=True)
        assert new_kind == ref_kind, (op, arg)
        if new_kind:
            return
        assert new.terms == ref.terms
        assert hash(new) == hash(ref)
        assert render_gross(new) == render_gross(ref)
        assert_exact(new)


# long operands: sums and products of up to 30 terms, powers up to 14, with
# terms that cancel and counts of sets as operands


COUNTED = gclang.eval_text("ap(1, 2)")
long_polys = st.lists(st.tuples(coeffs, exps), max_size=30).map(make_poly)


@st.composite
def cancelling_pairs(draw):
    """x and a y that holds the negations of some of x's terms, each with an
    exponent object of its own, so x + y cancels those terms."""
    x = draw(long_polys)
    kept = draw(st.lists(st.booleans(), min_size=len(x.terms), max_size=len(x.terms)))
    others = draw(st.lists(st.tuples(coeffs, exps), max_size=30))
    negated = [(-c, make_poly(reversed(e.terms))) for (c, e), keep in zip(x.terms, kept) if keep]
    return x, make_poly(negated + others)


def as_count(p: GrossPoly, counted: bool) -> GrossPoly:
    return gclang.SetCount(p.terms, source=COUNTED) if counted else p


def assert_matches(new, ref):
    assert type(new) is GrossPoly
    assert new.terms == ref.terms
    assert hash(new) == hash(ref)
    assert render_gross(new) == render_gross(ref)
    assert_exact(new)


@given(cancelling_pairs(), st.sampled_from(("add", "sub", "mul")), st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_long_sums_and_products_agree_with_the_fraction_reference(pair, op, count_x, count_y):
    x, y = pair
    if op == "sub":
        # x - (-y) cancels the same terms as x + y
        y = gnum.neg(y)
    new_x, new_y = as_count(x, count_x), as_count(y, count_y)
    ref_x, ref_y = reference_form(x), reference_form(y)
    if op == "add":
        new, ref = gnum.add(new_x, new_y), reference_canon(ref_x.terms + ref_y.terms)
    elif op == "sub":
        new, ref = gnum.sub(new_x, new_y), reference_sub(ref_x, ref_y)
    else:
        new, ref = gnum.mul(new_x, new_y), reference_pmul(ref_x, ref_y)
    assert_matches(new, ref)


def test_a_sum_of_negations_cancels_to_zero():
    x = make_poly((c, e) for c, e in zip(range(1, 31), map(fin, range(30))))
    total = gnum.add(as_count(x, True), make_poly((-c, fin(e.as_rational())) for c, e in x.terms))
    assert_matches(total, reference_canon(()))
    assert total == ZERO


@given(
    st.lists(st.tuples(coeffs, exps), min_size=2, max_size=3).map(make_poly),
    st.integers(min_value=0, max_value=14),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_powers_agree_with_the_fraction_reference(x, n, counted):
    new, kind = _outcome("pow", n, as_count(x, counted), reference=False)
    ref, ref_kind = _outcome("pow", n, reference_form(x), reference=True)
    assert kind == ref_kind
    if not kind:
        assert_matches(new, ref)


# the representation invariant


def coefficients(value):
    """Every coefficient of value, recursively through exponents, tails and
    critical-length targets, and every ExpCount multiplier."""
    if isinstance(value, GrossPoly):
        for c, e in value.terms:
            yield c
            yield from coefficients(e)
    elif isinstance(value, ExpCount):
        yield value.multiplier
        yield from coefficients(value.exponent)
        yield from coefficients(value.tail)
    elif isinstance(value, (CritRef, posnum.CriticalPair)):
        yield from coefficients(value.target)
    elif isinstance(value, posnum.InfNumeral):
        yield from coefficients(value.length)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from coefficients(item)


def assert_exact(value):
    for c in coefficients(value):
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (
            f"{c!r} in {value!r}"
        )


def _rat(rng):
    n, d = rng.randint(-12, 12), rng.choice((1, 1, 1, 2, 3, 4, 6))
    return f"({n})" if d == 1 else f"({n}/{d})"


def _poly(rng):
    powers = ("", "*G", "*G^2", "*G^(-1)", "*G^(1/2)", "*G^G", "/G", "*G^(G/2 - 1)")
    return " + ".join(_rat(rng) + rng.choice(powers) for _ in range(rng.randint(1, 3)))


def _count(rng):
    base = rng.choice((2, 3, 4, 8, 9, 10))
    lead = rng.choice(("G", "2*G", "G/2", "G/3", "3*G/2", "G^2"))
    shift = rng.choice(("", " + 1", " - 2", " + 1/2", " + G^(-1)"))
    scale = rng.choice(("", "3*", "(1/2)*", "(2/3)*"))
    tail = rng.choice(("", " - 1", " + G/2", " + 7/3"))
    return f"{scale}{base}^({lead}{shift}){tail}"


def _critical(rng):
    base = rng.choice((2, 3, 10))
    target = rng.choice(("G", "2*G", "G/2", "3*G + 1", "G^2"))
    offset = rng.choice(("", " + 1", " - 1", " + 2"))
    scale = rng.choice(("", "3*", "(1/2)*", "(5/4)*"))
    return f"{scale}numerals({base}, crit({base}, {target}){offset})"


def _line(rng):
    kind = rng.randrange(4)
    if kind == 0:
        op = rng.choice(("+", "-", "*", "/", "<", "=="))
        if rng.random() < 0.25:
            return f"({_poly(rng)})^{rng.randint(-2, 3)}"
        return f"({_poly(rng)}) {op} ({_poly(rng)})"
    if kind == 1:
        op = rng.choice(("+", "-", "*", "/", "<", ">", "=="))
        return f"({_count(rng)}) {op} ({_count(rng) if rng.random() < 0.7 else _poly(rng)})"
    if kind == 2:
        op = rng.choice(("<", ">", "<", ">", "+", "-", "/"))
        # a rational multiple of G is where the sandwich most often stays open
        other = rng.choice(
            (_critical(rng), _poly(rng), f"{rng.randint(1, 9)}*G/{rng.choice((1, 2, 4, 10))}")
        )
        return f"{_critical(rng)} {op} ({other})"
    base = rng.choice((2, 3, 10))
    return rng.choice((
        f"numerals({base}, {_poly(rng)})",
        f"numerals({base}, G/2 + 1) - 1",
        f"numerals({base}, G) / numerals({base}, G - 2)",
        f"signedcount({base}) * {_rat(rng)}",
        f"floatcount({base}) / {rng.randint(1, 9)}",
        f"num({base}, G/3 + 1)",
        f"subst({_poly(rng)}, {rng.choice((12, 60))})",
        f"critical({base}, 3*G/2 + 1)",
    ))


def test_values_of_a_seeded_corpus_are_exact():
    rng = random.Random(2026)
    env = gclang.default_env()
    kinds = {"value": 0, "bounds": 0}
    for _ in range(1500):
        line = _line(rng)
        try:
            value = gclang.eval_text(line, env)
        except errors.Undetermined as err:
            assert_exact([err.lower, err.upper])
            kinds["bounds"] += 1
            continue
        except errors.GrossError:
            continue
        assert_exact(value)
        kinds["value"] += 1
    # the corpus reaches values and sandwich bounds, not only refusals
    assert kinds["value"] > 750 and kinds["bounds"] > 20, kinds


@pytest.mark.parametrize(
    "line, value",
    [
        # power: an int raised to a negative power is a Fraction, not a float
        ("2^(-1)", "1/2"),
        ("(-2)^(-3)", "-1/8"),
        # div_exact: the ratio of two exponential counts' int multipliers
        ("6*2^G / (4*2^G)", "3/2"),
        # div_exact: int coefficients over an int monomial coefficient
        ("(3*G^2 + 2*G) / (4*G)", "3*G/4 + 1/2"),
        ("(G/3 + 1/3) * 3", "G + 1"),
        # _cmp_sandwich: c / base with c = 3 and base 2 is 3/2, so the lower
        # bound 3*G/2 - (3*G/2 - 1) = 1 decides
        ("3*numerals(2, crit(2, G)) > 3*G/2 - 1", "true"),
    ],
)
def test_division_sites_stay_exact(line, value):
    result = gclang.eval_text(line)
    assert gclang.render_value(result) == value
    assert_exact(result)


def test_sandwich_bounds_keep_a_fractional_c_over_base(capsys):
    # 3 * 2^crit(2, G) - 2G lies in (3*G/2 - 2*G, 3*G - 2*G]
    line = "3*numerals(2, crit(2, G)) < 2*G"
    with pytest.raises(errors.Undetermined) as info:
        gclang.eval_text(line)
    assert (info.value.lower, info.value.upper) == (-G / 2, G)
    assert_exact([info.value.lower, info.value.upper])
    cli.run_line(line, gclang.default_env(), json_mode=True, point=None)
    assert '"bounds": {"lower": "-G/2", "upper": "G"}' in capsys.readouterr().out


def test_integral_values_are_stored_as_int():
    assert type(fin(Fraction(6, 3)).terms[0][0]) is int
    assert type(gterm(Fraction(4, 2), ONE).terms[0][0]) is int
    assert type(make_poly([(Fraction(1, 2), ONE), (Fraction(1, 2), ONE)]).terms[0][0]) is int
    assert type(ExpCount(Fraction(8, 4), 2, G).multiplier) is int
    assert type(gnum._pscale(G / 2, 2).terms[0][0]) is int
    assert type(ZERO.as_rational()) is int and type(G.constant_term()) is int


@pytest.mark.parametrize(
    "build",
    [
        lambda: fin(0.5),
        lambda: gterm(2.0, ONE),
        lambda: make_poly([(0.5, ONE)]),
        lambda: gnum._pscale(G, 0.5),
        lambda: ExpCount(1.5, 2, G),
        lambda: fin("1"),
    ],
)
def test_inexact_coefficients_are_refused(build):
    with pytest.raises(TypeError, match="expected an exact rational"):
        build()
