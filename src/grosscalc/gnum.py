"""Exact arithmetic and ordering for gross-numbers.

The value domain has two layers:

* ``GrossPoly``: finite sums ``sum(c_i * G^e_i)`` where ``G`` is the infinite
  unit (the count of the whole set of natural numbers), the coefficients are
  exact rational numbers, stored as an ``int`` when integral and as a
  ``Fraction`` otherwise (``_exact`` alone decides which), and the exponents
  are themselves gross-polynomials.  This layer covers every set count such
  as ``G/2``, ``2*G + 1`` or ``G^2``, plus the infinitesimals that appear as
  their reciprocals.
* ``ExpCount``: counts of positional numeral systems, ``r * b^E + tail`` with
  a finite integer base ``b >= 2`` and an infinite exponent ``E``.  The
  exponent is either a gross-polynomial or a symbolic critical digit length
  ``crit(b, M) + i`` known only through its sandwich
  ``M/b < b^crit(b, M) <= M``.

Everything is immutable and exact.  Operations that would leave this closure
raise an error from :mod:`grosscalc.errors` instead of approximating, and
comparisons the closure cannot decide raise :class:`Undetermined` rather than
guessing.

Each GrossPoly keeps what canonicalization asks of it again and again, so
that no question walks its nested terms twice: its exponent depth, its hash
and an order key, a nested tuple that orders exactly as the values do, so
``_canon`` sorts by it and ``_cmp_poly`` is one tuple comparison.  Each is
worked out on first use and written into the value's ``__dict__``.  One
function, ``_order_key``, builds the keys of a value and of its negation,
which a negative term needs for its exponent.  The facts live on the value
and go with it: there is no table of values and no memo that outlives an
operation.  Only the builders that take an exponent from outside, ``gterm``,
``make_poly`` and the constructor, read the depth, to refuse one past
``MAX_EXPONENT_DEPTH``.  Arithmetic builds its results through ``_poly``,
which writes the terms straight into the instance and checks nothing: a
result only reuses its operands' exponents, their sums or differences, or
finite constants, so it nests no deeper than its deepest operand.  A sum
merges the two sorted term lists in one pass, comparing exponents by their
order keys.  A product by a rational scales the other side's terms.  Any
other product reads each rational exponent as an exact int over the lcm of
their denominators, adds each pair of them as ints, and since finite
exponents order as those ints do, its terms come out sorted by int, with no
canonicalization; only pairs with a non-rational exponent add polynomials,
and then one ``_canon`` takes every term.  A quotient by a monomial
subtracts its exponent from every term's, which keeps the terms in order.

Exponential counts relate to one another through three rules, one function
each, and each refuses with ExponentTooLarge a power past its cap:

* ``_cmp_sandwich`` orders a critical count against a polynomial or another
  critical count by bounding their difference through the sandwich; it
  refuses offsets whose power passes ``MAX_POWER_BITS`` bits.
* ``_cmp_remainder`` orders two ``b^P`` counts of one base by what is left
  of their exponents; ``_cmp_scaled_power`` guards its powers, of the bases
  by the exponent's numerator and of the multipliers by its denominator.
  Leading exponent terms ``cx*G^e`` and ``cy*G^e`` of two bases go through
  it too, as ``bx^(cx/cy)`` against ``by``, and an exact tie makes ``by``
  the power ``bx^(cx/cy)``, so the pair is one of one base.
* ``_exponent_gap`` finds the integer ``k`` by which two exponents differ,
  for sums, differences and quotients; it refuses ``b^k`` past
  ``MAX_POWER_BITS`` bits, exactly as ``power`` does.

Within ``gnum`` a numeral base is checked in one place, ``_check_base``.
A coefficient is written in one, ``_scaled``, and a sum of terms in one,
``_join_terms``, for polynomials, exponential counts and critical-length
offsets alike.

Every guard on work too large to do, in every module, is one ``refuse``
call with the size it measured and the name of a cap here, read at call
time, so one assignment moves every guard on MAX_POWER_BITS or MAX_ITEMS.
Each refusal has one shape: ``members listed: 1000001 past MAX_ITEMS = 1000000``.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb, lcm
from typing import Iterable, Optional, Tuple, Union

from .errors import (
    DepthLimitExceeded,
    DivisionByZero,
    ExponentTooLarge,
    NegativeExponent,
    NonExactDivision,
    NonIntegerExponent,
    NotInfinite,
    RepresentationLimit,
    Undetermined,
    UnsupportedPower,
    UnsupportedProduct,
    UnsupportedSum,
)

# Exponent towers deeper than this never arise from counting problems; the
# cap keeps recursive comparison obviously terminating.
MAX_EXPONENT_DEPTH = 8

# The largest exact power computed, in bits: materialized finite powers,
# cross-power comparisons and the oracle's substitutions.
MAX_POWER_BITS = 10 ** 6

# The most residue classes, elements, digits or numerals listed, lifted,
# skipped or expanded one by one, and the largest oracle point enumerated.
MAX_ITEMS = 10 ** 6

# Integers are written as, or read from, at most this many decimal digits:
# CPython 3.11's default int/str limit, fixed here rather than read from the
# interpreter so that every supported version refuses the same integers.
MAX_DIGITS = 4300


class Ordering(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


class Classification(Enum):
    ZERO = "zero"
    FINITE_POSITIVE = "finite-positive"
    FINITE_NEGATIVE = "finite-negative"
    INFINITE_POSITIVE = "infinite-positive"
    INFINITE_NEGATIVE = "infinite-negative"
    INFINITESIMAL = "infinitesimal"


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def too_long(n: int) -> bool:
    """|n| > MAX_DIGITS digits, MAX_DIGITS read at call time.  An ordinary
    int passes on one comparison: 3 * MAX_DIGITS bits stay below
    8^MAX_DIGITS < 10^MAX_DIGITS."""
    return n.bit_length() > 3 * MAX_DIGITS and abs(n) >= 10 ** MAX_DIGITS


def check_digits(n: int, what: str = "an integer") -> int:
    """n itself, or RepresentationLimit when |n| has more than MAX_DIGITS
    digits.  too_long reads the bit length alone; only a refusal counts the
    digits, up from those of 2^(b-1) for b bits (a rational just below
    log10(2) gives them), and its message names b too."""
    if too_long(n):
        d = (n.bit_length() - 1) * 30102999566 // 10 ** 11 + 1
        while abs(n) >= 10 ** d:
            d += 1
        refuse(RepresentationLimit, d, "MAX_DIGITS", "digits of {} of {} bits", what, n.bit_length())
    return n


def number_text(x: Union[int, Fraction]) -> str:
    """str(x) for an int or a Fraction, except that a numerator or
    denominator past MAX_DIGITS digits is written by its bit length, so a
    message can name any integer a guard refuses."""
    if isinstance(x, Fraction) and x.denominator != 1:
        return f"{number_text(x.numerator)}/{number_text(x.denominator)}"
    n = int(x)
    if too_long(n):
        return f"{'-' if n < 0 else ''}<{n.bit_length()}-bit integer>"
    return str(n)


def count_text(x: Union[GrossNumber, "CritRef"]) -> str:
    """render_gross(x), or render_critref(x) for a critical length, for a
    message, except that a count holding a number past MAX_DIGITS digits is
    named without its numbers, so the message keeps the kind of the error
    it explains."""
    try:
        return render_critref(x) if isinstance(x, CritRef) else render_gross(x)
    except RepresentationLimit:
        return f"<a count with a number past {MAX_DIGITS} digits>"


def refuse(error: type, size: int, cap: str, what: str, *parts) -> None:
    """The one guard on sizes: return when size is at most the cap named cap,
    read from this module at call time, else raise error(``what: size past
    cap = value``) with the {} of what filled by parts, numbers through
    number_text and counts through count_text, only on the way out."""
    limit = globals()[cap]
    if size <= limit:
        return
    texts = (p if isinstance(p, str) else number_text(p) if isinstance(p, (int, Fraction))
             else count_text(p) for p in parts)
    raise error(f"{what.format(*texts)}: {number_text(size)} past {cap} = {number_text(limit)}")


def _exact(value) -> Union[int, Fraction]:
    """The stored form of an exact rational: an int as it is, a Fraction
    with denominator 1 as its numerator, any other Fraction as it is.  Int
    and Fraction compare and hash equal, so the form never changes a
    verdict, a key or a rendering; it only spares integers Fraction's cost.
    Anything else, floats included, is a TypeError."""
    if type(value) is int:
        return value
    if type(value) is Fraction or isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected an exact rational, got {value!r}")


class _Arithmetic:
    """The operators GrossPoly and ExpCount share: thin wrappers over the
    module-level functions, with plain ints and Fractions coerced.  The
    dataclasses below set ``repr=False`` so this ``__repr__`` stays theirs."""

    def __add__(self, other):
        return add(self, _coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div_exact(self, _coerce(other))

    def __lt__(self, other):
        return _cmp_gross(self, _coerce(other)) < 0

    def __le__(self, other):
        return _cmp_gross(self, _coerce(other)) <= 0

    def __gt__(self, other):
        return _cmp_gross(self, _coerce(other)) > 0

    def __ge__(self, other):
        return _cmp_gross(self, _coerce(other)) >= 0

    def __str__(self):
        return render_gross(self)

    def __repr__(self):
        return f"{type(self).__name__}<{render_gross(self)}>"


@dataclass(frozen=True, repr=False)
class GrossPoly(_Arithmetic):
    """Canonical finite sum of rational multiples of powers of G.

    ``terms`` is a tuple of ``(coefficient, exponent)`` pairs ordered by
    strictly decreasing exponent with no zero coefficients; the empty tuple
    is zero.  Each coefficient is an exact rational, an ``int`` when
    integral and a ``Fraction`` otherwise, as ``_exact`` leaves it.  Build
    values through :func:`make_poly`, :func:`fin` or the arithmetic
    operators rather than the raw constructor.

    The public constructor refuses an exponent depth past
    ``MAX_EXPONENT_DEPTH``.  The module's arithmetic builds values through
    ``_poly`` instead, which skips the dataclass machinery and the check.
    The depth, the hash and the order keys of the value and of its negation
    are worked out on first use and kept on the value: many values, such as
    the finite counts of set measurement, are never hashed or ordered.
    """

    terms: Tuple[Tuple[Union[int, Fraction], "GrossPoly"], ...] = ()

    # filled in on first use by _depth, __hash__ and _order_key (of p and -p)
    _depth = None
    _hash = None
    _key = None
    _neg_key = None

    def __post_init__(self):
        _check_depth(self)

    # structure probes

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Union[int, Fraction]:
        for coeff, exp in self.terms:
            if exp.is_zero:
                return coeff
        return 0

    def as_rational(self) -> Union[int, Fraction, None]:
        """The exact rational value, or None if any G power is present."""
        terms = self.terms
        if not terms:
            return 0
        if len(terms) == 1 and not terms[0][1].terms:
            return terms[0][0]
        return None

    def as_int(self) -> Optional[int]:
        r = self.as_rational()
        if r is not None and r.denominator == 1:
            return int(r)
        return None

    # operators beyond those of _Arithmetic

    def __neg__(self):
        return _pneg(self)

    def __rtruediv__(self, other):
        return div_exact(_coerce(other), self)

    def __pow__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        # a negative power inverts the positive one, also for the multi-term
        # bases whose negative powers the language's ^ refuses
        if other < 0:
            return div_exact(ONE, power(self, -other))
        return power(self, other)

    def __eq__(self, other):
        other = _try_coerce(other)
        if isinstance(other, GrossPoly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self.__dict__["_hash"] = hash(self.terms)
        return h

    def __bool__(self):
        return bool(self.terms)


def _depth(p: GrossPoly) -> int:
    """The exponent depth of p, worked out on first use and kept on p and on
    each exponent below it, which values share."""
    depth = p._depth
    if depth is None:
        depth = p.__dict__["_depth"] = 1 + max([_depth(e) for _, e in p.terms]) if p.terms else 0
    return depth


def _check_depth(p: GrossPoly) -> GrossPoly:
    """p itself, or DepthLimitExceeded past MAX_EXPONENT_DEPTH."""
    if _depth(p) > MAX_EXPONENT_DEPTH:
        raise DepthLimitExceeded(
            f"exponent nesting deeper than {MAX_EXPONENT_DEPTH} is not supported"
        )
    return p


def _poly(terms) -> GrossPoly:
    """A plain GrossPoly of canonical terms, written straight into its
    ``__dict__``, with no depth check."""
    p = object.__new__(GrossPoly)
    p.__dict__["terms"] = terms
    return p


ZERO = GrossPoly()
ONE = GrossPoly(((1, ZERO),))
G = GrossPoly(((1, ONE),))


def fin(value) -> GrossPoly:
    """The finite gross-number equal to the given int or Fraction."""
    coeff = _exact(value)
    if not coeff:
        return ZERO
    return _poly(((coeff, ZERO),))


def gterm(coeff, exp: GrossPoly) -> GrossPoly:
    """The single-term value ``coeff * G^exp``."""
    coeff = _exact(coeff)
    if not coeff:
        return ZERO
    return _check_depth(_poly(((coeff, exp),)))


def make_poly(pairs: Iterable[Tuple[Union[int, Fraction], GrossPoly]]) -> GrossPoly:
    """Canonicalize arbitrary ``(coeff, exponent)`` pairs into a GrossPoly."""
    return _check_depth(_canon(pairs))


def _canon(pairs) -> GrossPoly:
    acc = {}
    for coeff, exp in pairs:
        if coeff:
            acc[exp] = acc[exp] + coeff if exp in acc else coeff
    items = [(_exact(coeff), exp) for exp, coeff in acc.items() if coeff]
    items.sort(key=lambda term: _order_key(term[1]), reverse=True)
    return _poly(tuple(items))


# closes every order key: a value that runs out of terms compares below a
# positive next term and above a negative one, as zero does
_KEY_END = (0,)


def _order_key(p: GrossPoly, sign: int = 1) -> tuple:
    """A tuple that orders as sign*p does among polynomial values, built on
    first use for each sign; sign -1 reads the terms of -p, (-c, e), off p.

    Term (c, e) becomes (1, key of e, c) if c > 0 and (-1, key of -e, c) if
    c < 0, mirroring a walk down both term lists: at the first term that
    differs, a positive term against a negative one decides at once; between
    two terms of one sign the larger exponent dominates, which makes a
    positive value larger and a negative one smaller (hence the key of -e);
    equal exponents leave the coefficients to decide.
    """
    key = p._key if sign > 0 else p._neg_key
    if key is None:
        key = (
            *[
                (1, _order_key(e), c) if c > 0 else (-1, _order_key(e, -1), c)
                for c, e in (p.terms if sign > 0 else [(-c, e) for c, e in p.terms])
            ],
            _KEY_END,
        )
        p.__dict__["_key" if sign > 0 else "_neg_key"] = key
    return key


def _cmp_poly(x: GrossPoly, y: GrossPoly) -> int:
    """Total order on polynomial values: sign of x - y, by their order keys."""
    if x is y:
        return 0
    kx, ky = _order_key(x), _order_key(y)
    return (kx > ky) - (kx < ky)


def _padd(x: GrossPoly, y: GrossPoly) -> GrossPoly:
    """x + y in O(n + m): one merge of the sorted term lists by order key.

    No hash and no sort; the result is always a fresh plain GrossPoly, so a
    SetCount plus zero is a plain count."""
    xs, ys = x.terms, y.terms
    n, m = len(xs), len(ys)
    out = []
    i = j = 0
    while i < n and j < m:
        cx, ex = xs[i]
        cy, ey = ys[j]
        if ex is not ey:
            kx, ky = _order_key(ex), _order_key(ey)
            if kx > ky:
                out.append(xs[i])
                i += 1
                continue
            if kx < ky:
                out.append(ys[j])
                j += 1
                continue
        c = cx + cy
        if c:
            out.append((_exact(c), ex))
        i += 1
        j += 1
    return _poly((*out, *xs[i:], *ys[j:]))


def _pneg(x: GrossPoly) -> GrossPoly:
    return _poly(tuple([(-c, e) for c, e in x.terms]))


def _psub(x: GrossPoly, y: GrossPoly) -> GrossPoly:
    return _padd(x, _pneg(y))


def _pscale(x: GrossPoly, factor: Union[int, Fraction]) -> GrossPoly:
    factor = _exact(factor)
    if not factor:
        return ZERO
    if factor == 1 and type(x) is GrossPoly:
        return x
    return _poly(tuple([(_exact(c * factor), e) for c, e in x.terms]))


def _pmul(x: GrossPoly, y: GrossPoly) -> GrossPoly:
    """x * y in O(n*m) coefficient products.

    A rational side costs O(n), a scaling.  Otherwise every rational
    exponent r of either side is read as the exact int r*d, for d the lcm of
    their denominators, so a term pair whose exponents are both rational
    adds its coefficient under an int sum, and those terms sort as ints,
    which order as the exponents do, with no canonicalization.  A sum takes
    an operand's exponent object where one equals it, else ``fin`` of the
    sum over d.  Only pairs with a non-rational exponent add polynomials,
    and then one ``_canon`` takes both kinds."""
    # a rational factor scales the other side's terms and keeps their order
    r = x.as_rational()
    if r is not None:
        return _pscale(y, r)
    r = y.as_rational()
    if r is not None:
        return _pscale(x, r)
    xs = [(c, e, e.as_rational()) for c, e in x.terms]
    ys = [(c, e, e.as_rational()) for c, e in y.terms]
    d = lcm(*[r.denominator for _, _, r in xs + ys if r is not None])
    if d != 1:  # else every rational exponent is already an int
        xs, ys = [
            [(c, e, r if r is None else r.numerator * (d // r.denominator)) for c, e, r in side]
            for side in (xs, ys)
        ]
    y_rational = [(c, k) for c, _, k in ys if k is not None]
    y_other = [(c, e) for c, e, k in ys if k is None]
    sums = {}  # d times a rational exponent sum -> coefficient sum
    other = []  # (coefficient, exponent) of pairs with a non-rational exponent
    for cx, ex, kx in xs:
        if kx is None:
            other += [(cx * cy, _padd(ex, ey)) for cy, ey, _ in ys]
            continue
        other += [(cx * cy, _padd(ex, ey)) for cy, ey in y_other]
        for cy, ky in y_rational:
            k = kx + ky
            if k in sums:
                sums[k] += cx * cy
            else:
                sums[k] = cx * cy
    # a sum equal to an operand's exponent takes that exponent object
    shared = {k: e for _, e, k in xs + ys if k is not None}
    keys = [k for k, c in sums.items() if c]
    if not other:
        keys.sort(reverse=True)
    terms = []
    for k in keys:
        exp = shared.get(k)
        if exp is None:  # not a truth test: ZERO is falsy
            exp = fin(k // d if k % d == 0 else Fraction(k, d))
        terms.append((_exact(sums[k]), exp))
    if other:
        return _canon(terms + other)
    return _poly(tuple(terms))


def _check_base(base) -> None:
    """Refuse a numeral base that is not an integer >= 2."""
    if not isinstance(base, int) or base < 2:
        raise UnsupportedPower(f"numeral base must be an integer >= 2, got {base}")


@dataclass(frozen=True)
class CritRef:
    """Symbolic critical digit length: floor(log_base(target)) + offset.

    Only the sandwich ``target/base < base^crit(base, target) <= target``
    is known about it; arithmetic is limited to integer offset shifts.
    """

    base: int
    target: GrossPoly
    offset: int = 0

    def __post_init__(self):
        _check_base(self.base)
        if classify(self.target) is not Classification.INFINITE_POSITIVE:
            raise NotInfinite("critical digit lengths require an infinite positive target")

    def __repr__(self):
        return f"CritRef<{render_critref(self)}>"


ExpExponent = Union[GrossPoly, CritRef]


@dataclass(frozen=True, repr=False)
class ExpCount(_Arithmetic):
    """An exponential count ``multiplier * base^exponent + tail``.

    The multiplier is a positive rational, the base a finite integer >= 2 and
    the exponent an infinite positive polynomial or a critical digit length
    for the same base.  The polynomial tail carries exact corrections such as
    the ``- 1`` of "all numerals except zero"; a count that a polynomial could
    express is never stored in this form.  Equality and the hash are the
    dataclass's, over the four fields, so no number or polynomial equals one.
    """

    multiplier: Union[int, Fraction]
    base: int
    exponent: ExpExponent
    tail: GrossPoly = ZERO

    def __post_init__(self):
        object.__setattr__(self, "multiplier", _exact(self.multiplier))
        if self.multiplier <= 0:
            raise UnsupportedProduct("exponential counts must keep a positive multiplier")
        _check_base(self.base)
        if isinstance(self.exponent, GrossPoly):
            if classify(self.exponent) is not Classification.INFINITE_POSITIVE:
                raise UnsupportedPower(
                    "polynomial exponents of an ExpCount must be infinite and positive"
                )
        elif isinstance(self.exponent, CritRef):
            if self.exponent.base != self.base:
                raise UnsupportedPower(
                    "a critical digit length only exponentiates its own base"
                )
        else:
            raise TypeError(f"bad exponent {self.exponent!r}")


GrossNumber = Union[GrossPoly, ExpCount]


def _coerce(value) -> GrossNumber:
    got = _try_coerce(value)
    if got is None:
        raise TypeError(f"cannot interpret {value!r} as a gross-number")
    return got


def _try_coerce(value):
    if isinstance(value, (GrossPoly, ExpCount)):
        return value
    if isinstance(value, (int, Fraction)):
        return fin(value)
    return None


# classification


def classify(x: GrossNumber) -> Classification:
    """Coarse placement of a value: zero, finite, infinite or infinitesimal."""
    if isinstance(x, ExpCount):
        return Classification.INFINITE_POSITIVE
    if not x.terms:
        return Classification.ZERO
    coeff, exp = x.terms[0]
    k = _cmp_poly(exp, ZERO)
    if k > 0:
        return (
            Classification.INFINITE_POSITIVE
            if coeff > 0
            else Classification.INFINITE_NEGATIVE
        )
    if k == 0:
        return (
            Classification.FINITE_POSITIVE if coeff > 0 else Classification.FINITE_NEGATIVE
        )
    return Classification.INFINITESIMAL


def is_whole(x: GrossNumber) -> bool:
    """A whole count: no term of a negative power of G, the last term being
    the lowest, and an integral constant term; b^E + tail is read by its tail."""
    p = x.tail if isinstance(x, ExpCount) else x
    terms = p.terms
    return not (terms and _cmp_poly(terms[-1][1], ZERO) < 0) and p.constant_term().denominator == 1


# addition and subtraction


def add(x: GrossNumber, y: GrossNumber) -> GrossNumber:
    """Exact sum.  Raises UnsupportedSum when the result leaves the closure."""
    if isinstance(x, GrossPoly) and isinstance(y, GrossPoly):
        return _padd(x, y)
    if isinstance(x, ExpCount) and isinstance(y, GrossPoly):
        return ExpCount(x.multiplier, x.base, x.exponent, _padd(x.tail, y))
    if isinstance(x, GrossPoly) and isinstance(y, ExpCount):
        return add(y, x)
    return _combine_exp(x, y, subtract=False)


def neg(x: GrossNumber) -> GrossNumber:
    """Negation; exponential counts have no representable negation."""
    if isinstance(x, GrossPoly):
        return _pneg(x)
    raise UnsupportedSum("an exponential count cannot be negated")


def sub(x: GrossNumber, y: GrossNumber) -> GrossNumber:
    """Exact difference, including cancellation between equal-shape counts."""
    if isinstance(y, GrossPoly):
        return add(x, _pneg(y))
    if isinstance(x, GrossPoly):
        raise UnsupportedSum("subtracting an exponential count from a polynomial leaves the closure")
    return _combine_exp(x, y, subtract=True)


def _combine_exp(x: ExpCount, y: ExpCount, subtract: bool) -> GrossNumber:
    """Sum or difference of two exponential counts with compatible shapes.

    Exponents that differ by a finite integer k fold the factor base^k into
    the multiplier, mirroring the identity b^(P + k) == b^k * b^P.
    """
    if x.base != y.base:
        raise UnsupportedSum("exponential counts with different bases do not combine")
    k = _exponent_gap(x, y)
    if k is None:
        raise UnsupportedSum("exponential counts with incompatible exponents do not combine")
    ry = y.multiplier * x.base ** max(-k, 0)
    if subtract:
        ry = -ry
    multiplier = x.multiplier * x.base ** max(k, 0) + ry
    tail = _psub(x.tail, y.tail) if subtract else _padd(x.tail, y.tail)
    if multiplier == 0:
        return tail
    if multiplier < 0:
        raise UnsupportedSum("the difference would be a negative exponential count")
    return ExpCount(multiplier, x.base, y.exponent if k >= 0 else x.exponent, tail)


def _exponent_gap(x: ExpCount, y: ExpCount) -> Optional[int]:
    """The finite integer k with exponent(x) == exponent(y) + k, or None.

    For two counts of one base: polynomial exponents have a gap when they
    differ by an integer, critical lengths when they share their target.
    Callers materialize base^k, so a gap past MAX_POWER_BITS bits is
    refused exactly when power refuses base^k.
    """
    ex, ey = x.exponent, y.exponent
    if isinstance(ex, GrossPoly) and isinstance(ey, GrossPoly):
        k = _psub(ex, ey).as_int()
    elif isinstance(ex, CritRef) and isinstance(ey, CritRef) and ex.target == ey.target:
        k = ex.offset - ey.offset
    else:
        return None
    if k is not None:
        refuse(ExponentTooLarge, abs(k) * x.base.bit_length(), "MAX_POWER_BITS",
               "bit bound of {}^{}", x.base, k)
    return k


# multiplication and division


def mul(x: GrossNumber, y: GrossNumber) -> GrossNumber:
    """Exact product.  Raises UnsupportedProduct outside the closure."""
    if isinstance(x, GrossPoly) and isinstance(y, GrossPoly):
        return _pmul(x, y)
    if isinstance(x, GrossPoly):
        x, y = y, x
    if isinstance(y, GrossPoly):
        factor = y.as_rational()
        if factor is None:
            raise UnsupportedProduct(
                "an exponential count only scales by a finite rational"
            )
        if factor == 0:
            return ZERO
        if factor < 0:
            raise UnsupportedProduct("exponential counts stay positive")
        return ExpCount(x.multiplier * factor, x.base, x.exponent, _pscale(x.tail, factor))
    # ExpCount * ExpCount
    if x.tail.terms or y.tail.terms:
        raise UnsupportedProduct("cross terms of corrected counts leave the closure")
    if (
        x.base == y.base
        and isinstance(x.exponent, GrossPoly)
        and isinstance(y.exponent, GrossPoly)
    ):
        return ExpCount(x.multiplier * y.multiplier, x.base, _padd(x.exponent, y.exponent))
    raise UnsupportedProduct(
        "products of exponential counts need equal bases and polynomial exponents"
    )


def div_exact(x: GrossNumber, y: GrossNumber) -> GrossNumber:
    """Exact division: the right inverse of mul wherever it is defined."""
    if isinstance(y, GrossPoly):
        if y.is_zero:
            raise DivisionByZero("division by zero")
        r = y.as_rational()
        if r is not None:
            return mul(x, fin(Fraction(1) / r))
        if isinstance(x, ExpCount):
            raise NonExactDivision("an exponential count only divides by rationals or its own kind")
        if len(y.terms) == 1:
            dc, de = y.terms[0]
            # one exponent off every term keeps them distinct and in order
            return _poly(tuple([(_exact(Fraction(c) / dc), _psub(e, de)) for c, e in x.terms]))
        raise NonExactDivision("division by multi-term values is not supported")
    # y is ExpCount
    if isinstance(x, GrossPoly):
        raise NonExactDivision("a polynomial value does not divide by an exponential count")
    if x.tail.terms or y.tail.terms:
        raise NonExactDivision("corrected counts do not divide")
    if x.base != y.base:
        raise NonExactDivision("exponential counts with different bases do not divide")
    ratio = Fraction(x.multiplier, y.multiplier)
    k = _exponent_gap(x, y)
    if k is not None:
        # the unknown or infinite power cancels exactly
        return fin(ratio * Fraction(x.base) ** k)
    if isinstance(x.exponent, GrossPoly) and isinstance(y.exponent, GrossPoly):
        diff = _psub(x.exponent, y.exponent)
        if classify(diff) is Classification.INFINITE_POSITIVE:
            return ExpCount(ratio, x.base, diff)
    raise NonExactDivision("exponents do not cancel")


def pow_count(base: int, k) -> GrossNumber:
    """base**k for a count exponent k (polynomial or critical digit length).

    Finite k must be a non-negative integer and gives an exact rational
    power; infinite positive k gives an ExpCount; negative k is refused.
    """
    _check_base(base)
    if isinstance(k, CritRef):
        return ExpCount(1, base, k)
    if isinstance(k, ExpCount):
        raise UnsupportedPower("exponential exponents leave the closure")
    if isinstance(k, (int, Fraction)):
        k = fin(k)
    cls = classify(k)
    if cls is Classification.ZERO:
        return ONE
    if cls in (Classification.FINITE_NEGATIVE, Classification.INFINITE_NEGATIVE):
        raise NegativeExponent("counts cannot be raised to negative powers")
    if cls is Classification.FINITE_POSITIVE:
        n = k.as_int()
        if n is None:
            raise NonIntegerExponent("finite exponents of counts must be integers")
        return power(fin(base), n)
    if cls is Classification.INFINITESIMAL:
        raise NonIntegerExponent("infinitesimal exponents do not yield counts")
    return ExpCount(1, base, k)


def power(x: GrossNumber, k: GrossNumber) -> GrossNumber:
    """x^k, the one power routine behind the language's ``^`` and ``**``.

    A rational base takes an integer exponent, materialized exactly under
    MAX_POWER_BITS, or an infinite one, which yields 0, 1 or the count
    ``b^k`` of an integer base b >= 2.  A pure power of G takes any exponent,
    since exponents multiply.  Any other base takes finite non-negative
    integer exponents n, under one bound on the size of x^n taken before any
    product.  Written as P/D, with D the lcm of its denominators and S the
    sum of P's absolute coefficients, a base of k terms has a power of at
    most C(n + k - 1, k - 1) terms, and of at most n*q*(max e - min e) + 1
    when its exponents e are rational with common denominator q; each
    coefficient has at most n times the bits of S or of D, and terms times
    bits is at most MAX_POWER_BITS.  A corrected or critical count raised
    past 1 fails as its product with itself does.  One term
    ``c*G^e`` or ``m*b^e`` gives ``c^n*G^(n*e)`` or ``m^n*b^(n*e)`` in one
    step; more terms, or a critical exponent, are multiplied out n times.
    """
    k = _coerce(k)
    r = x.as_rational() if isinstance(x, GrossPoly) else None
    finite = isinstance(k, GrossPoly) and k.as_rational() is not None
    n = k.as_int() if finite else None
    if r is not None:
        if not finite:
            if r == 1:
                return ONE
            if r == 0:
                return ZERO
            if r.denominator == 1 and r >= 2:
                return pow_count(int(r), k)
            raise UnsupportedPower(
                f"{count_text(x)} has no closed power for an infinite exponent"
            )
        if n is None:
            raise NonIntegerExponent("finite exponents must be integers")
        if r == 0 and n < 0:
            raise DivisionByZero("0 cannot be raised to a negative power")
        refuse(ExponentTooLarge, max(abs(r.numerator), r.denominator).bit_length() * abs(n),
               "MAX_POWER_BITS", "bit bound of {}^{}", r, n)
        return fin(Fraction(r) ** n)
    terms = x.terms if isinstance(x, GrossPoly) else ((x.multiplier, x.exponent), *x.tail.terms)
    coeff, exp = terms[0]
    # a pure power of G takes any exponent, every other base one guard
    if not (coeff == 1 and len(terms) == 1 and isinstance(x, GrossPoly)):
        if n is None or n < 0:
            raise UnsupportedPower(
                f"{count_text(x)} only takes finite non-negative integer powers"
            )
        # a tail or a critical exponent leaves the closure at the first
        # product: mul raises its own error before the size of x^n matters
        if isinstance(x, ExpCount) and n >= 2 and (x.tail.terms or isinstance(exp, CritRef)):
            mul(x, x)
        d = lcm(*[c.denominator for c, _ in terms])
        s = sum([abs(c.numerator) * (d // c.denominator) for c, _ in terms])
        bits = n * max(s.bit_length(), d.bit_length())
        # the term count grows as n^(k - 1): a width past the cap alone is
        # refused without it
        count = comb(n + len(terms) - 1, len(terms) - 1) if bits <= MAX_POWER_BITS else 1
        es = [e.as_rational() for _, e in terms] if isinstance(x, GrossPoly) else [None]
        if None not in es:
            # the exponents of x^n are multiples of 1/q from n*min to n*max
            q = lcm(*[e.denominator for e in es])
            count = min(count, int(n * q * (max(es) - min(es))) + 1)
        refuse(ExponentTooLarge, count * bits, "MAX_POWER_BITS", "coefficient bits of ({})^{}", x, n)
    # one term: exponents multiply, for any k of a pure power of G
    if len(terms) == 1 and isinstance(exp, GrossPoly):
        exponent = mul(exp, k)
        if not isinstance(exponent, GrossPoly):
            raise UnsupportedPower(
                f"power {count_text(k)} of {count_text(x)} leaves the gross polynomials"
            )
        # past the guard, a coefficient other than 1 comes with an n >= 0
        if coeff != 1:
            coeff = coeff ** n
        if isinstance(x, ExpCount):
            return ExpCount(coeff, x.base, exponent) if n else ONE
        return gterm(coeff, exponent)
    out = ONE
    for _ in range(n):
        out = mul(out, x)
    return out


# comparison


def compare(x: GrossNumber, y: GrossNumber) -> Ordering:
    """Exact total order on the supported closure.

    Raises Undetermined where only sandwich bounds are known: some
    comparisons of critical-length counts.
    """
    return Ordering(_cmp_gross(_coerce(x), _coerce(y)))


def _cmp_gross(x: GrossNumber, y: GrossNumber) -> int:
    if isinstance(x, GrossPoly) and isinstance(y, GrossPoly):
        return _cmp_poly(x, y)
    if isinstance(x, GrossPoly):
        return -_cmp_gross(y, x)
    xc = isinstance(x.exponent, CritRef)
    if isinstance(y, GrossPoly):
        # a b^P count exceeds every polynomial value
        return _cmp_sandwich(x, y) if xc else 1
    yc = isinstance(y.exponent, CritRef)
    if xc and yc:
        return _cmp_sandwich(x, y)
    if xc or yc:
        # a critical count is sandwiched below a polynomial bound; b^P
        # exceeds all of them
        return -1 if xc else 1
    if x.base == y.base:
        return _cmp_remainder(x, y, _psub(x.exponent, y.exponent))
    return _cmp_cross_base(x, y)


def _cmp_sandwich(x: ExpCount, y: GrossNumber) -> int:
    """Sign of x - y for a critical count x and a polynomial or critical y.

    x - y is linear in the unknown powers B = b^crit(b, T), each known only
    through the sandwich T/b < B <= T.  Coefficients of one (b, T) add up;
    when they all cancel, the polynomial rest decides.  Otherwise an
    exclusive lower bound >= 0 gives 1 and an inclusive upper bound <= 0
    gives -1: the <= side is read as strict, since no target produced by
    set measurement is an exact power of the base.
    """
    rest, coeffs = ZERO, {}
    for sign_, z in ((1, x), (-1, y)):
        if isinstance(z, GrossPoly):
            rest = _psub(rest, z)
            continue
        ref = z.exponent
        refuse(ExponentTooLarge, abs(ref.offset) * ref.base.bit_length(), "MAX_POWER_BITS",
               "bit bound of {}^{} in a critical-length comparison", ref.base, ref.offset)
        key = (ref.base, ref.target)
        coeffs[key] = coeffs.get(key, 0) + sign_ * z.multiplier * Fraction(ref.base) ** ref.offset
        rest = _padd(rest, _pscale(z.tail, sign_))
    if not any(coeffs.values()):
        return _cmp_poly(rest, ZERO)
    lower = upper = rest
    for (base, target), c in coeffs.items():
        at_top, at_bottom = _pscale(target, c), _pscale(target, Fraction(c) / base)
        lo, hi = (at_bottom, at_top) if c > 0 else (at_top, at_bottom)
        lower, upper = _padd(lower, lo), _padd(upper, hi)
    if _cmp_poly(lower, ZERO) >= 0:
        return 1
    if _cmp_poly(upper, ZERO) <= 0:
        return -1
    raise Undetermined(
        f"{count_text(x)} vs {count_text(y)} is not resolvable from the sandwich",
        lower,
        upper,
    )


def _cmp_remainder(x: ExpCount, y: ExpCount, r: GrossPoly) -> int:
    """Sign of x - y for y a count of x's base b with exponent P - r, where P
    is x's exponent, once both are divided by b^(P - r).

    What is left is mx*b^r against my: an infinite r, or the
    (in)finitesimal part of r, decides by its sign since b >= 2, a finite
    rational r is compared exactly, and the tails decide an exact tie.
    """
    if classify(r) in (Classification.INFINITE_POSITIVE, Classification.INFINITE_NEGATIVE):
        return _sign(r.terms[0][0])
    const = r.constant_term()
    s = _cmp_scaled_power(x.multiplier, x.base, const, y.multiplier, 1)
    if s:
        return s
    eps = _psub(r, fin(const))
    if eps.terms:
        # b^eps is 1 plus an (in)finitesimal of the sign of eps
        return _sign(eps.terms[0][0])
    return _cmp_poly(x.tail, y.tail)


def _cmp_scaled_power(
    r1: Union[int, Fraction], b1: int, f: Union[int, Fraction], r2: Union[int, Fraction], b2: int
) -> int:
    """Sign of r1*b1^f - r2*b2^f for an exact rational f, compared as
    r1^q * b1^p against r2^q * b2^p for f = p/q."""
    q = f.denominator
    p = f.numerator
    r1, r2 = Fraction(r1), Fraction(r2)
    width = max(max(abs(r.numerator), r.denominator).bit_length() for r in (r1, r2))
    refuse(ExponentTooLarge, max(abs(p) * max(b1, b2).bit_length(), q * width), "MAX_POWER_BITS",
           "bit bound of a cross-power comparison at exponent {}", f)
    lhs = r1 ** q * Fraction(b1) ** p
    rhs = r2 ** q * Fraction(b2) ** p
    return _sign(lhs - rhs)


def _cmp_cross_base(x: ExpCount, y: ExpCount) -> int:
    """Counts of different bases, ordered by their leading exponent terms.

    Leading terms cx*G^e and cy*G^e tie exactly when by == bx^(cx/cy); then
    y is a count of base bx with exponent (cx/cy)*Py, and the rest is the
    one-base comparison of what is left over.
    """
    px, py = x.exponent, y.exponent
    (cx, ex) = px.terms[0]
    (cy, ey) = py.terms[0]
    ce = _cmp_poly(ex, ey)
    if ce:
        return ce  # leading coefficients of count exponents are positive
    # cx*ln(bx) against cy*ln(by), as bx^(cx/cy) against by since cy > 0
    ratio = Fraction(cx, cy)
    s = _cmp_scaled_power(1, x.base, ratio, y.base, 1)
    if s:
        return s
    return _cmp_remainder(x, y, _psub(px, _pscale(py, ratio)))


# rendering (the inverse of the expression-language parser on canonical forms);
# every integer written passes check_digits first


def _exp_str(e: GrossPoly) -> str:
    n = e.as_int()
    if n is not None and n >= 0:
        return str(check_digits(n))
    return f"({render_poly(e)})"


def _scaled(coeff: Fraction, core: Optional[str]) -> str:
    """coeff*core for a positive coeff: 'core', 'n*core', 'core/d', 'n*core/d';
    with no core, coeff alone: 'n', 'n/d'."""
    n, d = check_digits(coeff.numerator), check_digits(coeff.denominator)
    text = str(n) if core is None else core if n == 1 else f"{n}*{core}"
    return text if d == 1 else f"{text}/{d}"


def _join_terms(lead: str, terms) -> str:
    """lead, then each (coefficient, exponent) term as ' + a' or ' - a'; with
    an empty lead the first term is written 'a' or '-a'."""
    text = lead
    for c, e in terms:
        body = _scaled(abs(c), None if e.is_zero else "G" if e == ONE else f"G^{_exp_str(e)}")
        if text:
            text += (" - " if c < 0 else " + ") + body
        else:
            text = ("-" if c < 0 else "") + body
    return text


def render_poly(p: GrossPoly) -> str:
    return _join_terms("", p.terms) or "0"


def render_critref(ref: CritRef) -> str:
    inner = f"crit({check_digits(ref.base)}, {render_poly(ref.target)})"
    return f"({_join_terms(inner, ((ref.offset, ZERO),))})" if ref.offset else inner


def render_gross(x: GrossNumber) -> str:
    """Canonical text form; parsing it back yields an equal value."""
    if isinstance(x, GrossPoly):
        return render_poly(x)
    if isinstance(x.exponent, CritRef):
        exp_text = render_critref(x.exponent)
    elif x.exponent == G:
        exp_text = "G"
    else:
        exp_text = f"({render_poly(x.exponent)})"
    core = _scaled(x.multiplier, f"{check_digits(x.base)}^{exp_text}")
    return _join_terms(core, x.tail.terms)
