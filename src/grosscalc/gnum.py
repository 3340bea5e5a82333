"""Exact arithmetic and ordering for gross-numbers.

The value domain has two layers:

* ``GrossPoly``: finite sums ``sum(c_i * G^e_i)`` where ``G`` is the infinite
  unit (the count of the whole set of natural numbers), the coefficients are
  exact rationals, and the exponents are themselves gross-polynomials.  This
  layer covers every set count such as ``G/2``, ``2*G + 1`` or ``G^2``, plus
  the infinitesimals that appear as their reciprocals.
* ``ExpCount``: counts of positional numeral systems, ``r * b^E + tail`` with
  a finite integer base ``b >= 2`` and an infinite exponent ``E``.  The
  exponent is either a gross-polynomial or a symbolic critical digit length
  ``crit(b, M) + i`` known only through its sandwich
  ``M/b < b^crit(b, M) <= M``.

Everything is immutable and exact.  Operations that would leave this closure
raise an error from :mod:`grosscalc.errors` instead of approximating, and
comparisons the closure cannot decide raise :class:`Undetermined` rather than
guessing.

Each GrossPoly stores what canonicalization asks of it again and again, so
that no question walks its nested terms twice: its exponent depth, computed
at construction from its exponents' stored depths; its hash, computed on
first use; and an order key, a nested tuple built on first use that orders
exactly as the values do, so ``_canon`` sorts by it and ``_cmp_poly`` is one
tuple comparison.  The facts live on the value and go with it: there is no
table of values and no memo that outlives an operation.  A product of two
terms whose exponents are both rational adds the exponents as rationals, not
as polynomials.

Exponential counts relate to one another through three rules, one function
each, and each refuses with ExponentTooLarge a power it will not compute:

* ``_cmp_sandwich`` orders a critical count against a polynomial or another
  critical count by bounding their difference through the sandwich; it
  refuses offsets whose power passes ``MAX_POWER_BITS`` bits.
* ``_cmp_remainder`` orders two ``b^P`` counts, of one base or two, once
  their leading exponent terms tie; ``_cmp_scaled_power`` guards its powers,
  of the bases by the exponent's numerator and of the multipliers by its
  denominator.
* ``_exponent_gap`` finds the integer ``k`` by which two exponents differ,
  for sums, differences and quotients; it refuses ``b^k`` past
  ``MAX_POWER_BITS`` bits, exactly as ``power`` does.

Guards on work too large to do, in every module, compare against
``MAX_POWER_BITS`` or ``MAX_ITEMS`` read from here at call time, so one
assignment moves them all, and raise through ``refuse``.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, NoReturn, Optional, Tuple, Union

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

# Powers of multi-term values are unrolled into at most this many products.
_POW_UNROLL_LIMIT = 512

# Integers are written as, or read from, at most this many decimal digits:
# CPython 3.11's default int/str limit, fixed here rather than read from the
# interpreter so that every supported version refuses the same integers.
MAX_DIGITS = 4300
_DIGIT_BOUND = 10 ** MAX_DIGITS
_DIGIT_BOUND_BITS = _DIGIT_BOUND.bit_length()


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


def _too_long(n: int) -> bool:
    """|n| > MAX_DIGITS digits; an ordinary int passes on one comparison."""
    return n.bit_length() >= _DIGIT_BOUND_BITS and abs(n) >= _DIGIT_BOUND


def check_digits(n: int, what: str = "an integer") -> int:
    """n itself, or RepresentationLimit when |n| has more than MAX_DIGITS digits."""
    if _too_long(n):
        raise RepresentationLimit(f"{what} has more than {MAX_DIGITS} digits")
    return n


def number_text(x: Union[int, Fraction]) -> str:
    """str(x) for an int or a Fraction, except that a numerator or
    denominator past MAX_DIGITS digits is written by its bit length, so a
    message can name any integer a guard refuses."""
    if isinstance(x, Fraction) and x.denominator != 1:
        return f"{number_text(x.numerator)}/{number_text(x.denominator)}"
    n = int(x)
    if _too_long(n):
        return f"{'-' if n < 0 else ''}<{n.bit_length()}-bit integer>"
    return str(n)


def count_text(x: GrossNumber) -> str:
    """render_gross(x) for a message, except that a count holding a number
    past MAX_DIGITS digits is named without its numbers, so the message
    keeps the kind of the error it explains."""
    try:
        return render_gross(x)
    except RepresentationLimit:
        return f"<a count with a number past {MAX_DIGITS} digits>"


def refuse(error: type, template: str, *numbers: Union[int, Fraction]) -> NoReturn:
    """Raise error(template) with its {} filled by number_text of numbers;
    a guard compares first, so text is built only on the way out."""
    raise error(template.format(*map(number_text, numbers)))


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
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
    is zero.  Build values through :func:`make_poly`, :func:`fin` or the
    arithmetic operators rather than the raw constructor.

    Every constructor call computes the exponent depth from the exponents'
    stored ``_depth`` and refuses one past ``MAX_EXPONENT_DEPTH``.  The hash
    and the order keys of the value and of its negation are built on first
    use and kept on the value: many values, such as the finite counts of set
    measurement, are never hashed or ordered.
    """

    terms: Tuple[Tuple[Fraction, "GrossPoly"], ...] = ()

    # filled in on first use by __hash__, _order_key and _order_neg_key
    _hash = None
    _key = None
    _neg_key = None

    def __post_init__(self):
        depth = 1 + max([exp._depth for _, exp in self.terms]) if self.terms else 0
        if depth > MAX_EXPONENT_DEPTH:
            raise DepthLimitExceeded(
                f"exponent nesting deeper than {MAX_EXPONENT_DEPTH} is not supported"
            )
        object.__setattr__(self, "_depth", depth)

    # structure probes

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        for coeff, exp in self.terms:
            if exp.is_zero:
                return coeff
        return Fraction(0)

    def as_rational(self) -> Optional[Fraction]:
        """The exact rational value, or None if any G power is present."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and self.terms[0][1].is_zero:
            return self.terms[0][0]
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
        if isinstance(other, ExpCount):
            return False
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.terms)
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return bool(self.terms)


ZERO = GrossPoly()
ONE = GrossPoly(((Fraction(1), ZERO),))
GROSSONE = GrossPoly(((Fraction(1), ONE),))
G = GROSSONE


def fin(value) -> GrossPoly:
    """The finite gross-number equal to the given int or Fraction."""
    coeff = _as_fraction(value)
    if coeff == 0:
        return ZERO
    return GrossPoly(((coeff, ZERO),))


def gterm(coeff, exp: GrossPoly) -> GrossPoly:
    """The single-term value ``coeff * G^exp``."""
    coeff = _as_fraction(coeff)
    if coeff == 0:
        return ZERO
    return GrossPoly(((coeff, exp),))


def make_poly(pairs: Iterable[Tuple[Fraction, GrossPoly]]) -> GrossPoly:
    """Canonicalize arbitrary ``(coeff, exponent)`` pairs into a GrossPoly."""
    return _canon(pairs)


def _canon(pairs) -> GrossPoly:
    acc = {}
    for coeff, exp in pairs:
        coeff = _as_fraction(coeff)
        if coeff:
            acc[exp] = acc[exp] + coeff if exp in acc else coeff
    items = [(coeff, exp) for exp, coeff in acc.items() if coeff]
    items.sort(key=lambda term: _order_key(term[1]), reverse=True)
    return GrossPoly(tuple(items))


# closes every order key: a value that runs out of terms compares below a
# positive next term and above a negative one, as zero does
_KEY_END = (0,)


def _order_key(p: GrossPoly) -> tuple:
    """A tuple that orders as p does among polynomial values, built once.

    Term (c, e) becomes (sign c, key of e if c > 0 else key of -e, c),
    mirroring a walk down both term lists: at the first term that differs,
    a positive term against a negative one decides at once; between two
    terms of one sign the larger exponent dominates, which makes a positive
    value larger and a negative one smaller (hence the key of -e); equal
    exponents leave the coefficients to decide.
    """
    key = p._key
    if key is None:
        key = (
            *[
                (1, _order_key(e), c) if c > 0 else (-1, _order_neg_key(e), c)
                for c, e in p.terms
            ],
            _KEY_END,
        )
        object.__setattr__(p, "_key", key)
    return key


def _order_neg_key(p: GrossPoly) -> tuple:
    """_order_key of -p, built from p without negating it: the terms of -p
    are (-c, e)."""
    key = p._neg_key
    if key is None:
        key = (
            *[
                (1, _order_key(e), -c) if c < 0 else (-1, _order_neg_key(e), -c)
                for c, e in p.terms
            ],
            _KEY_END,
        )
        object.__setattr__(p, "_neg_key", key)
    return key


def _cmp_poly(x: GrossPoly, y: GrossPoly) -> int:
    """Total order on polynomial values: sign of x - y, by their order keys."""
    if x is y:
        return 0
    kx, ky = _order_key(x), _order_key(y)
    return (kx > ky) - (kx < ky)


def _padd(x: GrossPoly, y: GrossPoly) -> GrossPoly:
    return _canon(x.terms + y.terms)


def _pneg(x: GrossPoly) -> GrossPoly:
    return GrossPoly(tuple((-c, e) for c, e in x.terms))


def _psub(x: GrossPoly, y: GrossPoly) -> GrossPoly:
    return _padd(x, _pneg(y))


def _pscale(x: GrossPoly, factor: Fraction) -> GrossPoly:
    factor = _as_fraction(factor)
    if factor == 0:
        return ZERO
    return GrossPoly(tuple((c * factor, e) for c, e in x.terms))


def _pmul(x: GrossPoly, y: GrossPoly) -> GrossPoly:
    acc = []
    ys = [(cy, ey, ey.as_rational()) for cy, ey in y.terms]
    for cx, ex in x.terms:
        rx = ex.as_rational()
        for cy, ey, ry in ys:
            # a sum of two rational exponents needs no canonicalization
            exp = fin(rx + ry) if rx is not None and ry is not None else _padd(ex, ey)
            acc.append((cx * cy, exp))
    return _canon(acc)


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
        if not isinstance(self.base, int) or self.base < 2:
            raise UnsupportedPower(f"numeral base must be an integer >= 2, got {self.base}")
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
    express is never stored in this form.
    """

    multiplier: Fraction
    base: int
    exponent: ExpExponent
    tail: GrossPoly = ZERO

    def __post_init__(self):
        object.__setattr__(self, "multiplier", _as_fraction(self.multiplier))
        if self.multiplier <= 0:
            raise UnsupportedProduct("exponential counts must keep a positive multiplier")
        if not isinstance(self.base, int) or self.base < 2:
            raise UnsupportedPower(f"numeral base must be an integer >= 2, got {self.base}")
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

    def __eq__(self, other):
        other = _try_coerce(other)
        if isinstance(other, ExpCount):
            return (
                self.multiplier == other.multiplier
                and self.base == other.base
                and self.exponent == other.exponent
                and self.tail == other.tail
            )
        if isinstance(other, GrossPoly):
            return False
        return NotImplemented

    def __hash__(self):
        return hash((self.multiplier, self.base, self.exponent, self.tail))


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
    base = Fraction(x.base)
    ry = y.multiplier * base ** max(-k, 0)
    if subtract:
        ry = -ry
    multiplier = x.multiplier * base ** max(k, 0) + ry
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
    if k is not None and abs(k) * x.base.bit_length() > MAX_POWER_BITS:
        refuse(ExponentTooLarge, "{}^{} will not be materialized", x.base, k)
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
            return _canon((c / dc, _psub(e, de)) for c, e in x.terms)
        raise NonExactDivision("division by multi-term values is not supported")
    # y is ExpCount
    if isinstance(x, GrossPoly):
        raise NonExactDivision("a polynomial value does not divide by an exponential count")
    if x.tail.terms or y.tail.terms:
        raise NonExactDivision("corrected counts do not divide")
    if x.base != y.base:
        raise NonExactDivision("exponential counts with different bases do not divide")
    ratio = x.multiplier / y.multiplier
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
    if not isinstance(base, int) or base < 2:
        raise UnsupportedPower(f"numeral base must be an integer >= 2, got {base}")
    if isinstance(k, CritRef):
        if k.base != base:
            raise UnsupportedPower("a critical digit length only exponentiates its own base")
        return ExpCount(Fraction(1), base, k)
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
    return ExpCount(Fraction(1), base, k)


def power(x: GrossNumber, k: GrossNumber) -> GrossNumber:
    """x^k, the one power routine behind the language's ``^`` and ``**``.

    A rational base takes an integer exponent, materialized exactly under
    MAX_POWER_BITS, or an infinite one, which yields 0, 1 or the count
    ``b^k`` of an integer base b >= 2.  A pure power of G takes any exponent,
    since exponents multiply.  Any other base takes finite non-negative
    integer exponents, unrolled into at most _POW_UNROLL_LIMIT products.
    """
    k = _coerce(k)
    # a pure power of G (a nonzero exponent is truthy): exponents multiply
    if isinstance(x, GrossPoly) and len(x.terms) == 1 and x.terms[0][0] == 1 and x.terms[0][1]:
        exponent = mul(x.terms[0][1], k)
        if not isinstance(exponent, GrossPoly):
            raise UnsupportedPower(
                f"power {count_text(k)} of {count_text(x)} leaves the gross polynomials"
            )
        return gterm(1, exponent)
    r = x.as_rational() if isinstance(x, GrossPoly) else None
    finite = isinstance(k, GrossPoly) and k.as_rational() is not None
    if r is not None and not finite:
        if r == 1:
            return ONE
        if r == 0:
            return ZERO
        if r.denominator == 1 and r >= 2:
            return pow_count(int(r), k)
        raise UnsupportedPower(
            f"{count_text(x)} has no closed power for an infinite exponent"
        )
    n = k.as_int() if finite else None
    if r is not None:
        if n is None:
            raise NonIntegerExponent("finite exponents must be integers")
        if r == 0 and n < 0:
            raise DivisionByZero("0 cannot be raised to a negative power")
        if max(abs(r.numerator), r.denominator).bit_length() * abs(n) > MAX_POWER_BITS:
            refuse(ExponentTooLarge, "{}^{} will not be materialized", r, n)
        return fin(r ** n)
    if n is None or n < 0:
        raise UnsupportedPower(
            f"{count_text(x)} only takes finite non-negative integer powers"
        )
    if n > _POW_UNROLL_LIMIT:
        raise ExponentTooLarge(
            f"power {number_text(n)} of {count_text(x)} will not be unrolled"
        )
    out = ONE
    for _ in range(n):
        out = mul(out, x)
    return out


# comparison


def compare(x: GrossNumber, y: GrossNumber) -> Ordering:
    """Exact total order on the supported closure.

    Raises Undetermined where only sandwich bounds are known (some mixed
    critical-length comparisons, and cross-base ties past leading order).
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
        # divided by b^Py, the counts leave b^(Px - Py) against 1^(Px - Py)
        return _cmp_remainder(x, y, _psub(x.exponent, y.exponent), x.base, 1)
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
        if abs(ref.offset) * ref.base.bit_length() > MAX_POWER_BITS:
            refuse(ExponentTooLarge, "critical-length comparison exceeds the size guard")
        key = (ref.base, ref.target)
        coeffs[key] = coeffs.get(key, 0) + sign_ * z.multiplier * Fraction(ref.base) ** ref.offset
        rest = _padd(rest, _pscale(z.tail, sign_))
    if not any(coeffs.values()):
        return _cmp_poly(rest, ZERO)
    lower = upper = rest
    for (base, target), c in coeffs.items():
        at_top, at_bottom = _pscale(target, c), _pscale(target, c / base)
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


def _cmp_remainder(x: ExpCount, y: ExpCount, r: GrossPoly, bx: int, by: int) -> int:
    """Sign of x - y once both are divided by a common power of their bases.

    What is left is mx*bx^r against my*by^r: an infinite r, or the
    (in)finitesimal part of r, goes the way of the larger base, a finite
    rational r is compared exactly, and the tails decide an exact tie.
    """
    if classify(r) in (Classification.INFINITE_POSITIVE, Classification.INFINITE_NEGATIVE):
        return _sign(r.terms[0][0]) * _sign(bx - by)
    const = r.constant_term()
    s = _cmp_scaled_power(x.multiplier, bx, const, y.multiplier, by)
    if s:
        return s
    eps = _psub(r, fin(const))
    if eps.terms:
        # b^eps is 1 plus an (in)finitesimal of the sign of eps
        return _sign(eps.terms[0][0]) * _sign(bx - by)
    return _cmp_poly(x.tail, y.tail)


def _cmp_scaled_power(r1: Fraction, b1: int, f: Fraction, r2: Fraction, b2: int) -> int:
    """Sign of r1*b1^f - r2*b2^f for an exact rational f, compared as
    r1^q * b1^p against r2^q * b2^p for f = p/q."""
    q = f.denominator
    p = f.numerator
    r1, r2 = Fraction(r1), Fraction(r2)
    width = max(max(abs(r.numerator), r.denominator).bit_length() for r in (r1, r2))
    if max(abs(p) * max(b1, b2).bit_length(), q * width) > MAX_POWER_BITS:
        refuse(ExponentTooLarge, "cross-power comparison exceeds the size guard")
    lhs = r1 ** q * Fraction(b1) ** p
    rhs = r2 ** q * Fraction(b2) ** p
    return _sign(lhs - rhs)


def _cmp_log_leading(c1: Fraction, b1: int, c2: Fraction, b2: int) -> int:
    """Sign of c1*ln(b1) - c2*ln(b2) for positive rationals via integer powers."""
    e1 = c1.numerator * c2.denominator
    e2 = c2.numerator * c1.denominator
    if max(e1, e2) * max(b1, b2).bit_length() > MAX_POWER_BITS:
        refuse(ExponentTooLarge, "cross-power comparison exceeds the size guard")
    return _sign(b1 ** e1 - b2 ** e2)


def _cmp_cross_base(x: ExpCount, y: ExpCount) -> int:
    """Counts of different bases: exact comparison at leading order.

    Ties deeper than the leading exponent term are resolved exactly when the
    exponent remainders coincide; remainders that differ are an honest
    Undetermined, since counting identities never compare such pairs.
    """
    px, py = x.exponent, y.exponent
    (cx, ex) = px.terms[0]
    (cy, ey) = py.terms[0]
    ce = _cmp_poly(ex, ey)
    if ce:
        return ce  # leading coefficients of count exponents are positive
    s = _cmp_log_leading(cx, x.base, cy, y.base)
    if s:
        return s
    rx = GrossPoly(px.terms[1:])
    ry = GrossPoly(py.terms[1:])
    if rx != ry:
        raise Undetermined(
            f"{count_text(x)} vs {count_text(y)}: tied at leading order with "
            "different exponent remainders"
        )
    return _cmp_remainder(x, y, rx, x.base, y.base)


# rendering (the inverse of the expression-language parser on canonical forms);
# every integer written passes check_digits first


def _frac_str(f: Fraction) -> str:
    n, d = check_digits(f.numerator), check_digits(f.denominator)
    return str(n) if d == 1 else f"{n}/{d}"


def _exp_str(e: GrossPoly) -> str:
    n = e.as_int()
    if n is not None and n >= 0:
        return str(check_digits(n))
    return f"({render_poly(e)})"


def _term_body(coeff: Fraction, exp: GrossPoly) -> str:
    """Positive-coefficient term text: '3', 'G/55', '2*G', '3*G^2/4'."""
    if exp.is_zero:
        return _frac_str(coeff)
    core = "G" if exp == ONE else f"G^{_exp_str(exp)}"
    n, d = check_digits(coeff.numerator), check_digits(coeff.denominator)
    body = core if n == 1 else f"{n}*{core}"
    if d != 1:
        body += f"/{d}"
    return body


def _join_terms(pieces) -> str:
    """Join (sign, body) pieces into '-a + b - c' form."""
    out = []
    for i, (sign_, body) in enumerate(pieces):
        if i == 0:
            out.append(("-" if sign_ < 0 else "") + body)
        else:
            out.append((" - " if sign_ < 0 else " + ") + body)
    return "".join(out)


def render_poly(p: GrossPoly) -> str:
    if not p.terms:
        return "0"
    return _join_terms((_sign(c), _term_body(abs(c), e)) for c, e in p.terms)


def render_critref(ref: CritRef) -> str:
    inner = f"crit({check_digits(ref.base)}, {render_poly(ref.target)})"
    offset = check_digits(ref.offset)
    if offset == 0:
        return inner
    if offset > 0:
        return f"({inner} + {offset})"
    return f"({inner} - {-offset})"


def render_gross(x: GrossNumber) -> str:
    """Canonical text form; parsing it back yields an equal value."""
    if isinstance(x, GrossPoly):
        return render_poly(x)
    if isinstance(x.exponent, CritRef):
        exp_text = render_critref(x.exponent)
    elif x.exponent == GROSSONE:
        exp_text = "G"
    else:
        exp_text = f"({render_poly(x.exponent)})"
    core = f"{check_digits(x.base)}^{exp_text}"
    n, d = check_digits(x.multiplier.numerator), check_digits(x.multiplier.denominator)
    if n != 1:
        core = f"{n}*{core}"
    if d != 1:
        core = f"{core}/{d}"
    if not x.tail.terms:
        return core
    tail = _join_terms(
        [(1, core)] + [(_sign(c), _term_body(abs(c), e)) for c, e in x.tail.terms]
    )
    return tail
