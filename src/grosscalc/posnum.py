"""Positional numeral systems with a gross-number count of digit positions.

A numeral here is the fractional string 0.d1 d2 ... dN in a radix b, where
the count N of positions may be finite or an infinite gross-number such as
G or G/2.  Only finitely many digits can ever be written down, so a numeral
is stored sparsely from both ends: a head block starting at position 1, a
tail block ending at position N, and an implicit run of 0 digits between
them.  That shape covers every numeral that can actually be displayed;
strings with infinitely many scattered nonzero digits are out of scope.
A finite string of N positions is always split at its midpoint: the head
holds positions 1..N//2 and the tail the rest, each without the zeros next
to the gap, so equal strings are equal records at every length.  Records
are built only through numeral(), which makes that split.

Digits are read in one place: numeral() takes a head or tail as digit
text (0-9, then a-z for 10 to 35) or as digit values, checks the alphabet
and the base in one pass, and names a bad digit as it was given.  The
successor and the predecessor are one carry rule: the last digit that does
not wrap (b-1 going up, 0 going down) moves by one, and every digit after
it wraps.  The implicit zeros between head and tail take a carry on their
last position going up, and wrap as one run going down.

The module also counts how many numerals each system expresses (b^N for N
positions) and locates the critical digit lengths where that count first
reaches a given infinite polynomial target.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from . import gnum
from .errors import (
    EvalError,
    IncomparableSystems,
    NotInfinite,
    Overflow,
    RepresentationLimit,
    Underflow,
)
from .gnum import (
    Classification,
    CritRef,
    ExpCount,
    G,
    GrossNumber,
    GrossPoly,
    Ordering,
    classify,
    count_text,
    fin,
    pow_count,
    render_critref,
    render_gross,
)

# full digit expansion in rendering; longer strings fall back to head...tail
_EXPAND_LIMIT = 32

Digits = Tuple[int, ...]

# one character per digit value, so a radix is at most 36
DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def _as_length(length) -> GrossPoly:
    if isinstance(length, int):
        length = fin(length)
    if not isinstance(length, GrossPoly):
        raise EvalError(f"digit count must be a gross-number, got {count_text(length)}")
    k = classify(length)
    if k not in (Classification.FINITE_POSITIVE, Classification.INFINITE_POSITIVE):
        raise EvalError(f"digit count must be positive, got {count_text(length)}")
    if k is Classification.FINITE_POSITIVE and length.as_int() is None:
        raise EvalError(f"a finite digit count must be a whole number, got {count_text(length)}")
    return length


def _digits(given, base: int, what: str) -> Digits:
    """Digit values from text over DIGITS or from values; a bad digit is
    named as it was given."""
    out = tuple(map(DIGITS.find, given)) if isinstance(given, str) else tuple(map(int, given))
    if out and not (min(out) >= 0 and max(out) < base):
        for shown, d in zip(given, out):
            if d < 0 and isinstance(shown, str):
                raise EvalError(f"{what} must contain digits only, got {shown!r}")
            if not 0 <= d < base:
                raise EvalError(f"{what} digit {shown!r} is outside base {base}")
    return out


@dataclass(frozen=True)
class InfNumeral:
    """One fractional positional numeral, sparsely specified from both ends."""

    base: int
    length: GrossPoly
    head: Digits = ()
    tail: Digits = ()
    sign: str = ""

    def __post_init__(self):
        if not isinstance(self.base, int) or not 2 <= self.base <= len(DIGITS):
            raise EvalError(f"radix must be an integer from 2 to {len(DIGITS)}, got {self.base!r}")
        if self.sign not in ("", "+", "-"):
            raise EvalError(f'sign must be "", "+" or "-", got {self.sign!r}')

    @property
    def finite_length(self):
        """The position count as an int when finite, else None."""
        return self.length.as_int()

    def gap(self):
        """How many implicit zero positions sit between head and tail."""
        n = self.finite_length
        if n is None:
            return None
        return n - len(self.head) - len(self.tail)

    def __str__(self):
        return render_numeral(self)

    def __repr__(self):
        return f"InfNumeral<{render_numeral(self)}>"


def _strip(head: Digits, tail: Digits) -> Tuple[Digits, Digits]:
    # zeros adjacent to the implicit middle carry no information
    end = len(head)
    while end and head[end - 1] == 0:
        end -= 1
    start = 0
    while start < len(tail) and tail[start] == 0:
        start += 1
    return head[:end], tail[start:]


def numeral(base: int, length, head=(), tail=(), sign: str = "") -> InfNumeral:
    """Canonicalizing constructor, and the only way to build an InfNumeral;
    head and tail are digit text or values.

    A finite length n splits at its midpoint: the head holds positions
    1..n//2 and the tail the rest.  A block that reaches past the middle is
    re-split from the explicit digits, which then number more than n/2.
    """
    length = _as_length(length)
    head = _digits(head, base, "head")
    tail = _digits(tail, base, "tail")
    head, tail = _strip(head, tail)
    n = length.as_int()
    if n is not None:
        if len(head) + len(tail) > n:
            raise EvalError(
                f"{len(head)} head and {len(tail)} tail digits do not fit "
                f"in {n} positions"
            )
        mid = n // 2
        if len(head) > mid or len(tail) > n - mid:
            full = head + (0,) * (n - len(head) - len(tail)) + tail
            head, tail = _strip(full[:mid], full[mid:])
    return InfNumeral(base, length, head, tail, sign)


def zeros(base: int, length, sign: str = "") -> InfNumeral:
    """The all-zeros numeral, the smallest string of the system."""
    return numeral(base, length, sign=sign)


# counting


def numeral_count(base: int, length) -> GrossNumber:
    """How many distinct numerals the system with `length` positions has."""
    length = _as_length(length) if not isinstance(length, CritRef) else length
    return pow_count(base, length)


def signed_line_count(base: int) -> ExpCount:
    """Signed strings with G integer and G fractional digits: 2*b^(2G).

    This count treats numerals as strings: the system writes zero in two
    ways (+0...0.0...0 and -0...0.0...0) and both are counted.
    """
    if not isinstance(base, int) or base < 2:
        raise EvalError(f"radix must be an integer >= 2, got {base!r}")
    return ExpCount(Fraction(2), base, 2 * G)


def float_count(base: int) -> ExpCount:
    """Signed mantissa times signed power: 4*b^(2G) distinct numerals."""
    return 2 * signed_line_count(base)


@dataclass(frozen=True)
class CriticalPair:
    """The two digit lengths bracketing a target count M.

    k1 positions express at most M numerals, k2 = k1 + 1 positions express
    more: b^k1 <= M < b^k2.  The lengths themselves have no closed form,
    only this sandwich, so they stay symbolic.
    """

    base: int
    target: GrossPoly

    @property
    def k1(self) -> CritRef:
        return CritRef(self.base, self.target, 0)

    @property
    def k2(self) -> CritRef:
        return CritRef(self.base, self.target, 1)

    def __str__(self):
        return render_critical_pair(self)

    def __repr__(self):
        return f"CriticalPair<{render_critical_pair(self)}>"


def critical(base: int, target) -> CriticalPair:
    """Digit lengths k1, k2 with b^k1 <= target < b^k2, for infinite
    polynomial targets.

    Finite targets have an ordinary integer logarithm and need no symbol.
    """
    if isinstance(target, int):
        target = fin(target)
    if isinstance(target, ExpCount):
        raise EvalError(
            f"critical lengths need a polynomial target count, got {count_text(target)}"
        )
    if not isinstance(target, GrossPoly) or classify(target) is not Classification.INFINITE_POSITIVE:
        raise NotInfinite(f"critical lengths need an infinite target, got {count_text(target)}")
    if not gnum.is_whole(target):
        raise EvalError(f"the target count must be a whole number, got {count_text(target)}")
    return CriticalPair(base, target)


# ordering and the successor chain


def _cmp_magnitude(x: InfNumeral, y: InfNumeral) -> int:
    # no head block reaches the other string's tail block, since a finite
    # string splits at its midpoint, so the positions that neither padded
    # string covers are implicit zeros in both
    width = max(len(x.head), len(y.head)) + max(len(x.tail), len(y.tail))
    dx, dy = (z.head + (0,) * (width - len(z.head) - len(z.tail)) + z.tail for z in (x, y))
    return (dx > dy) - (dx < dy)


def compare_numerals(x: InfNumeral, y: InfNumeral) -> Ordering:
    """Order two numerals of one system (same base, length, sign style).

    The order is lexicographic by position, which for equal lengths agrees
    with the represented values.  Signed numerals order negatives below
    positives as strings: -0.0...0 < +0.0...0, matching the system's two
    distinct zero numerals.
    """
    if x.base != y.base:
        raise IncomparableSystems(f"radix {x.base} vs {y.base}")
    if x.length != y.length:
        raise IncomparableSystems(
            f"digit counts {count_text(x.length)} vs {count_text(y.length)}"
        )
    if (x.sign == "") != (y.sign == ""):
        raise IncomparableSystems("signed and unsigned numerals do not mix")
    if x.sign != y.sign:
        return Ordering.LESS if x.sign == "-" else Ordering.GREATER
    verdict = _cmp_magnitude(x, y)
    if x.sign == "-":
        verdict = -verdict
    return Ordering(verdict)


def _step(x: InfNumeral, delta: int) -> InfNumeral:
    """Add delta, +1 or -1, at the final position by the module's carry rule."""
    b = x.base
    wrap, wrapped = (b - 1, 0) if delta > 0 else (0, b - 1)

    def moved(digits: Digits):
        i = len(digits) - 1
        while i >= 0 and digits[i] == wrap:
            i -= 1
        if i < 0:
            return None
        return digits[:i] + (digits[i] + delta,) + (wrapped,) * (len(digits) - 1 - i)

    tail = moved(x.tail)
    if tail is not None:
        return numeral(b, x.length, x.head, tail, x.sign)
    gap = x.gap()
    if delta > 0 and gap != 0:
        return numeral(b, x.length, x.head, (1,) + (0,) * len(x.tail), x.sign)
    head = moved(x.head)
    if head is None:
        if delta > 0:
            raise Overflow("the maximal numeral has no successor")
        raise Underflow("the all-zeros numeral has no predecessor")
    # only a step down reaches here with a gap, whose zeros all become b-1
    if gap is None:
        raise Underflow(
            "the predecessor would need infinitely many trailing nonzero digits"
        )
    gnum.refuse(RepresentationLimit, gap, "MAX_ITEMS",
                "digits {} written out by the predecessor", b - 1)
    return numeral(b, x.length, head, (wrapped,) * (gap + len(x.tail)), x.sign)


def successor(x: InfNumeral) -> InfNumeral:
    """The next numeral in the system: add 1 at the final position.

    A carry that leaves the recorded tail lands on an adjacent implicit 0
    and stops there; only at the all-(b-1) maximal numeral (possible only
    for finite lengths) does the carry fall off the string.
    """
    return _step(x, 1)


def predecessor(x: InfNumeral) -> InfNumeral:
    """The exact inverse of successor."""
    return _step(x, -1)


def enumerate_first(base: int, length, n: int):
    """The n smallest numerals of the system, in increasing order."""
    if not isinstance(n, int) or n < 1:
        raise EvalError(f"need a positive number of numerals, got {n!r}")
    gnum.refuse(RepresentationLimit, n, "MAX_ITEMS", "numerals enumerated")
    out = [zeros(base, length)]
    for _ in range(n - 1):
        out.append(successor(out[-1]))
    return tuple(out)


def enumerate_all(base: int, length: int):
    """Every numeral of a small finite system, in increasing order; a count
    past gnum.MAX_ITEMS, or too large to compute, is refused."""
    if not isinstance(length, int) or length < 1:
        raise EvalError(f"exhaustive enumeration needs a finite length, got {length!r}")
    gnum.refuse(RepresentationLimit, length * base.bit_length(), "MAX_POWER_BITS",
                "bit bound of the numeral count {}^{}", base, length)
    return enumerate_first(base, length, base ** length)


# rendering


def _digit_str(digits: Digits) -> str:
    return "".join(DIGITS[d] for d in digits)


def render_digits(x: InfNumeral) -> str:
    """Just the digit string, e.g. '0.000…0001' or '0.375'."""
    gap = x.gap()
    if gap is not None and (x.finite_length <= _EXPAND_LIMIT or gap == 0):
        middle = "0" * gap
    else:
        middle = "000…000"
    return f"{x.sign}0.{_digit_str(x.head)}{middle}{_digit_str(x.tail)}"


def _count_tag(base: int, length: GrossPoly) -> str:
    """The count b^N in a system's tag.  A finite count past gnum.MAX_DIGITS
    digits is written b^N when N itself is not; the count is past them at
    once when N reaches 4 * MAX_DIGITS, since 2^4 > 10."""
    n = length.as_int()
    if n is not None and not gnum.too_long(n):
        if n >= 4 * gnum.MAX_DIGITS or gnum.too_long(base ** n):
            return f"{base}^{n}"
    return render_gross(numeral_count(base, length))


def render_numeral(x: InfNumeral) -> str:
    """Digits plus the system tag: count of numerals and position count."""
    count = _count_tag(x.base, x.length)
    return f"{render_digits(x)} [{count} positions: {render_gross(x.length)}]"


def render_critical_pair(p: CriticalPair) -> str:
    t = render_gross(p.target)
    k1, k2 = render_critref(p.k1), render_critref(p.k2)
    return f"{p.base}^{k1} <= {t} < {p.base}^{k2} with k1 = {k1}, k2 = {k2}"
