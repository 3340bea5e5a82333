"""Positional numeral systems with a gross-number count of digit positions.

A numeral here is the fractional string 0.d1 d2 ... dN in a radix b, where
the count N of positions may be finite or an infinite gross-number such as
G or G/2.  Only finitely many digits can ever be written down, so a numeral
is stored sparsely from both ends: a head block starting at position 1, a
tail block ending at position N, and an implicit run of 0 digits between
them.  That shape covers every numeral that can actually be displayed;
strings with infinitely many scattered nonzero digits are out of scope.

The module also counts how many numerals each system expresses (b^N for N
positions) and locates the critical digit lengths where that count first
reaches a given infinite target.
"""

from dataclasses import dataclass, field
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

# lengths up to this many positions are stored as one explicit digit block,
# which keeps equal strings record-equal regardless of how they were built
_DENSE_LIMIT = 10 ** 4

# full digit expansion in rendering; longer strings fall back to head...tail
_EXPAND_LIMIT = 32

Digits = Tuple[int, ...]


def _as_length(length) -> GrossPoly:
    if isinstance(length, int):
        length = fin(length)
    if not isinstance(length, GrossPoly):
        raise EvalError(f"digit count must be a gross-number, got {length!r}")
    k = classify(length)
    if k not in (Classification.FINITE_POSITIVE, Classification.INFINITE_POSITIVE):
        raise EvalError(f"digit count must be positive, got {count_text(length)}")
    if k is Classification.FINITE_POSITIVE and length.as_int() is None:
        raise EvalError(f"a finite digit count must be a whole number, got {count_text(length)}")
    return length


def _clean_digits(digits, base: int, what: str) -> Digits:
    out = tuple(int(d) for d in digits)
    for d in out:
        if not 0 <= d < base:
            raise EvalError(f"{what} digit {d} is outside base {base}")
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
        if not isinstance(self.base, int) or self.base < 2:
            raise EvalError(f"radix must be an integer >= 2, got {self.base!r}")
        if self.sign not in ("", "+", "-"):
            raise EvalError(f"sign must be '+', '-' or empty, got {self.sign!r}")

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
    while head and head[-1] == 0:
        head = head[:-1]
    while tail and tail[0] == 0:
        tail = tail[1:]
    return head, tail


def numeral(base: int, length, head=(), tail=(), sign: str = "") -> InfNumeral:
    """Canonicalizing constructor.

    Finite lengths up to _DENSE_LIMIT are materialized into a single head
    block so that equal strings become equal records; everything longer
    keeps the sparse two-ended form.
    """
    length = _as_length(length)
    head = _clean_digits(head, base, "head")
    tail = _clean_digits(tail, base, "tail")
    head, tail = _strip(head, tail)
    n = length.as_int()
    if n is not None:
        if len(head) + len(tail) > n:
            raise EvalError(
                f"{len(head)} head and {len(tail)} tail digits do not fit "
                f"in {n} positions"
            )
        if n <= _DENSE_LIMIT:
            full = head + (0,) * (n - len(head) - len(tail)) + tail
            head, tail = _strip(full, ())
    return InfNumeral(base, length, head, tail, sign)


def zeros(base: int, length, sign: str = "") -> InfNumeral:
    """The all-zeros numeral, the smallest string of the system."""
    return numeral(base, length, sign=sign)


def _signed_convention(x: InfNumeral) -> bool:
    return x.sign != ""


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
    if not isinstance(base, int) or base < 2:
        raise EvalError(f"radix must be an integer >= 2, got {base!r}")
    return ExpCount(Fraction(4), base, 2 * G)


@dataclass(frozen=True)
class CriticalPair:
    """The two digit lengths bracketing a target count M.

    k1 positions express at most M numerals, k2 = k1 + 1 positions express
    more: b^k1 <= M < b^k2.  The lengths themselves have no closed form,
    only this sandwich, so they stay symbolic.
    """

    base: int
    target: GrossPoly
    k1: CritRef = field(init=False)
    k2: CritRef = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "k1", CritRef(self.base, self.target, 0))
        object.__setattr__(self, "k2", CritRef(self.base, self.target, 1))

    def __str__(self):
        return render_critical_pair(self)

    def __repr__(self):
        return f"CriticalPair<{render_critical_pair(self)}>"


def critical(base: int, target) -> CriticalPair:
    """Digit lengths k1, k2 with b^k1 <= target < b^k2, for infinite targets.

    Finite targets have an ordinary integer logarithm and need no symbol.
    """
    if isinstance(target, int):
        target = fin(target)
    if not isinstance(target, GrossPoly):
        raise NotInfinite(f"critical lengths need an infinite target, got {target!r}")
    if classify(target) is not Classification.INFINITE_POSITIVE:
        raise NotInfinite(f"critical lengths need an infinite target, got {count_text(target)}")
    if target.constant_term().denominator != 1:
        raise EvalError(f"the target count must be a whole number, got {count_text(target)}")
    return CriticalPair(base, target)


# ordering and the successor chain


def _materialized(x: InfNumeral, n: int) -> Digits:
    if n > _DENSE_LIMIT and n - len(x.head) - len(x.tail) > gnum.MAX_ITEMS:
        gnum.refuse(RepresentationLimit, "will not expand {} digit positions", n)
    return x.head + (0,) * (n - len(x.head) - len(x.tail)) + x.tail


def _cmp_magnitude(x: InfNumeral, y: InfNumeral) -> int:
    n = x.finite_length
    if n is not None:
        overlap = len(x.head) + len(y.tail) > n or len(y.head) + len(x.tail) > n
        if overlap:
            dx, dy = _materialized(x, n), _materialized(y, n)
            return (dx > dy) - (dx < dy)
    # the head zones meet only implicit zeros on the other side, and so do
    # the tail zones; each end can be compared independently
    for i in range(max(len(x.head), len(y.head))):
        dx = x.head[i] if i < len(x.head) else 0
        dy = y.head[i] if i < len(y.head) else 0
        if dx != dy:
            return (dx > dy) - (dx < dy)
    width = max(len(x.tail), len(y.tail))
    for i in range(width):
        dx = x.tail[i - width + len(x.tail)] if i >= width - len(x.tail) else 0
        dy = y.tail[i - width + len(y.tail)] if i >= width - len(y.tail) else 0
        if dx != dy:
            return (dx > dy) - (dx < dy)
    return 0


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
    if _signed_convention(x) != _signed_convention(y):
        raise IncomparableSystems("signed and unsigned numerals do not mix")
    if x.sign != y.sign:
        return Ordering.LESS if x.sign == "-" else Ordering.GREATER
    verdict = _cmp_magnitude(x, y)
    if x.sign == "-":
        verdict = -verdict
    return Ordering(verdict)


def successor(x: InfNumeral) -> InfNumeral:
    """The next numeral in the system: add 1 at the final position.

    A carry that leaves the recorded tail lands on an adjacent implicit 0
    and stops there; only at the all-(b-1) maximal numeral (possible only
    for finite lengths) does the carry fall off the string.
    """
    b = x.base
    tail = list(x.tail)
    carry = 1
    for i in range(len(tail) - 1, -1, -1):
        if not carry:
            break
        carry, tail[i] = divmod(tail[i] + 1, b)
    if not carry:
        return numeral(b, x.length, x.head, tuple(tail), x.sign)
    gap = x.gap()
    if gap is None or gap >= 1:
        return numeral(b, x.length, x.head, (1,) + tuple(tail), x.sign)
    # the tail is flush against the head: keep carrying
    head = list(x.head)
    for i in range(len(head) - 1, -1, -1):
        if not carry:
            break
        carry, head[i] = divmod(head[i] + 1, b)
    if carry:
        raise Overflow("the maximal numeral has no successor")
    return numeral(b, x.length, tuple(head), tuple(tail), x.sign)


def predecessor(x: InfNumeral) -> InfNumeral:
    """The exact inverse of successor."""
    b = x.base
    if x.tail:
        # a canonical tail starts with a nonzero digit, so the borrow
        # always resolves inside the record
        tail = list(x.tail)
        for i in range(len(tail) - 1, -1, -1):
            tail[i] -= 1
            if tail[i] >= 0:
                break
            tail[i] = b - 1
        return numeral(b, x.length, x.head, tuple(tail), x.sign)
    if not x.head:
        raise Underflow("the all-zeros numeral has no predecessor")
    gap = x.gap()
    if gap is None:
        raise Underflow(
            "the predecessor would need infinitely many trailing nonzero digits"
        )
    if gap > gnum.MAX_ITEMS:
        gnum.refuse(
            RepresentationLimit, "the predecessor needs {} explicit digits of {}", gap, b - 1
        )
    head = x.head[:-1] + (x.head[-1] - 1,)  # canonical heads end nonzero
    return numeral(b, x.length, head, (b - 1,) * gap, x.sign)


def enumerate_first(base: int, length, n: int):
    """The n smallest numerals of the system, in increasing order."""
    if not isinstance(n, int) or n < 1:
        raise EvalError(f"need a positive number of numerals, got {n!r}")
    if n > gnum.MAX_ITEMS:
        gnum.refuse(RepresentationLimit, "will not enumerate {} numerals", n)
    out = [zeros(base, length)]
    for _ in range(n - 1):
        out.append(successor(out[-1]))
    return tuple(out)


def enumerate_all(base: int, length: int):
    """Every numeral of a small finite system, in increasing order; a count
    past gnum.MAX_ITEMS, or too large to compute, is refused."""
    if not isinstance(length, int) or length < 1:
        raise EvalError(f"exhaustive enumeration needs a finite length, got {length!r}")
    if length * base.bit_length() > gnum.MAX_POWER_BITS:
        gnum.refuse(RepresentationLimit, "will not enumerate {}^{} numerals", base, length)
    return enumerate_first(base, length, base ** length)


# rendering


def _digit_str(digits: Digits) -> str:
    return "".join(str(d) for d in digits)


def render_digits(x: InfNumeral) -> str:
    """Just the digit string, e.g. '0.000…0001' or '0.375'."""
    n = x.finite_length
    if n is not None and n <= _EXPAND_LIMIT:
        body = _digit_str(_materialized(x, n))
    else:
        body = _digit_str(x.head) + "000…000" + _digit_str(x.tail)
    return f"{x.sign}0.{body}"


def render_numeral(x: InfNumeral) -> str:
    """Digits plus the system tag: count of numerals and position count."""
    count = render_gross(numeral_count(x.base, x.length))
    return f"{render_digits(x)} [{count} positions: {render_gross(x.length)}]"


def render_critical_pair(p: CriticalPair) -> str:
    t = render_gross(p.target)
    k1, k2 = render_critref(p.k1), render_critref(p.k2)
    return f"{p.base}^{k1} <= {t} < {p.base}^{k2} with k1 = {k1}, k2 = {k2}"
