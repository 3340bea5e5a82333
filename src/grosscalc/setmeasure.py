"""Exact measurement of eventually periodic subsets of {1..G}.

A ``NatSubset`` is a finite union of arithmetic progressions (residue classes
modulo d) corrected by finitely many added and removed elements.  Its count
follows from one axiom: the class of r modulo d contains exactly G/d of the
first G naturals, for every finite d.

The module keeps two independent routes to every set:

* the canonical ``NatSubset`` algebra used for symbolic counting, and
* ``SetExpr`` trees that remember how a set was built and write its members
  in {1..L} as a bitmask, with no reference to the residue algebra.

``SignedSet`` extends both routes to {-G..G}: one container, generic over its
part, holds mirrored negatives, an explicit zero flag and positives, where
both parts are records or both are trees.  The zero flag is also how one
extra element outside the naturals is counted (the G + 1 construction).
Only the container and its zero-flag rule are shared; each operation on the
parts comes from the parts' own route.  The oracle compares the two routes;
they are never collapsed into one.

Record operations cost what their residue classes cost, not the lcm of the
moduli: intersections pair classes by the Chinese remainder theorem, unions
and differences lift classes to the lcm, and the minimal period is found by
stripping primes of gcd(modulus, |residues|).  Any record that would hold
more than gnum.MAX_ITEMS residue classes, and any progression that would
skip more than gnum.MAX_ITEMS elements below its start, raises
RepresentationLimit before it is built.
"""
from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import FrozenSet, Iterable, Iterator, Tuple, Union

from . import gnum
from .errors import EvalError, RepresentationLimit
from .gnum import GrossPoly, fin, gterm


class SetOp(Enum):
    """A set operator, valued by its symbol in the expression language."""

    UNION = "|"
    INTERSECT = "&"
    DIFFERENCE = "\\"


# membership of x in s op t, from membership in s and in t: on bools, or bit
# by bit on masks with bit x set for member x ("a and not b" is a & (a ^ b))
_MEMBERSHIP = {
    SetOp.UNION: operator.or_,
    SetOp.INTERSECT: operator.and_,
    SetOp.DIFFERENCE: lambda a, b: a & (a ^ b),
}


def _check_positive_elements(elems: Iterable[int], what: str) -> FrozenSet[int]:
    out = frozenset(elems)
    for e in out:
        if not isinstance(e, int) or e < 1:
            raise EvalError(f"{what} must be positive integers, got {e!r}")
    return out


@dataclass(frozen=True)
class NatSubset:
    """Canonical eventually periodic subset of the naturals.

    modulus >= 1; residues within range(modulus); every added element falls
    outside the residue classes and every removed element inside them; the
    modulus is minimal.  Always build through :func:`nat_subset`,
    :func:`finite_set` or :func:`progression`.
    """

    modulus: int
    residues: FrozenSet[int]
    added: FrozenSet[int] = frozenset()
    removed: FrozenSet[int] = frozenset()

    def contains(self, x: int) -> bool:
        if x < 1:
            return False
        if x in self.added:
            return True
        if x in self.removed:
            return False
        return (x % self.modulus) in self.residues

    def card(self) -> GrossPoly:
        return card(self)

    def __str__(self):
        return render_nat(self)

    def __repr__(self):
        return f"NatSubset<{render_nat(self)}>"


def _prime_factors(n: int) -> Iterator[int]:
    """The distinct primes of n >= 1, by trial division."""
    p = 2
    while p * p <= n:
        if n % p == 0:
            yield p
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        yield n


def nat_subset(modulus: int, residues, added=(), removed=()) -> NatSubset:
    """Canonicalizing constructor; accepts any semantically valid description.

    Membership is: x in added, or (x mod modulus in residues and x not in
    removed).  Exceptions listed on the wrong side of the classes are folded
    away and the modulus is reduced to the minimal period.  Costs
    O(|residues| log |residues| + |added| + |removed|) plus a trial division
    of gcd(modulus, |residues|); never O(modulus).
    """
    if not isinstance(modulus, int) or modulus < 1:
        raise EvalError(f"modulus must be a positive integer, got {modulus!r}")
    residues = frozenset(r % modulus for r in residues)
    added = _check_positive_elements(added, "added elements")
    removed = _check_positive_elements(removed, "removed elements")
    if added & removed:
        raise EvalError("an element cannot be both added and removed")
    return _canonical(modulus, residues, added, removed)


def _canonical(modulus: int, residues: FrozenSet[int], added, removed) -> NatSubset:
    """nat_subset on checked input: residues in range(modulus), exceptions
    positive and disjoint."""
    # A period d divides the modulus, and each class mod d holds modulus/d of
    # the residues, so modulus/d divides gcd(modulus, |residues|).  Periods
    # are closed under gcd, so stripping each prime of that gcd while the
    # smaller value is still a period ends at the unique minimal period.
    n = len(residues)
    period = 1 if n in (0, modulus) else modulus
    if period > 1:
        for p in _prime_factors(math.gcd(modulus, n)):
            while period % p == 0 and all(
                (r + period // p) % modulus in residues for r in residues
            ):
                period //= p
    if period < modulus:
        modulus, residues = period, frozenset(r % period for r in residues)
    added = frozenset(a for a in added if (a % modulus) not in residues)
    removed = frozenset(r for r in removed if (r % modulus) in residues)
    return NatSubset(modulus, residues, added, removed)


EMPTY = nat_subset(1, ())
NATURALS = nat_subset(1, (0,))


def finite_set(elems: Iterable[int]) -> NatSubset:
    return nat_subset(1, (), added=elems)


def progression(first: int, step: int) -> NatSubset:
    """The arithmetic progression {first, first + step, first + 2*step, ...}."""
    if not isinstance(first, int) or first < 1:
        raise EvalError(f"progressions start at a positive integer, got {first!r}")
    if not isinstance(step, int) or step < 1:
        raise EvalError(f"progression steps are positive integers, got {step!r}")
    r = first % step
    start = r if r >= 1 else step
    # counted before any range is built: len() of a range past 2^63 overflows
    skipped = (first - start) // step
    if skipped > gnum.MAX_ITEMS:
        gnum.refuse(RepresentationLimit, "elements ap({}, {}) skips below its start: "
                    "{} exceeds the cap of {}", first, step, skipped, gnum.MAX_ITEMS)
    # one residue has no shorter period, and every hole lies in its class
    return NatSubset(step, frozenset((r,)), frozenset(), frozenset(range(start, first, step)))


def combine(op: SetOp, s: NatSubset, t: NatSubset) -> NatSubset:
    """Union, intersection or difference, recanonicalized.

    Both operands are lifted to the lcm of their moduli without walking it:
    an intersection pairs up compatible classes by the Chinese remainder
    theorem, in O(|Rs| + |Rt| + output); a union or difference lifts each
    class r mod m to r, r + m, ... below the lcm, in O(lifted classes).
    Exceptions cost O(|exceptions|).  A result that would hold more than
    gnum.MAX_ITEMS classes before canonicalization raises RepresentationLimit.
    """
    ms, mt = s.modulus, t.modulus
    lift = math.lcm(ms, mt)
    if op is SetOp.INTERSECT:
        residues = _crt_intersect(s, t, lift)
    elif op is SetOp.UNION:
        size = len(s.residues) * (lift // ms) + len(t.residues) * (lift // mt)
        if size > gnum.MAX_ITEMS:
            gnum.refuse(RepresentationLimit, "residue classes of the union at modulus {}: "
                        "{} exceeds the cap of {}", lift, size, gnum.MAX_ITEMS)
        residues = frozenset(_lift(s.residues, ms, lift) | _lift(t.residues, mt, lift))
    else:
        size = len(s.residues) * (lift // ms)
        if size > gnum.MAX_ITEMS:
            gnum.refuse(RepresentationLimit, "residue classes of the difference at modulus {}: "
                        "{} exceeds the cap of {}", lift, size, gnum.MAX_ITEMS)
        residues = frozenset(x for x in _lift(s.residues, ms, lift) if x % mt not in t.residues)
    fn = _MEMBERSHIP[op]
    added, removed = [], []
    for x in s.added | s.removed | t.added | t.removed:
        is_in = fn(s.contains(x), t.contains(x))
        in_classes = (x % lift) in residues
        if is_in and not in_classes:
            added.append(x)
        elif not is_in and in_classes:
            removed.append(x)
    return _canonical(lift, residues, added, removed)


def _lift(residues: FrozenSet[int], modulus: int, lift: int) -> set:
    """The classes r mod modulus as classes mod lift (a multiple of it)."""
    return set().union(*(range(r, lift, modulus) for r in residues))


def _crt_intersect(s: NatSubset, t: NatSubset, lift: int) -> FrozenSet[int]:
    """The classes mod lift in both s and t, one CRT step per compatible pair."""
    ms, mt = s.modulus, t.modulus
    g = math.gcd(ms, mt)
    by_class = {}
    for b in t.residues:
        by_class.setdefault(b % g, []).append(b)
    size = sum(len(by_class.get(a % g, ())) for a in s.residues)
    if size > gnum.MAX_ITEMS:
        gnum.refuse(RepresentationLimit, "residue classes of the intersection at modulus {}: "
                    "{} exceeds the cap of {}", lift, size, gnum.MAX_ITEMS)
    # x = a + ms*k with ms*k = b - a (mod mt), i.e. k = (b - a)/g * inv mod mt/g
    step = mt // g
    inv = pow(ms // g, -1, step)
    return frozenset(
        a + ms * ((b - a) // g * inv % step)
        for a in s.residues
        for b in by_class.get(a % g, ())
    )


def complement(s: NatSubset) -> NatSubset:
    """The complement within the naturals {1..G}: it keeps the period of s
    and swaps its exceptions, in O(modulus)."""
    size = s.modulus - len(s.residues)
    if size > gnum.MAX_ITEMS:
        gnum.refuse(RepresentationLimit, "residue classes of the complement at modulus {}: "
                    "{} exceeds the cap of {}", s.modulus, size, gnum.MAX_ITEMS)
    residues = frozenset(range(s.modulus)) - s.residues
    return NatSubset(s.modulus, residues, s.removed, s.added)


def card(s: NatSubset) -> GrossPoly:
    """Exact count: each residue class holds G/modulus members."""
    coeff = Fraction(len(s.residues), s.modulus)
    correction = len(s.added) - len(s.removed)
    return gterm(coeff, gnum.ONE) + fin(correction)


def product_card(s: NatSubset, t: NatSubset) -> GrossPoly:
    """Count of the Cartesian product s x t."""
    return gnum.mul(card(s), card(t))


def members(s: NatSubset, n: int) -> Tuple[int, ...]:
    """The n smallest members, ascending; fewer if the set runs out."""
    if n <= 0:
        return ()
    if n > gnum.MAX_ITEMS:
        gnum.refuse(RepresentationLimit, "will not list {} members", n)

    def class_stream(r: int) -> Iterator[int]:
        start = r if r >= 1 else s.modulus
        x = start
        while True:
            yield x
            x += s.modulus

    streams = [class_stream(r) for r in sorted(s.residues)]
    streams.append(iter(sorted(s.added)))
    merged = heapq.merge(*streams)
    picked = (x for x in merged if x not in s.removed)
    return tuple(itertools.islice(picked, n))


# ---------------------------------------------------------------------------
# Set expressions: the independent extensional route.
#
# These trees are the other half of the dual bookkeeping: build() runs the
# residue algebra above, while mask_upto() evaluates the defining predicate
# directly over {1..limit}, as one int with bit x set for member x, so the
# two can be compared against each other by the oracle.
# ---------------------------------------------------------------------------


class SetExpr:
    """A recipe for a subset of the naturals."""

    def mask_upto(self, limit: int) -> int:
        """The members in {1..limit}, bit x set for member x, without the algebra."""
        raise NotImplementedError

    def build(self) -> NatSubset:
        raise NotImplementedError

    def to_text(self) -> str:
        raise NotImplementedError

    def __str__(self):
        return self.to_text()


@dataclass(frozen=True)
class FiniteSetE(SetExpr):
    elems: FrozenSet[int]

    def mask_upto(self, limit):
        # bytes, not an int: setting each bit of an int copies the whole int
        bits = bytearray(limit // 8 + 1)
        for e in self.elems:
            if 0 < e <= limit:
                bits[e >> 3] |= 1 << (e & 7)
        return int.from_bytes(bits, "little")

    def build(self):
        return finite_set(self.elems)

    def to_text(self):
        return "{" + ", ".join(str(e) for e in sorted(self.elems)) + "}"


@dataclass(frozen=True)
class ProgressionE(SetExpr):
    first: int
    step: int

    def mask_upto(self, limit):
        if self.first > limit:
            return 0
        # one bit per step, doubled to at least count members, then shifted
        # right by whole steps to drop the extra ones: the closed form
        # (2^(step*count) - 1) / (2^step - 1) is quadratic for a wide step
        count = (limit - self.first) // self.step + 1
        mask, have = 1, 1
        while have < count:
            mask |= mask << have * self.step
            have *= 2
        return mask >> (have - count) * self.step << self.first

    def build(self):
        return progression(self.first, self.step)

    def to_text(self):
        return f"ap({self.first}, {self.step})"


@dataclass(frozen=True)
class UniverseNE(SetExpr):
    def mask_upto(self, limit):
        return (1 << limit + 1) - 2  # bits 1..limit

    def build(self):
        return NATURALS

    def to_text(self):
        return "N"


@dataclass(frozen=True)
class CombineE(SetExpr):
    op: SetOp
    left: SetExpr
    right: SetExpr

    def mask_upto(self, limit):
        return _MEMBERSHIP[self.op](self.left.mask_upto(limit), self.right.mask_upto(limit))

    def build(self):
        return combine(self.op, self.left.build(), self.right.build())

    def to_text(self):
        return f"({self.left.to_text()} {self.op.value} {self.right.to_text()})"


@dataclass(frozen=True)
class ComplementE(SetExpr):
    inner: SetExpr

    def mask_upto(self, limit):
        return ((1 << limit + 1) - 2) ^ self.inner.mask_upto(limit)

    def build(self):
        return complement(self.inner.build())

    def to_text(self):
        return f"~{self.inner.to_text()}"


EMPTY_E = FiniteSetE(frozenset())


# ---------------------------------------------------------------------------
# Signed sets: one container for both routes, see the module docstring.
# ---------------------------------------------------------------------------

Part = Union[NatSubset, SetExpr]


@dataclass(frozen=True)
class SignedSet:
    """A subset of {-G..G}: mirrored negatives, a zero flag, positives.

    ``card`` and ``contains`` need record parts; ``build`` and the oracle's
    brute count, which walks each part's mask, need tree parts.
    """

    negatives: Part
    has_zero: bool
    positives: Part

    def contains(self, x: int) -> bool:
        if x == 0:
            return self.has_zero
        if x > 0:
            return self.positives.contains(x)
        return self.negatives.contains(-x)

    def card(self) -> GrossPoly:
        return card_signed(self)

    def build(self) -> "SignedSet":
        return SignedSet(self.negatives.build(), self.has_zero, self.positives.build())

    def __str__(self):
        return render_signed(self)

    def __repr__(self):
        return f"SignedSet<{render_signed(self)}>"


def _join_trees(op: SetOp, a: SetExpr, b: SetExpr) -> SetExpr:
    """CombineE with empty operands dropped by syntax alone: x | {}, {} | x
    and x \\ {} are x; x & {}, {} & x and {} \\ x are {}."""
    if b == EMPTY_E:
        return EMPTY_E if op is SetOp.INTERSECT else a
    if a == EMPTY_E:
        return b if op is SetOp.UNION else EMPTY_E
    return CombineE(op, a, b)


def _route(part: Part):
    """(combine, complement, empty part) on the route the part belongs to."""
    if isinstance(part, NatSubset):
        return combine, complement, EMPTY
    return _join_trees, ComplementE, EMPTY_E


EMPTY_SIGNED = SignedSet(EMPTY, False, EMPTY)
INTEGERS = SignedSet(NATURALS, True, NATURALS)
UNIVERSE_Z_E = SignedSet(UniverseNE(), True, UniverseNE())


def lift_signed(part: Part) -> SignedSet:
    """The subset of N as a subset of Z."""
    _, _, empty = _route(part)
    return SignedSet(empty, False, part)


def mirror_signed(part: Part) -> SignedSet:
    """{-x : x in part}."""
    _, _, empty = _route(part)
    return SignedSet(part, False, empty)


def card_signed(s: SignedSet) -> GrossPoly:
    total = gnum.add(card(s.negatives), card(s.positives))
    if s.has_zero:
        total = gnum.add(total, gnum.ONE)
    return total


def combine_signed(op: SetOp, s: SignedSet, t: SignedSet) -> SignedSet:
    join, _, _ = _route(s.positives)
    return SignedSet(
        join(op, s.negatives, t.negatives),
        _MEMBERSHIP[op](s.has_zero, t.has_zero),
        join(op, s.positives, t.positives),
    )


def complement_signed(s: SignedSet) -> SignedSet:
    _, flip, _ = _route(s.positives)
    return SignedSet(flip(s.negatives), not s.has_zero, flip(s.positives))


# rendering back to expression-language text


def render_nat(s: NatSubset) -> str:
    if s == NATURALS:
        return "N"
    # residues lie below the modulus; exceptions come from literals and
    # progression starts, which the language already bounds
    gnum.check_digits(s.modulus, "a set's modulus")
    pieces = []
    for r in sorted(s.residues):
        start = r if r >= 1 else s.modulus
        pieces.append(f"ap({start}, {s.modulus})")
    if s.added:
        pieces.append("{" + ", ".join(str(a) for a in sorted(s.added)) + "}")
    if not pieces:
        return "{}"
    body = " | ".join(pieces)
    if len(pieces) > 1 and s.removed:
        body = f"({body})"
    if s.removed:
        body += " \\ {" + ", ".join(str(r) for r in sorted(s.removed)) + "}"
    return body


def render_signed(s: SignedSet) -> str:
    """Either route: records render canonically, trees as they were built."""
    if s == INTEGERS:
        return "Z"
    _, _, empty = _route(s.positives)
    parts = []
    if s.negatives != empty:
        parts.append(f"mirror({s.negatives})")
    if s.has_zero:
        parts.append("{0}")
    if s.positives != empty:
        parts.append(str(s.positives))
    return " | ".join(parts) if parts else "{}"
