"""Exact measurement of eventually periodic subsets of {1..G}.

A ``NatSubset`` is a finite union of arithmetic progressions (residue classes
modulo d) corrected by finitely many added and removed elements.  Its count
follows from one axiom: the class of r modulo d contains exactly G/d of the
first G naturals, for every finite d.

The module keeps two independent routes to every set:

* the canonical ``NatSubset`` algebra used for symbolic counting, and
* ``SetExpr`` trees that remember how a set was built and can enumerate it
  extensionally, with no reference to the residue algebra.

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
more than MAX_RESIDUES residue classes, and any progression that would skip
more than MAX_RESIDUES elements below its start, raises RepresentationLimit
before it is built.
"""
from __future__ import annotations

import heapq
import itertools
import math
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


# membership of x in s op t, from membership in s and in t
_MEMBERSHIP = {
    SetOp.UNION: lambda a, b: a or b,
    SetOp.INTERSECT: lambda a, b: a and b,
    SetOp.DIFFERENCE: lambda a, b: a and not b,
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


# Cap on the residue classes (and skipped elements) one record may hold.
MAX_RESIDUES = 10 ** 6


def _guard_size(n: int, what: str) -> None:
    if n > MAX_RESIDUES:
        raise RepresentationLimit(f"{what}: {n} exceeds the cap of {MAX_RESIDUES}")


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
    _guard_size((first - start) // step, f"elements ap({first}, {step}) skips below its start")
    # one residue has no shorter period, and every hole lies in its class
    return NatSubset(step, frozenset((r,)), frozenset(), frozenset(range(start, first, step)))


def combine(op: SetOp, s: NatSubset, t: NatSubset) -> NatSubset:
    """Union, intersection or difference, recanonicalized.

    Both operands are lifted to the lcm of their moduli without walking it:
    an intersection pairs up compatible classes by the Chinese remainder
    theorem, in O(|Rs| + |Rt| + output); a union or difference lifts each
    class r mod m to r, r + m, ... below the lcm, in O(lifted classes).
    Exceptions cost O(|exceptions|).  A result that would hold more than
    MAX_RESIDUES classes before canonicalization raises RepresentationLimit.
    """
    ms, mt = s.modulus, t.modulus
    lift = math.lcm(ms, mt)
    if op is SetOp.INTERSECT:
        residues = _crt_intersect(s, t, lift)
    elif op is SetOp.UNION:
        _guard_size(
            len(s.residues) * (lift // ms) + len(t.residues) * (lift // mt),
            f"residue classes of the union at modulus {lift}",
        )
        residues = frozenset(_lift(s.residues, ms, lift) | _lift(t.residues, mt, lift))
    else:
        _guard_size(
            len(s.residues) * (lift // ms), f"residue classes of the difference at modulus {lift}"
        )
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
    _guard_size(size, f"residue classes of the intersection at modulus {lift}")
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
    _guard_size(
        s.modulus - len(s.residues), f"residue classes of the complement at modulus {s.modulus}"
    )
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
    if n > 10**6:
        raise RepresentationLimit(f"will not list {n} members")

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
# residue algebra above, while contains()/enumerate_upto() evaluate the
# defining predicate directly, one element at a time, so the two can be
# compared against each other by the oracle.
# ---------------------------------------------------------------------------


class SetExpr:
    """A recipe for a subset of the naturals."""

    def contains(self, x: int) -> bool:
        raise NotImplementedError

    def enumerate_upto(self, limit: int) -> set:
        """The extension within {1..limit}, computed without the algebra."""
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

    def contains(self, x):
        return x in self.elems

    def enumerate_upto(self, limit):
        return {e for e in self.elems if 1 <= e <= limit}

    def build(self):
        return finite_set(self.elems)

    def to_text(self):
        return "{" + ", ".join(str(e) for e in sorted(self.elems)) + "}"


@dataclass(frozen=True)
class ProgressionE(SetExpr):
    first: int
    step: int

    def contains(self, x):
        return x >= self.first and (x - self.first) % self.step == 0

    def enumerate_upto(self, limit):
        return set(range(self.first, limit + 1, self.step))

    def build(self):
        return progression(self.first, self.step)

    def to_text(self):
        return f"ap({self.first}, {self.step})"


@dataclass(frozen=True)
class UniverseNE(SetExpr):
    def contains(self, x):
        return x >= 1

    def enumerate_upto(self, limit):
        return set(range(1, limit + 1))

    def build(self):
        return NATURALS

    def to_text(self):
        return "N"


@dataclass(frozen=True)
class CombineE(SetExpr):
    op: SetOp
    left: SetExpr
    right: SetExpr

    def contains(self, x):
        return _MEMBERSHIP[self.op](self.left.contains(x), self.right.contains(x))

    def enumerate_upto(self, limit):
        a = self.left.enumerate_upto(limit)
        b = self.right.enumerate_upto(limit)
        if self.op is SetOp.UNION:
            return a | b
        if self.op is SetOp.INTERSECT:
            return a & b
        return a - b

    def build(self):
        return combine(self.op, self.left.build(), self.right.build())

    def to_text(self):
        return f"({self.left.to_text()} {self.op.value} {self.right.to_text()})"


@dataclass(frozen=True)
class ComplementE(SetExpr):
    inner: SetExpr

    def contains(self, x):
        return x >= 1 and not self.inner.contains(x)

    def enumerate_upto(self, limit):
        return set(range(1, limit + 1)) - self.inner.enumerate_upto(limit)

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

    ``card`` needs record parts; ``build`` and ``enumerate_upto`` need tree
    parts.
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

    def enumerate_upto(self, limit: int) -> set:
        """The extension within {-limit..limit}, computed without the algebra."""
        out = {-x for x in self.negatives.enumerate_upto(limit)}
        out |= self.positives.enumerate_upto(limit)
        if self.has_zero:
            out.add(0)
        return out

    def __str__(self):
        return render_signed(self)

    def __repr__(self):
        return f"SignedSet<{render_signed(self)}>"


def _route(part: Part):
    """(combine, complement, empty part) on the route the part belongs to."""
    if isinstance(part, NatSubset):
        return combine, complement, EMPTY
    return CombineE, ComplementE, EMPTY_E


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
