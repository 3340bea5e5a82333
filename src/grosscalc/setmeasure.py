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

A record costs what its description costs, not its expansion: it stores the
sparser side of its classes (the non-member classes of ``N \\ {7}`` are none)
and a floor below which its classes hold no member, so a complement flips a
flag and a far progression lists no holes.  By De Morgan every combination
is an intersection of stored sides: classes pair by the Chinese remainder
theorem, or the sparser sides are lifted to the lcm, and the minimal period
is found by stripping primes of gcd(modulus, |classes|).  The size cap is
still checked on the expanded record, counted from the description: a record
past gnum.MAX_ITEMS residue classes, or a progression skipping more elements
below its start, is refused through gnum.refuse before it is built.
"""
from __future__ import annotations

import heapq
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import FrozenSet, Iterable, Iterator, NamedTuple, Tuple, Union

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


class NatSubset(NamedTuple):
    """Canonical eventually periodic subset of the naturals.

    x is a member when it is added, or when x >= floor, x mod modulus is a
    member class and x is not a hole.  ``classes`` holds the member classes,
    or the non-member classes when ``complemented`` is set, whichever are at
    most half the modulus (a tie stores the members).  The floor is 1 plus a
    multiple of the modulus, as high as it goes with no member in a member
    class below it; holes lie in member classes at or above it, and added
    elements outside the member classes; the modulus is minimal.  So each
    set has exactly one record.  Always build through :func:`nat_subset`,
    :func:`finite_set` or :func:`progression`.

    A named tuple, not a frozen dataclass: set algebra builds one record
    per operation, and a tuple of six fields builds in a third of the
    time.  A record still equals only a record.
    """

    modulus: int
    classes: FrozenSet[int]
    complemented: bool = False
    floor: int = 1
    added: FrozenSet[int] = frozenset()
    holes: FrozenSet[int] = frozenset()

    def __eq__(self, other):
        return type(other) is NatSubset and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    @property
    def class_count(self) -> int:
        """How many member classes there are."""
        n = len(self.classes)
        return self.modulus - n if self.complemented else n

    @property
    def residues(self) -> FrozenSet[int]:
        """The member classes; a record that stores the non-member classes
        lists them anew on each read."""
        if not self.complemented:
            return self.classes
        return frozenset(r for r in range(self.modulus) if r not in self.classes)

    @property
    def removed(self) -> FrozenSet[int]:
        """Every non-member in a member class: the holes, and below the floor
        the elements of the member classes."""
        below = _between(self.modulus, self.classes, self.complemented, 1, self.floor)
        return self.holes.union(below)

    def contains(self, x: int) -> bool:
        if x in self.added:
            return True
        if x < self.floor or x in self.holes:
            return False
        return (x % self.modulus in self.classes) != self.complemented

    def card(self) -> GrossPoly:
        return card(self)

    def __str__(self):
        return render_nat(self)

    def __repr__(self):
        return f"NatSubset<{render_nat(self)}>"


def _between(modulus: int, classes, complemented: bool, lo: int, hi: int) -> Iterable[int]:
    """The elements of lo..hi-1 in the member classes, in no set order."""
    if complemented and hi - lo <= modulus:
        return [x for x in range(lo, hi) if x % modulus not in classes]
    if len(classes) == 1 and not complemented:
        (r,) = classes
        return range(lo + (r - lo) % modulus, hi, modulus)
    members = [r for r in range(modulus) if r not in classes] if complemented else classes
    return itertools.chain.from_iterable(range(lo + (r - lo) % modulus, hi, modulus) for r in members)


def _offsets(modulus: int, classes, complemented: bool) -> list:
    """The member classes as offsets 1..modulus within a period block,
    ascending (class 0 is offset modulus)."""
    if complemented:
        return [o for o in range(1, modulus + 1) if o % modulus not in classes]
    offsets = sorted(classes)
    return offsets[1:] + [modulus] if offsets and offsets[0] == 0 else offsets


def _walk(modulus: int, classes, complemented: bool, start: int) -> Iterator[int]:
    """The member-class elements from start >= 1 on, ascending: one period
    block at a time, class 0 last in each."""
    if complemented:
        return (x for x in itertools.count(start) if x % modulus not in classes)
    offsets = _offsets(modulus, classes, False)
    if not offsets:
        return iter(())
    walk = (base + o for base in itertools.count((start - 1) // modulus * modulus, modulus)
            for o in offsets)
    return itertools.dropwhile(lambda x: x < start, walk)


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
    added = frozenset(a for a in added if a % modulus not in residues)
    removed = frozenset(r for r in removed if r % modulus in residues)
    return _canonical(modulus, residues, False, 1, added, removed)


def _canonical(modulus: int, classes: FrozenSet[int], complemented: bool, floor: int,
               added, holes) -> NatSubset:
    """nat_subset on checked parts: classes in range(modulus) on either side,
    the floor 1 plus a multiple of the modulus with no member in a member
    class below it, holes in member classes at or above it, and added
    elements outside them."""
    # A period d divides the modulus, and each class mod d holds modulus/d of
    # the residues, so modulus/d divides gcd(modulus, |residues|).  Periods
    # are closed under gcd, so stripping each prime of that gcd while the
    # smaller value is still a period ends at the unique minimal period.  A
    # set and its complement share their periods, so either side will do.
    n = len(classes)
    period = 1 if n in (0, modulus) else modulus
    if period > 1:
        for p in _prime_factors(math.gcd(modulus, n)):
            while period % p == 0 and all(
                (r + period // p) % modulus in classes for r in classes
            ):
                period //= p
    if period < modulus:
        modulus, classes = period, frozenset(r % period for r in classes)
    return _record(modulus, classes, complemented, floor, added, holes)


def _record(modulus: int, classes: FrozenSet[int], complemented: bool, floor: int,
            added: FrozenSet[int], holes: FrozenSet[int]) -> NatSubset:
    """The record of a minimal period with its exceptions on their right
    sides: it keeps the sparser side of the classes and raises the floor over
    every block whose member-class elements are all holes."""
    n = len(classes)
    if 2 * n > modulus or (complemented and 2 * n == modulus):
        classes, complemented = frozenset(range(modulus)).difference(classes), not complemented
        n = modulus - n
    k = modulus - n if complemented else n
    if not k:
        floor = 1
    elif len(holes) >= k:
        offsets = _offsets(modulus, classes, complemented)

        def walk(i: int) -> int:
            """The member-class element i places past the floor."""
            return floor - 1 + i // k * modulus + offsets[i % k]

        # The i-th smallest hole is at least walk(i), and equal to it just
        # while every element before is a hole too: when the largest hole is
        # on the walk all of them lead it (as after a complement of a
        # complement), and otherwise a binary search finds how many do.
        lead = len(holes)
        if walk(0) not in holes:
            lead = 0
        elif max(holes) != walk(lead - 1):
            ordered, lead, hi = sorted(holes), 1, lead - 1
            while lead < hi:
                mid = (lead + hi + 1) // 2
                if ordered[mid - 1] == walk(mid - 1):
                    lead = mid
                else:
                    hi = mid - 1
        if lead >= k:
            floor += lead // k * modulus
            holes = [h for h in holes if h >= floor] if lead < len(holes) or lead % k else ()
    return NatSubset(modulus, classes, complemented, floor, frozenset(added), frozenset(holes))


EMPTY = nat_subset(1, ())
NATURALS = nat_subset(1, (0,))


def finite_set(elems: Iterable[int]) -> NatSubset:
    return nat_subset(1, (), added=elems)


def progression(first: int, step: int) -> NatSubset:
    """The arithmetic progression {first, first + step, first + 2*step, ...}:
    one class whose floor is the start of first's period block, so the
    skipped elements cost nothing."""
    if not isinstance(first, int) or first < 1:
        raise EvalError(f"progressions start at a positive integer, got {first!r}")
    if not isinstance(step, int) or step < 1:
        raise EvalError(f"progression steps are positive integers, got {step!r}")
    skipped = (first - 1) // step
    gnum.refuse(RepresentationLimit, skipped, "MAX_ITEMS",
                "elements ap({}, {}) skips below its start", first, step)
    # one residue has no shorter period, and nothing below first is a member
    return _record(step, frozenset((first % step,)), False, 1 + skipped * step,
                   frozenset(), frozenset())


def combine(op: SetOp, s: NatSubset, t: NatSubset) -> NatSubset:
    """Union, intersection or difference, recanonicalized.

    Every operation meets one stored side of s with one of t, by De Morgan
    (see _meet_sides), in O(CRT pairs) or O(stored classes lifted to the
    lcm).  The size cap is checked first, for every op, on the classes the
    member sides would yield at the lcm, counted from the descriptions (see
    _listed_size): a result that would hold more than gnum.MAX_ITEMS classes
    before canonicalization raises RepresentationLimit.  Exceptions cost
    O(|exceptions|), plus the member-class elements between the floors when
    a floor is above 1.
    """
    ms, mt = s.modulus, t.modulus
    lift = math.lcm(ms, mt)
    # the member sides list at most 2 * lift classes, an intersection at most lift
    if 2 * lift > gnum.MAX_ITEMS:
        gnum.refuse(RepresentationLimit, _listed_size(op, s, t, lift), "MAX_ITEMS",
                    "residue classes of S {} T at modulus {}", op.value, lift)
    classes, complemented = _meet_sides(op, s, t, lift)
    candidates = s.added | s.holes | t.added | t.holes
    floor = 1
    if s.floor > 1 or t.floor > 1:
        # below this bound the operands' floors keep every member-class
        # element of the result out, except a union's added elements, which
        # lower the floor; an operand with no member classes bounds nothing
        if op is SetOp.UNION:
            fs = s.floor if s.classes or s.complemented else t.floor
            ft = t.floor if t.classes or t.complemented else fs
            bound = min(fs, ft)
        else:
            bound = max(s.floor, t.floor) if op is SetOp.INTERSECT else s.floor
        floor = 1 + (bound - 1) // lift * lift
        if op is SetOp.UNION and (s.added or t.added):
            low = [x for x in s.added | t.added
                   if x < floor and (x % lift in classes) != complemented]
            if low:
                floor = 1 + (min(low) - 1) // lift * lift
        if floor < bound:
            candidates = candidates.union(_between(lift, classes, complemented, floor, bound))
        if bound < s.floor:
            candidates = candidates.union(_between(ms, s.classes, s.complemented, bound, s.floor))
        if bound < t.floor:
            candidates = candidates.union(_between(mt, t.classes, t.complemented, bound, t.floor))
    fn = _MEMBERSHIP[op]
    added, holes = [], []
    for x in candidates:
        is_in = fn(s.contains(x), t.contains(x))
        if is_in != (x >= floor and (x % lift in classes) != complemented):
            (added if is_in else holes).append(x)
    return _canonical(lift, classes, complemented, floor, added, holes)


def _meet_sides(op: SetOp, s: NatSubset, t: NatSubset, lift: int):
    """The member classes of s op t at modulus lift, as (classes, complemented).

    By De Morgan s | t is ~(~s & ~t) and s \\ t is s & ~t, so every operation
    meets one side of s with one side of t, and a complement is a flag.  Two
    member sides meet by CRT pairs, a member side is lifted to the lcm and
    filtered by a non-member side, and two non-member sides are lifted and
    joined.  Each walk stays within the stored sides lifted to the lcm,
    which the size cap bounds, except in an intersection at an lcm past the
    cap: there the stored sides could lift 10^10 classes to keep 10^5, as in
    (ap(1, 2) | ap(2, 100003)) & (ap(2, 2) & ~ap(2, 100019)), so the member
    classes of both are listed and paired by CRT into the pairs the cap counted.
    """
    if op is SetOp.INTERSECT and lift > gnum.MAX_ITEMS:
        return _crt(s.residues, s.modulus, t.residues, t.modulus), False
    flip_s, flip_t = op is SetOp.UNION, op is not SetOp.INTERSECT
    sa, ca, ma = s.classes, s.complemented != flip_s, s.modulus
    sb, cb, mb = t.classes, t.complemented != flip_t, t.modulus
    if ca and cb:
        return frozenset(_lift(sa, ma, lift) | _lift(sb, mb, lift)), not flip_s
    if not (ca or cb):
        return _crt(sa, ma, sb, mb), flip_s
    if ca:
        sa, ma, sb, mb = sb, mb, sa, ma
    return frozenset(x for x in _lift(sa, ma, lift) if x % mb not in sb), flip_s


def _listed_size(op: SetOp, s: NatSubset, t: NatSubset, lift: int) -> int:
    """The classes mod lift that meeting the member sides yields before
    canonicalization, for every op: the lifted classes of both sides of a
    union, or of s for a difference, and the CRT pairs of an intersection.
    The pairs are counted from the stored sides: modulo g = gcd of the
    moduli, the member classes of s in class c number its stored classes
    there, or modulus/g minus them if complemented."""
    ms, mt = s.modulus, t.modulus
    if op is not SetOp.INTERSECT:
        size = s.class_count * (lift // ms)
        if op is SetOp.UNION:
            size += t.class_count * (lift // mt)
        return size
    g = math.gcd(ms, mt)
    cross = 0
    if s.classes and t.classes:
        per_class = Counter(b % g for b in t.classes)
        cross = sum(per_class[a % g] for a in s.classes)
    bs, ss = (ms // g, -1) if s.complemented else (0, 1)
    bt, st = (mt // g, -1) if t.complemented else (0, 1)
    return g * bs * bt + bs * st * len(t.classes) + bt * ss * len(s.classes) + ss * st * cross


def _lift(residues: FrozenSet[int], modulus: int, lift: int) -> set | FrozenSet[int]:
    """The classes r mod modulus as classes mod lift (a multiple of it)."""
    if modulus == lift:
        return residues
    return set().union(*(range(r, lift, modulus) for r in residues))


def _crt(sa: FrozenSet[int], ma: int, sb: FrozenSet[int], mb: int) -> FrozenSet[int]:
    """The classes mod lcm(ma, mb) in both classes sa mod ma and sb mod mb,
    one CRT step per compatible pair; the caller has counted the pairs."""
    g = math.gcd(ma, mb)
    by_class = {}
    for b in sb:
        by_class.setdefault(b % g, []).append(b)
    # x = a + ma*k with ma*k = b - a (mod mb), i.e. k = (b - a)/g * inv mod mb/g
    step = mb // g
    inv = pow(ma // g, -1, step)
    return frozenset(
        a + ma * ((b - a) // g * inv % step)
        for a in sa
        for b in by_class.get(a % g, ())
    )


def complement(s: NatSubset) -> NatSubset:
    """The complement within the naturals {1..G}: it keeps the period and the
    stored classes of s, flips the flag and swaps the exceptions, in
    O(|exceptions|).  The elements below s's floor become added elements."""
    gnum.refuse(RepresentationLimit, s.modulus - s.class_count, "MAX_ITEMS",
                "residue classes of ~S at modulus {}", s.modulus)
    removed = s.holes
    if s.floor > 1:
        removed = removed.union(_between(s.modulus, s.classes, s.complemented, 1, s.floor))
    return _record(s.modulus, s.classes, not s.complemented, 1, removed, s.added)


def card(s: NatSubset) -> GrossPoly:
    """Exact count: each member class holds G/modulus members, less those
    below the floor."""
    k = s.class_count
    correction = len(s.added) - len(s.holes)
    if s.floor > 1:
        correction -= (s.floor - 1) // s.modulus * k
    return gterm(Fraction(k, s.modulus), gnum.ONE) + fin(correction)


def largest_exception(s: NatSubset) -> int:
    """The largest added or removed element, 0 if none, with no element below
    the floor listed: holes lie at or above the floor, and below it the last
    member-class element is in the period block that ends at floor - 1."""
    pts = s.added | s.holes
    top = max(pts) if pts else 0
    if s.floor == 1 or s.holes:
        return top
    m, stored = s.modulus, s.classes
    if s.complemented:
        last = next(o for o in range(m, 0, -1) if o % m not in stored)
    else:
        last = m if 0 in stored else max(stored)
    return max(top, s.floor - 1 - m + last)


def product_card(s: NatSubset, t: NatSubset) -> GrossPoly:
    """Count of the Cartesian product s x t."""
    return gnum.mul(card(s), card(t))


def members(s: NatSubset, n: int) -> Tuple[int, ...]:
    """The n smallest members, ascending; fewer if the set runs out."""
    if n <= 0:
        return ()
    gnum.refuse(RepresentationLimit, n, "MAX_ITEMS", "members listed")
    periodic = (x for x in _walk(s.modulus, s.classes, s.complemented, s.floor)
                if x not in s.holes)
    return tuple(itertools.islice(heapq.merge(periodic, sorted(s.added)), n))


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
    m = gnum.check_digits(s.modulus, "a set's modulus")
    members = (r for r in range(m) if r not in s.classes) if s.complemented else sorted(s.classes)
    pieces = [f"ap({r or m}, {m})" for r in members]
    if s.added:
        pieces.append("{" + ", ".join(str(a) for a in sorted(s.added)) + "}")
    if not pieces:
        return "{}"
    body = " | ".join(pieces)
    # every element below the floor is smaller than every hole
    removed = sorted(s.holes)
    if s.floor > 1:
        removed = sorted(_between(m, s.classes, s.complemented, 1, s.floor)) + removed
    if len(pieces) > 1 and removed:
        body = f"({body})"
    if removed:
        body += " \\ {" + ", ".join(str(r) for r in removed) + "}"
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
