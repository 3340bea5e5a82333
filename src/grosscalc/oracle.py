"""Finite-substitution oracle: every symbolic count must survive G := L.

Substituting a concrete integer L for the infinite unit turns gross-numbers
into exact rationals, and infinite-set counts into finite counting problems
that brute-force enumeration can check.  The substitution is a homomorphism:
whatever identity the calculator claims symbolically must hold numerically at
every admissible L, where admissible means L is divisible by the moduli in
play and safely larger than all exceptional elements.

check_set compares a set's residue record with a brute count of its
expression tree: the calculator passes the record a value printed.
check_card takes a bare tree and builds its record, unless L is one of the
points admissible_points returned for that same tree object: each such
point carries the record it was computed from, so checking a tree at each
of its admissible points builds it once.  Natural and signed trees get
admissible points alike.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Tuple, Union

from . import gnum
from .errors import (
    CritRefNotSubstitutable,
    ExponentTooLarge,
    InvalidL,
    NegativeExponent,
    NonIntegerExponent,
)
from .gnum import (
    Classification,
    CritRef,
    ExpCount,
    GrossNumber,
    GrossPoly,
    classify,
    compare,
    count_text,
    render_gross,
)
from .setmeasure import (
    CombineE,
    ComplementE,
    FiniteSetE,
    ProgressionE,
    SetExpr,
    SetOp,
    SignedSet,
    UniverseNE,
    largest_exception,
)

# admissible_points offers these multiples of the smallest admissible point.
POINT_MULTIPLIERS = (1, 2, 3)


def int_log_floor(base: int, n: int) -> int:
    """Exact floor(log_base(n)) for integers n >= 1, base >= 2.

    The powers base^(2^i) up to n come by repeated squaring; a descending
    search then keeps each one whose product with those kept stays <= n.
    That is O(log k) multiplications and no division.
    """
    if n < 1:
        raise CritRefNotSubstitutable(f"integer logarithm of {n} is undefined")
    squares = []
    power = base
    while power <= n:
        squares.append(power)
        power *= power
    k, kept = 0, 1
    for i in range(len(squares) - 1, -1, -1):
        trial = kept * squares[i]
        if trial <= n:
            k, kept = k + (1 << i), trial
    return k


def subst(x: Union[GrossNumber, CritRef], L: int) -> Fraction:
    """Evaluate x with the infinite unit replaced by the integer L."""
    if not isinstance(L, int) or L < 2:
        raise InvalidL(f"substitution point must be an integer >= 2, got {L!r}")
    if isinstance(x, GrossPoly):
        return Fraction(_subst_poly(x, L))
    if isinstance(x, ExpCount):
        exponent = x.exponent
        if isinstance(exponent, CritRef):
            k = _subst_critref(exponent, L)
        else:
            k = _subst_poly(exponent, L)
            if k.denominator != 1:
                raise NonIntegerExponent(
                    f"exponent of {count_text(x)} substitutes to non-integer "
                    f"{gnum.number_text(k)}"
                )
            k = int(k)
        if k < 0:
            raise NegativeExponent(
                f"exponent of {count_text(x)} substitutes to negative {gnum.number_text(k)}"
            )
        gnum.refuse(ExponentTooLarge, k * x.base.bit_length(), "MAX_POWER_BITS",
                    "bit bound of {}^{} in a substitution", x.base, k)
        return Fraction(x.multiplier * x.base ** k + _subst_poly(x.tail, L))
    if isinstance(x, CritRef):
        return Fraction(_subst_critref(x, L))
    raise TypeError(f"cannot substitute into {x!r}")


def _subst_critref(ref: CritRef, L: int) -> int:
    target = _subst_poly(ref.target, L)
    if target.denominator != 1 or target < 1:
        raise CritRefNotSubstitutable(
            f"target of {count_text(ref)} substitutes to {gnum.number_text(target)}, "
            "not a positive integer"
        )
    return int_log_floor(ref.base, int(target)) + ref.offset


def _subst_poly(p: GrossPoly, L: int) -> Union[int, Fraction]:
    """p at G := L, an int while every coefficient and power is integral."""
    total = 0
    for coeff, exp in p.terms:
        e = _subst_poly(exp, L)
        if e.denominator != 1:
            raise NonIntegerExponent(
                f"exponent {count_text(exp)} substitutes to {gnum.number_text(e)}"
            )
        e = int(e)
        gnum.refuse(ExponentTooLarge, abs(e) * L.bit_length(), "MAX_POWER_BITS",
                    "bit bound of {}^{} in a substitution", L, abs(e))
        total += coeff * (L ** e if e >= 0 else Fraction(1, L ** -e))
    return total


@dataclass(frozen=True)
class SubstReport:
    """One substitution check: the symbolic claim next to the brute answer."""

    expression: str
    L: int
    symbolic_value: Fraction
    brute_value: Fraction
    match: bool

    def __str__(self):
        mark = "ok" if self.match else "MISMATCH"
        return (
            f"{self.expression} at L={self.L}: symbolic {self.symbolic_value} "
            f"vs brute {self.brute_value} [{mark}]"
        )


def _check_brute_point(L: int) -> None:
    """Refuse L outside 1..gnum.MAX_ITEMS, the points brute force can count."""
    if L < 1:
        raise InvalidL(f"L={L} is not a positive integer")
    gnum.refuse(InvalidL, L, "MAX_ITEMS", "brute-force point L")


def brute_count(expr: Union[SetExpr, SignedSet], L: int) -> int:
    """Count members extensionally: {1..L} for natural sets, {-L..L} signed,
    as the bits of each tree part's mask (plus a signed set's zero flag),
    which the tree decides alone, never reading a residue record."""
    _check_brute_point(L)
    if isinstance(expr, SignedSet):
        return (expr.negatives.mask_upto(L).bit_count() + expr.has_zero
                + expr.positives.mask_upto(L).bit_count())
    return expr.mask_upto(L).bit_count()


class _Prepared:
    """One record of expr, with what every point of its check reads from it:
    the parts now, the largest-exception ceiling and the count on first use."""

    def __init__(self, expr: Union[SetExpr, SignedSet], record):
        self.expr = expr
        self.record = record
        self.parts = (record.negatives, record.positives) if isinstance(record, SignedSet) else (record,)

    @cached_property
    def ceiling(self) -> int:
        return max(largest_exception(part) for part in self.parts)

    @cached_property
    def count(self) -> GrossPoly:
        return self.record.card()


class _Point(int):
    """A point admissible_points returned, carrying the prepared check of
    the tree it was computed for; it copies and pickles as a plain int."""

    def __new__(cls, value: int, prepared: _Prepared):
        point = super().__new__(cls, value)
        point.prepared = prepared
        return point

    def __reduce__(self):
        return int, (int(self),)


def _check(prepared: _Prepared, L: int) -> SubstReport:
    _check_brute_point(L)
    for part in prepared.parts:
        if L % part.modulus != 0:
            raise InvalidL(f"L={L} is not divisible by the canonical modulus {part.modulus}")
    if L <= 10 * prepared.ceiling:
        raise InvalidL(f"L={L} is not beyond 10x the largest exception {prepared.ceiling}")
    sym_val = subst(prepared.count, L)
    brute = Fraction(brute_count(prepared.expr, L))
    return SubstReport(str(prepared.expr), L, sym_val, brute, sym_val == brute)


def check_card(expr: Union[SetExpr, SignedSet], L: int) -> SubstReport:
    """Compare the symbolic count of expr against brute enumeration at L.

    L must be divisible by the canonical modulus and larger than ten times
    the largest exceptional element, so that every residue class is sampled
    a whole number of times and corrections sit well inside the range, and
    at most gnum.MAX_ITEMS, the most points brute force enumerates.

    The record is built from the tree, unless L is a point admissible_points
    returned for this same tree object, whose record it carries.
    """
    if isinstance(L, _Point) and L.prepared.expr is expr:
        return _check(L.prepared, int(L))
    return _check(_Prepared(expr, expr.build()), L)


def check_set(expr: Union[SetExpr, SignedSet], record, L: int) -> SubstReport:
    """check_card against a given record of expr, such as the one a
    calculator value printed, rather than one rebuilt from the tree."""
    return _check(_Prepared(expr, record), L)


def check_order(x: GrossNumber, y: GrossNumber, Ls: Sequence[int]) -> SubstReport:
    """Check that compare(x, y) matches the numeric order at every L given."""
    verdict = compare(x, y).value
    expression = f"compare({render_gross(x)}, {render_gross(y)})"
    last_L, last_sign, match = 0, Fraction(0), True
    for L in Ls:
        vx, vy = subst(x, L), subst(y, L)
        sign = Fraction((vx > vy) - (vx < vy))
        last_L, last_sign = L, sign
        if sign != verdict:
            match = False
            break
    return SubstReport(expression, last_L, Fraction(verdict), last_sign, match)


# random set expressions for sweep checks


def random_set_expr(rng: random.Random, depth: int = 4) -> SetExpr:
    """A random recipe: progressions and small finite sets under set algebra.

    Moduli stay at 12 or less and explicit values at 200 or less so that
    admissible substitution points remain small enough to enumerate.
    """
    if depth <= 0 or rng.random() < 0.4:
        kind = rng.randrange(3)
        if kind == 0:
            step = rng.randint(1, 12)
            first = rng.randint(1, 200)
            return ProgressionE(first, step)
        if kind == 1:
            size = rng.randint(0, 5)
            return FiniteSetE(frozenset(rng.randint(1, 200) for _ in range(size)))
        return UniverseNE()
    kind = rng.randrange(4)
    if kind == 3:
        return ComplementE(random_set_expr(rng, depth - 1))
    op = (SetOp.UNION, SetOp.INTERSECT, SetOp.DIFFERENCE)[kind]
    return CombineE(op, random_set_expr(rng, depth - 1), random_set_expr(rng, depth - 1))


def _expr_moduli(expr: Union[SetExpr, SignedSet]) -> list:
    if isinstance(expr, ProgressionE):
        return [expr.step]
    if isinstance(expr, CombineE):
        return _expr_moduli(expr.left) + _expr_moduli(expr.right)
    if isinstance(expr, ComplementE):
        return _expr_moduli(expr.inner)
    if isinstance(expr, SignedSet):
        return _expr_moduli(expr.negatives) + _expr_moduli(expr.positives)
    return []


def admissible_points(expr: Union[SetExpr, SignedSet]) -> Tuple[int, ...]:
    """Substitution points valid for check_card on this expression, each
    carrying the record built here for check_card to read.  The lcm of the
    tree's steps is a multiple of every canonical modulus of its record."""
    prepared = _Prepared(expr, expr.build())
    lcm = math.lcm(*_expr_moduli(expr))
    floor = max(2, 10 * prepared.ceiling + 1)
    scale = -(floor // -lcm)  # ceil division
    return tuple(_Point(lcm * scale * m, prepared) for m in POINT_MULTIPLIERS)


def sweep(seed: int, cases: int) -> Tuple[int, list]:
    """Run check_card over random expressions; returns (failures, reports)."""
    rng = random.Random(seed)
    reports = []
    failures = 0
    for _ in range(cases):
        expr = random_set_expr(rng)
        for L in admissible_points(expr):
            report = check_card(expr, L)
            reports.append(report)
            if not report.match:
                failures += 1
    return failures, reports
