"""Finite-substitution oracle: every symbolic count must survive G := L.

Substituting a concrete integer L for the infinite unit turns gross-numbers
into exact rationals, and infinite-set counts into finite counting problems
that brute-force enumeration can check.  The substitution is a homomorphism:
whatever identity the calculator claims symbolically must hold numerically at
every admissible L, where admissible means L is divisible by the moduli in
play and safely larger than all exceptional elements.

check_set compares a set's residue record with a brute count of its
expression tree: the calculator passes the record a value printed, and
check_card (a bare tree) builds one.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
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
)

# a substitution computes at most gnum.MAX_POWER_BITS bits of each power
_POWER_REFUSAL = "{}^{} exceeds the {}-bit substitution guard"

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
        return _subst_poly(x, L)
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
        if k * x.base.bit_length() > gnum.MAX_POWER_BITS:
            gnum.refuse(ExponentTooLarge, _POWER_REFUSAL, x.base, k, gnum.MAX_POWER_BITS)
        return x.multiplier * Fraction(x.base) ** k + _subst_poly(x.tail, L)
    if isinstance(x, CritRef):
        return Fraction(_subst_critref(x, L))
    raise TypeError(f"cannot substitute into {x!r}")


def _subst_critref(ref: CritRef, L: int) -> int:
    target = _subst_poly(ref.target, L)
    if target.denominator != 1 or target < 1:
        raise CritRefNotSubstitutable(
            f"target of {ref!r} substitutes to {target}, not a positive integer"
        )
    return int_log_floor(ref.base, int(target)) + ref.offset


def _subst_poly(p: GrossPoly, L: int) -> Fraction:
    total = Fraction(0)
    for coeff, exp in p.terms:
        e = _subst_poly(exp, L)
        if e.denominator != 1:
            raise NonIntegerExponent(
                f"exponent {count_text(exp)} substitutes to {gnum.number_text(e)}"
            )
        e = int(e)
        if abs(e) * L.bit_length() > gnum.MAX_POWER_BITS:
            gnum.refuse(ExponentTooLarge, _POWER_REFUSAL, L, abs(e), gnum.MAX_POWER_BITS)
        total += coeff * Fraction(L) ** e
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


def brute_count(expr: Union[SetExpr, SignedSet], L: int) -> int:
    """Count members extensionally: {1..L} for natural sets, {-L..L} signed."""
    return len(expr.enumerate_upto(L))


def _exception_ceiling(subset) -> int:
    pts = subset.added | subset.removed
    return max(pts) if pts else 0


def check_card(expr: Union[SetExpr, SignedSet], L: int) -> SubstReport:
    """Compare the symbolic count of expr against brute enumeration at L.

    L must be divisible by the canonical modulus and larger than ten times
    the largest exceptional element, so that every residue class is sampled
    a whole number of times and corrections sit well inside the range, and
    at most gnum.MAX_ITEMS, the most points brute force enumerates.
    """
    return check_set(expr, expr.build(), L)


def check_set(expr: Union[SetExpr, SignedSet], record, L: int) -> SubstReport:
    """check_card against a given record of expr, such as the one a
    calculator value printed, rather than one rebuilt from the tree."""
    if L > gnum.MAX_ITEMS:
        gnum.refuse(InvalidL, "L={} exceeds the cap of {} points counted by brute force",
                    L, gnum.MAX_ITEMS)
    parts = (record.negatives, record.positives) if isinstance(record, SignedSet) else (record,)
    for part in parts:
        if L % part.modulus != 0:
            raise InvalidL(f"L={L} is not divisible by the canonical modulus {part.modulus}")
    ceiling = max(_exception_ceiling(part) for part in parts)
    if L <= 10 * ceiling:
        raise InvalidL(f"L={L} is not beyond 10x the largest exception {ceiling}")
    sym_val = subst(record.card(), L)
    brute = Fraction(brute_count(expr, L))
    return SubstReport(str(expr), L, sym_val, brute, sym_val == brute)


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


def _expr_moduli(expr: SetExpr) -> list:
    if isinstance(expr, ProgressionE):
        return [expr.step]
    if isinstance(expr, CombineE):
        return _expr_moduli(expr.left) + _expr_moduli(expr.right)
    if isinstance(expr, ComplementE):
        return _expr_moduli(expr.inner)
    return []


def admissible_points(expr: SetExpr) -> Tuple[int, ...]:
    """Substitution points valid for check_card on this expression."""
    return _points_for(expr, expr.build())


def _points_for(expr: SetExpr, built) -> Tuple[int, ...]:
    """admissible_points with the record of expr already built."""
    lcm = math.lcm(built.modulus, *(_expr_moduli(expr) or [1]))
    ceiling = _exception_ceiling(built)
    floor = max(2, 10 * ceiling + 1)
    scale = -(floor // -lcm)  # ceil division
    return tuple(lcm * scale * m for m in POINT_MULTIPLIERS)


def sweep(seed: int, cases: int) -> Tuple[int, list]:
    """Run check_card over random expressions; returns (failures, reports)."""
    rng = random.Random(seed)
    reports = []
    failures = 0
    for _ in range(cases):
        expr = random_set_expr(rng)
        built = expr.build()
        for L in _points_for(expr, built):
            report = check_set(expr, built, L)
            reports.append(report)
            if not report.match:
                failures += 1
    return failures, reports
