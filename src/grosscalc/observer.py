"""Counting systems as instruments of observation with bounded accuracy.

A counting system is a lens: pointing it at a collection yields the numeral
the system can actually say, not the true count.  The Piraha system says
1, 2 or "many"; Munduruku counts exactly to 5 and then estimates; calculus
collapses everything infinite into one symbol; Cantor's cardinals separate
the countable from the continuum; the gross-number system reads off the
exact value.  Weak systems have degenerate arithmetic ("many" + 2 = "many")
which this module reproduces literally.

The quoted token inventories start at 1; none of the recorded languages has
a numeral for an empty collection.  The model adjoins the exact reading 0
anyway so that observation is total on counts and stays monotone.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Tuple, Union

from . import gnum
from .errors import ForeignToken, NegativeCount, NonIntegralCount
from .gnum import (
    Classification,
    ExpCount,
    GrossNumber,
    GrossPoly,
    Ordering,
    classify,
    count_text,
    fin,
    is_whole,
    render_gross,
)


@dataclass(frozen=True)
class ExactToken:
    """A numeral that denotes one definite count."""

    value: GrossNumber

    def __str__(self):
        return render_gross(self.value)


@dataclass(frozen=True)
class NamedToken:
    """A vague numeral: a word covering a whole band of counts."""

    name: str

    def __str__(self):
        return self.name


Token = Union[ExactToken, NamedToken]

MANY = NamedToken("many")
SOME_NOT_MANY = NamedToken("some_not_many")
MANY_REALLY_MANY = NamedToken("many_really_many")
INFINITY = NamedToken("inf")
ALEPH0 = NamedToken("aleph0")
CONTINUUM = NamedToken("C")

Covers = Callable[[GrossNumber], bool]


@dataclass(frozen=True, repr=False)
class CountingSystem:
    """One instrument, one row: the counts it names exactly, its vague
    tokens in increasing band order, each with the counts it covers (the
    last rung covers the rest), and the refusal of an exact numeral it
    lacks, with slots for the count and the system."""

    name: str
    exact: Covers
    ladder: Tuple[Tuple[NamedToken, Covers], ...]
    foreign: str = "{count} has no exact numeral in {system}"

    def __str__(self):
        return self.name

    def __repr__(self):
        return f"CountingSystem<{self.name}>"


def _as_count(v) -> GrossNumber:
    """Validate that v is a usable count: a non-negative whole gross-number."""
    if isinstance(v, (int, Fraction)):
        v = fin(v)
    if classify(v) in (Classification.FINITE_NEGATIVE, Classification.INFINITE_NEGATIVE):
        raise NegativeCount(f"{count_text(v)} is not a count")
    if not is_whole(v):
        raise NonIntegralCount(f"{count_text(v)} is not a whole count")
    return v


def _is_finite(v: GrossNumber) -> bool:
    return classify(v) in (Classification.ZERO, Classification.FINITE_POSITIVE)


def _upto(n: int) -> Covers:
    return lambda v: _is_finite(v) and v.as_int() <= n


def _any(v: GrossNumber) -> bool:
    return True


def _countable(v: GrossNumber) -> bool:
    # Cantor's split: everything polynomial in G is countable, and so is b^k1
    # for a critical length k1, bounded by its polynomial target; b^K for an
    # infinite polynomial K has the cardinality of the unit interval's numerals
    return not (isinstance(v, ExpCount) and isinstance(v.exponent, GrossPoly))


PIRAHA = CountingSystem(
    "piraha", _upto(2), ((MANY, _any),), "{count} is beyond the exact numerals 1, 2"
)
# where "some, not many" ends and "many, really many" begins is a modeling
# choice rather than an attested fact
MUNDURUKU = CountingSystem(
    "munduruku",
    _upto(5),
    ((SOME_NOT_MANY, _upto(100)), (MANY_REALLY_MANY, _any)),
    "{count} is beyond the exact numerals 1..5",
)
CALCULUS_INFINITY = CountingSystem("calculus", _is_finite, ((INFINITY, _any),))
CANTOR = CountingSystem("cantor", _is_finite, ((ALEPH0, _countable), (CONTINUUM, _any)))
GROSSONE_SYSTEM = CountingSystem("grossone", _any, ())

SYSTEMS = (PIRAHA, MUNDURUKU, CALCULUS_INFINITY, CANTOR, GROSSONE_SYSTEM)


@dataclass(frozen=True)
class Observation:
    """What the instrument reported for one true count."""

    system: CountingSystem
    token: Token

    @property
    def exact(self) -> Optional[GrossNumber]:
        return self.token.value if isinstance(self.token, ExactToken) else None

    def __str__(self):
        return str(self.token)

    def __repr__(self):
        return f"Observation<{self.system}: {self.token}>"


def observe(sys: CountingSystem, v) -> Observation:
    """Read the count v through the given system's numerals."""
    v = _as_count(v)
    if sys.exact(v):
        return Observation(sys, ExactToken(v))
    return Observation(sys, next(rung for rung, covers in sys.ladder if covers(v)))


def _require_member(sys: CountingSystem, t) -> Token:
    if isinstance(t, (int, Fraction, GrossPoly, ExpCount)):
        t = ExactToken(_as_count(t))
    if isinstance(t, NamedToken):
        if t not in (rung for rung, _ in sys.ladder):
            raise ForeignToken(f"{t} is not a numeral of {sys}")
        return t
    if not isinstance(t, ExactToken):
        raise ForeignToken(f"{t!r} is not a numeral of {sys}")
    v = _as_count(t.value)
    if not sys.exact(v):
        raise ForeignToken(sys.foreign.format(count=count_text(v), system=sys))
    return ExactToken(v)


def _rank(sys: CountingSystem, t: Token) -> int:
    if isinstance(t, ExactToken):
        return 0
    return 1 + [rung for rung, _ in sys.ladder].index(t)


def weak_add(sys: CountingSystem, a, b) -> Token:
    """Add two of the system's numerals the way the system itself would.

    Exact plus exact is re-observed: the true sum is computed and then read
    back through the instrument, so it degrades to a vague token exactly
    when the sum leaves the exact range (Piraha 2+2 = "many").  Any vague
    token absorbs everything in its own band and below: "many" + 2 =
    "many", aleph0 + 2 = aleph0, C + aleph0 = C.  The undisplayed diagonal
    sums extrapolate the same way (aleph0 + aleph0 = aleph0), matching
    Cantor's cardinal arithmetic.
    """
    a = _require_member(sys, a)
    b = _require_member(sys, b)
    if isinstance(a, ExactToken) and isinstance(b, ExactToken):
        return observe(sys, gnum.add(a.value, b.value)).token
    return a if _rank(sys, a) >= _rank(sys, b) else b


def tokens_equal(a: Token, b: Token) -> bool:
    if isinstance(a, ExactToken) and isinstance(b, ExactToken):
        return gnum.compare(a.value, b.value) is Ordering.EQUAL
    return a == b


def distinguishable(sys: CountingSystem, u, v) -> bool:
    """Can the system tell collections of u and v elements apart?"""
    return not tokens_equal(observe(sys, u).token, observe(sys, v).token)


def token_order(sys: CountingSystem, a: Token, b: Token) -> Ordering:
    """The system's own order on its numerals: exact values first, then the
    vague bands in increasing order.  Observation is monotone under it."""
    ra, rb = _rank(sys, a), _rank(sys, b)
    if ra != rb:
        return Ordering.LESS if ra < rb else Ordering.GREATER
    if isinstance(a, ExactToken):
        return gnum.compare(a.value, b.value)
    return Ordering.EQUAL
