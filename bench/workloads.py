"""Seeded inputs for the four workloads, each with its reference check.

Every generator returns one *round*: a fixed-length list of ``Op``.  The
round length and its make-up (how many ops of each shape and size) do not
depend on the seed; the seed only picks the numbers inside each shape.
That keeps the cost distribution, and so the percentiles, the same from one
seed to the next, and it keeps the share of kept faults per round exact.

A check receives the decoded outcome of one op:

* ``("value", text, type)``: a rendered value and its type tag;
* ``("error", kind)``: a typed ``GrossError`` refusal;
* ``("crash", name)``: any other exception escaped the program;
* ``("reports", [(L, symbolic, brute, match), ...])``: oracle reports.

and returns ``None`` when the outcome is right, else a message.
"""
from __future__ import annotations

import bisect
import math
import random
from fractions import Fraction

import gcheck as gc

# substitution points for count checks; points where an exponent turns
# non-integral or a power outgrows gcheck.BIT_CAP are skipped
POINTS = (2, 3, 7, 1000)
DEGENERATE_POINTS = (1, -1)


class Op:
    __slots__ = ("text", "check", "tag", "fault", "spec")

    def __init__(self, text, check, tag="", fault=False, spec=None):
        self.text = text
        self.check = check
        self.tag = tag
        self.fault = fault
        self.spec = spec


# --------------------------------------------------------------------------
# checks


def _value(outcome, type_):
    if outcome[0] != "value":
        return f"expected a {type_}, got {outcome}"
    if outcome[2] != type_:
        return f"expected a {type_}, got {outcome[2]} {outcome[1]!r}"
    return None


def want_count(expected: str):
    """The result equals `expected` symbolically and at >= 2 points G := L."""
    want_nf = gc.nf_text(expected)

    def check(outcome):
        bad = _value(outcome, "count")
        if bad:
            return bad
        got = outcome[1]
        if gc.nf_text(got) != want_nf:
            return f"{got!r} differs from {expected!r}"
        try:
            used = gc.agree_at(expected, got, POINTS)
            if len(used) < 2:
                used += gc.agree_at(expected, got, DEGENERATE_POINTS)
        except AssertionError as err:
            return str(err)
        if len(used) < 2:
            return f"fewer than two substitution points for {expected!r}"
        return None

    return check


def want_card(coeff: Fraction, const: int):
    return want_count(gc.card_text(coeff, const))


def want_bool(expected: str):
    if expected == "Undetermined":
        return want_error("Undetermined")

    def check(outcome):
        bad = _value(outcome, "bool")
        if bad:
            return bad
        return None if outcome[1] == expected else f"expected {expected}, got {outcome[1]}"

    return check


def want_error(kind: str):
    def check(outcome):
        if outcome[:2] != ("error", kind):
            return f"expected refusal {kind}, got {outcome}"
        return None

    return check


def want_text(type_: str, text: str):
    """Exact rendering; used for hand-written paper values and tokens."""

    def check(outcome):
        if outcome[0] != "value" or outcome[1:] != (text, type_):
            return f"expected {type_} {text!r}, got {outcome}"
        return None

    return check


def want_members(expected):
    text = "[" + ", ".join(str(x) for x in expected) + "]"
    return want_text("sequence", text)


def want_set(type_: str, contains, lo: int, hi: int):
    """The rendered set has the same members as `contains` on lo..hi."""

    def check(outcome):
        bad = _value(outcome, type_)
        if bad:
            return bad
        _, got = gc.set_pred(gc.parse(outcome[1]))
        for x in range(lo, hi + 1):
            if got(x) != contains(x):
                return f"{outcome[1]!r} disagrees at {x}"
        return None

    return check


def _numeral_ok(text, base, length, sign, head, tail):
    s, h, t, count, n = gc.read_numeral(text)
    if (s, h, t) != (sign, head, tail):
        return f"numeral {text!r}: expected sign {sign!r} head {head!r} tail {tail!r}"
    if gc.nf_text(n) != gc.nf_text(length):
        return f"numeral {text!r}: expected {length} positions"
    if gc.nf_text(count) != gc.nf_text(f"{base}^({length})"):
        return f"numeral {text!r}: expected {base}^({length}) numerals"
    return None


def want_numeral(base, length, sign, head, tail):
    def check(outcome):
        bad = _value(outcome, "numeral")
        return bad or _numeral_ok(outcome[1], base, length, sign, head, tail)

    return check


def want_numerals(base, length, tails):
    """first(b, n, k): the all-zeros numeral and its successors."""

    def check(outcome):
        bad = _value(outcome, "sequence")
        if bad:
            return bad
        body = outcome[1]
        if not (body.startswith("[") and body.endswith("]")):
            return f"not a sequence: {body!r}"
        items = body[1:-1].split("], ")
        items = [x + "]" for x in items[:-1]] + items[-1:]
        if len(items) != len(tails):
            return f"expected {len(tails)} numerals, got {len(items)}"
        for item, tail in zip(items, tails):
            bad = _numeral_ok(item, base, length, "", "", tail)
            if bad:
                return bad
        return None

    return check


def want_critical(base: int, target: str):
    """b^k1 <= M < b^k2 with k2 = k1 + 1, checked at points G := L."""

    def check(outcome):
        bad = _value(outcome, "critical_pair")
        if bad:
            return bad
        text = outcome[1]
        try:
            sandwich, names = text.split(" with k1 = ")
            k1_text, k2_text = names.split(", k2 = ")
            low, rest = sandwich.split(" <= ")
            mid, high = rest.split(" < ")
        except ValueError:
            return f"unreadable critical pair {text!r}"
        k1, k2 = gc.parse(k1_text), gc.parse(k2_text)
        for L in (1000, 10**6, 12345678):
            m = gc.at(gc.parse(target), L)
            if gc.at(gc.parse(mid), L) != m:
                return f"{text!r}: middle is not {target}"
            e1, e2 = gc.at(k1, L), gc.at(k2, L)
            if e2 != e1 + 1 or not (base**e1 <= m < base**e2):
                return f"{text!r}: not a sandwich at G := {L}"
            if gc.at(gc.parse(low), L) != base**e1 or gc.at(gc.parse(high), L) != base**e2:
                return f"{text!r}: bounds are not {base}^k1, {base}^k2"
        return None

    return check


def want_crit(base: int, target: str):
    def check(outcome):
        bad = _value(outcome, "critical_length")
        if bad:
            return bad
        node = gc.parse(outcome[1])
        for L in (1000, 10**6, 12345678):
            m = int(gc.at(gc.parse(target), L))
            if gc.at(node, L) != gc.int_log_floor(base, m):
                return f"{outcome[1]!r} is not crit({base}, {target}) at G := {L}"
        return None

    return check


# --------------------------------------------------------------------------
# text helpers


def term(c, e) -> str:
    """Text of c*G^e; e is an int or an exponent text."""
    c = Fraction(c)
    coeff = f"({c.numerator}/{c.denominator})" if c.denominator != 1 else (
        f"({c.numerator})" if c < 0 else str(c.numerator)
    )
    if e == 0:
        return coeff
    power = "G" if e == 1 else f"G^{e}" if isinstance(e, int) else f"G^({e})"
    return power if c == 1 else f"{coeff}*{power}"


COEFFS = [c for c in range(-9, 10) if c]


def poly(rng, nterms, exps) -> str:
    """A sum of nterms monomials with distinct exponents drawn from exps."""
    chosen = rng.sample(list(exps), nterms)
    return " + ".join(term(rng.choice(COEFFS), e) for e in chosen)


# quantiles that bound the quota bins: every 5%, then finer in the tail
TAIL_QUANTILES = [k / 20 for k in range(1, 20)] + [0.97, 0.98, 0.99, 0.995, 0.999]


def quota_sample(rng, draw, proxy, n, quantiles=TAIL_QUANTILES):
    """n draws whose cost proxy has the same distribution for every seed.

    The proxy's quantiles under `draw` are taken once from a fixed reference
    sample; the seeded draws then fill each quantile bin to its fixed quota.
    Draws beyond the reference maximum are redrawn, so no seed can add one
    outsized op that the others lack.
    """
    ref_rng = random.Random(20260101)
    ref = sorted(proxy(draw(ref_rng)) for _ in range(4000))
    edges = sorted({ref[int(len(ref) * q)] for q in quantiles})
    share = [0] * (len(edges) + 1)
    for p in ref:
        share[bisect.bisect_right(edges, p)] += 1
    quota = [n * s // len(ref) for s in share]
    quota[share.index(max(share))] += n - sum(quota)
    out = []
    for _ in range(200 * n):
        if not any(quota):
            break
        r = draw(rng)
        p = proxy(r)
        k = bisect.bisect_right(edges, p)
        if quota[k] and p <= ref[-1]:
            quota[k] -= 1
            out.append(r)
    else:
        raise RuntimeError("quota sampling did not converge")
    rng.shuffle(out)
    return out


# --------------------------------------------------------------------------
# gross_poly


def _tower(h: int, leaf: str) -> str:
    text = leaf
    for _ in range(h - 1):
        text = f"G^({text})"
    return text


def gross_poly(seed: int):
    rng = random.Random(seed)
    ops = []

    def add(text, check, tag=""):
        ops.append(Op(text, check, tag))

    def value(text, tag=""):
        add(text, want_count(text), tag)

    def compare(left, op, right, tag="cmp"):
        add(f"{left} {op} {right}", want_bool(gc.verdict(op, left, right)), tag)

    # powers whose results grow from 2 to 15 terms
    for i in range(200):
        if i % 2:
            k = 1 + (i // 2) % 14
            base = f"{term(rng.randint(1, 5), 1)} + {term(rng.choice([-7, -3, -1, 1, 2, 5]), 0)}"
            value(f"({base})^{k}", f"terms:{k + 1}")
        else:
            k = 1 + (i // 2) % 7
            base = poly(rng, 3, range(0, 3))
            value(f"({base})^{k}", f"terms:{2 * k + 1}")
    # products of multi-term polynomials
    for i in range(180):
        t1, t2 = 1 + i % 6, 1 + (i // 6) % 6
        value(f"({poly(rng, t1, range(0, 9))}) * ({poly(rng, t2, range(-3, 7))})")
    # exact divisions by monomials
    for i in range(120):
        num = poly(rng, 2 + i % 6, range(-2, 8))
        den = term(rng.choice([1, 2, 3, -4, 5, 7]), rng.randint(0, 4))
        if i % 3 == 0:
            num = f"({num}) * ({poly(rng, 2, range(0, 4))})"
        value(f"({num}) / ({den})")
    # nested exponents
    for i in range(120):
        a, b = rng.randint(1, 4), rng.randint(-3, 3)
        e1 = f"{term(a, 1)} + {term(b, 0)}" if b else term(a, 1)
        e2 = f"G^2 + {term(rng.randint(1, 3), 1)}"
        shape = i % 4
        if shape == 0:
            value(f"G^({e1}) * G^({e2}) + {term(rng.randint(1, 9), 2)}")
        elif shape == 1:
            value(f"(G^({e1}))^{rng.randint(2, 5)}")
        elif shape == 2:
            value(f"{term(rng.randint(2, 9), e2)} + G^({e2}) - G^({e1})")
        else:
            value(f"(G^({e2}) + {term(rng.randint(1, 9), e1)}) / G^(G + {rng.randint(1, 3)})")
    # exponential counts with one base: sums, products, quotients, orders
    for i in range(120):
        b = rng.choice([2, 3, 5, 10])
        k1, k2 = rng.randint(0, 4), rng.randint(0, 4)
        c1, c2 = rng.randint(1, 6), rng.randint(1, 6)
        e = rng.choice(["G", "2*G", "G^2"])
        x = f"{c1}*{b}^({e} + {k1})"
        y = f"{c2}*{b}^({e} + {k2})"
        tail = poly(rng, 2, range(0, 4))
        shape = i % 4
        if shape == 0:
            value(f"{x} + {y} + {tail}")
        elif shape == 1:
            value(f"({x} + {tail}) * {rng.randint(2, 9)} - {y}" if c1 * b**k1 * 2 > c2 * b**k2
                  else f"{x} + {y} - {tail}")
        elif shape == 2:
            value(f"{b}^({e} + {k1}) * {b}^(G + {k2}) / {b}^G")
        else:
            compare(f"{x} + {tail}", rng.choice(["<", ">", "<=", ">="]), f"{y} + {poly(rng, 2, range(0, 4))}")
    # exponential counts with different bases
    for i in range(60):
        b1, b2 = rng.sample([2, 3, 5, 6, 7, 10], 2)
        c1, c2 = rng.randint(1, 4), rng.randint(1, 4)
        if b1**c1 == b2**c2:
            c2 += 1
        compare(f"{rng.randint(1, 9)}*{b1}^({c1}*G)", rng.choice(["<", ">"]),
                f"{rng.randint(1, 9)}*{b2}^({c2}*G) + {term(rng.randint(1, 9), 3)}")
    # critical-length sandwiches: b^crit(b, c*G) + k lies in (c*G*b^(k-1), c*G*b^k]
    for i in range(60):
        b = rng.choice([2, 3, 10, 16])
        c, k = rng.randint(1, 9), rng.randint(-1, 2)
        lo, hi = Fraction(c) * Fraction(b) ** (k - 1), Fraction(c) * Fraction(b) ** k
        where = i % 3
        if where == 0:
            d = hi + rng.randint(1, 20)
        elif where == 1:
            d = max(Fraction(1, 2), lo - rng.randint(1, 5)) if lo > 1 else lo / 2
        else:
            d = (lo + hi) / 2
        shift = f" + {k}" if k > 0 else f" - {-k}" if k < 0 else ""
        left = f"numerals({b}, crit({b}, {term(c, 1)}){shift})"
        compare(left, rng.choice(["<", ">"]), term(d, 1), "crit")
    # polynomial orders with close leading terms
    for i in range(60):
        lead = term(rng.randint(1, 4), rng.randint(1, 5))
        compare(f"{lead} + {poly(rng, 2, range(-2, 1))}", rng.choice(["<", "<=", ">", ">="]),
                f"{lead} + {poly(rng, 2, range(-2, 1))}")
    # series in term count: a t1-term polynomial times a t2-term one.  The
    # squares 1x1..16x16 give the scaling curve; 24 more products with sizes
    # t1*t2 from 324 to 484 in steps of under 2% are the round's top 2.4%,
    # so the p99 sits inside one smooth series
    sizes = [(t, t) for t in range(1, 17)]
    shapes = sorted((a * b, a, b) for a in range(15, 31) for b in range(a, 31))
    for i in range(24):
        want = 324 * (484 / 324) ** (i / 23)
        best = min((s for s in shapes if (s[1], s[2]) not in sizes), key=lambda s: abs(s[0] - want))
        sizes.append(best[1:])
    for t1, t2 in sizes:
        p = " + ".join(term(rng.randint(1, 9), e) for e in range(t1))
        q = " + ".join(term(rng.randint(1, 9), e) for e in range(0, 2 * t2, 2))
        value(f"({p}) * ({q})", f"terms:{t1}x{t2}")
    # series in exponent depth: towers of height 1..7 (result depth 2..8)
    for i in range(28):
        h = 1 + i % 7
        leaf = f"G + {rng.randint(1, 9)}"
        tower = _tower(h, leaf)
        value(f"{tower} * {tower} + {tower}", f"depth:{h + 1}")
    # typed refusals
    refusals = [
        ("(G^2 - 1) / (G + 1)", "NonExactDivision"),
        ("2^G + 3^G", "UnsupportedSum"),
        ("2^G * 3^G", "UnsupportedProduct"),
        ("2^G - 3*2^G", "UnsupportedSum"),
        ("(2^G + 1) * (2^G + 1)", "UnsupportedProduct"),
        ("2^(-G)", "NegativeExponent"),
        ("(G + 1)^G", "UnsupportedPower"),
        (_tower(8, "G"), "DepthLimitExceeded"),
        ("G / 0", "DivisionByZero"),
        ("G^2 / (G^2 + G)", "NonExactDivision"),
    ]
    for i in range(12):
        text, kind = refusals[i % len(refusals)]
        add(text, want_error(kind), "refusal")
    assert len(ops) == 1000, len(ops)
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------------------
# coprime_sets

def _near(rng, target: float, jitter: float = 0.02) -> int:
    return max(2, round(target * math.exp(rng.uniform(-jitter, jitter))))


def _prime_from(n: int) -> int:
    while n < 2 or any(n % p == 0 for p in range(2, math.isqrt(n) + 1)):
        n += 1
    return n


def _coprime_moduli(rng, k: int, target: float):
    """k distinct primes whose product is within a few percent of target.

    Primes keep the divisor count of the lcm at 2^k, so an op's cost
    follows its size alone and not the factorization the seed happens to
    pick."""
    ms = []
    for _ in range(k - 1):
        p = _prime_from(_near(rng, target ** (1 / k), 0.05))
        while p in ms:
            p = _prime_from(p + 1)
        ms.append(p)
    last = _prime_from(max(2, round(target / math.prod(ms))))
    while last in ms:
        last = _prime_from(last + 1)
    return ms + [last]


def _ap(a, d):
    return f"ap({a}, {d})"


def _decade(n: int) -> str:
    return f"lcm:1e{int(math.log10(n))}"


def lcm_target(u: float) -> float:
    """Target lcm for a size u in [0, 1): log-uniform over 10^2..10^4 for
    the lower 96%, then over 10^4..1.6*10^5 for the top 4%.  The density
    changes at 10^4 but the cost has no gap there, and the p99 falls inside
    the top stretch, away from the change."""
    if u < 0.96:
        return 10 ** (2 + 2 * u / 0.96)
    return 10 ** (4 + 1.2 * (u - 0.96) / 0.04)


def coprime_sets(seed: int):
    """Ten shapes of 100 ops.  Op j of shape s has the size
    lcm_target((j + (s + 0.5) / 10) / 100) for every seed, so the 1000 sizes
    are all distinct and evenly spread; the seed picks the moduli (their
    product within a few percent of that size), starts and residues."""
    rng = random.Random(seed)
    ops = []
    for kind in range(10):
        for j in range(100):
            target = lcm_target((j + (kind + 0.5) / 10) / 100)
            ops.append(_coprime_op(rng, kind, j, target))
    rng.shuffle(ops)
    return ops


def _coprime_op(rng, kind, j, target):
    if kind <= 5:
        k = 3 if kind == 3 and target >= 1000 else 1 if kind == 0 and j % 2 else 2
        ms = _coprime_moduli(rng, k, target)
        progs = [(rng.randint(1, m) if rng.random() < 0.8 else rng.randint(1, 5 * m), m) for m in ms]
        texts = [_ap(a, d) for a, d in progs]
        if kind == 4:
            text, member = " | ".join(texts), (lambda r: r != 0)
        elif kind == 5:
            text, member = f"{texts[0]} \\ {texts[1]}", (lambda r: r == 1)
        else:
            full = (1 << len(progs)) - 1
            text, member = " & ".join(texts), (lambda r: r == full)
        return Op(f"card({text})", want_card(*gc.formula_card(progs, member)), _decade(math.prod(ms)))
    if kind == 6:
        # a prime modulus: the divisor scan of nat_subset then costs O(m)
        m = _prime_from(_near(rng, target))
        a = rng.randint(1, 20)
        text = f"N \\ {_ap(a, m)}" if j % 2 else f"~{_ap(a, m)}"
        return Op(f"card({text})", want_card(*gc.formula_card([(a, m)], lambda r: r == 0)), "compl:" + _decade(m))
    if kind == 7:
        # prime too: for ap(1, m) the divisor scan costs the divisor sum of m
        m = _prime_from(_near(rng, target))
        return Op(f"card(ap(1, {m}))", want_card(Fraction(1, m), 0), _decade(m))
    if kind == 8:
        # a far start stores first/step skipped elements explicitly
        d = 2 + j % 11
        first = _near(rng, target * d)
        return Op(f"card({_ap(first, d)})", want_card(*gc.crt_card([(first, d)])), "far:" + _decade(first // d))
    ms = _coprime_moduli(rng, 2, target)
    progs = [(rng.randint(1, m), m) for m in ms]
    count = rng.randint(1, 5)
    if j % 2:
        r, M = gc.crt([(a % d, d) for a, d in progs])
        start = max(a for a, _ in progs)
        x = start + (r - start) % M
        expected = [x + i * M for i in range(count)]
        text = " & ".join(_ap(a, d) for a, d in progs)
    else:
        expected = sorted({a + i * d for a, d in progs for i in range(count)})[:count]
        text = " | ".join(_ap(a, d) for a, d in progs)
    return Op(f"members({text}, {count})", want_members(expected), _decade(math.prod(ms)))


# --------------------------------------------------------------------------
# oracle_sweep


def random_recipe(rng, depth=4):
    """A random set recipe in the style of `gc check`: moduli <= 12,
    explicit elements <= 200, up to four levels of set algebra."""
    if depth <= 0 or rng.random() < 0.4:
        kind = rng.randrange(3)
        if kind == 0:
            step = rng.randint(1, 12)
            return ("ap", rng.randint(1, 200), step)
        if kind == 1:
            return ("fin", tuple(sorted({rng.randint(1, 200) for _ in range(rng.randint(0, 5))})))
        return ("N",)
    kind = rng.randrange(4)
    if kind == 3:
        return ("compl", random_recipe(rng, depth - 1))
    op = ("union", "intersect", "difference")[kind]
    return (op, random_recipe(rng, depth - 1), random_recipe(rng, depth - 1))


def recipe_text(r) -> str:
    if r[0] == "ap":
        return f"ap({r[1]}, {r[2]})"
    if r[0] == "fin":
        return "{" + ", ".join(str(e) for e in r[1]) + "}"
    if r[0] == "N":
        return "N"
    if r[0] == "compl":
        return f"~{recipe_text(r[1])}"
    sym = {"union": "|", "intersect": "&", "difference": "\\"}[r[0]]
    return f"({recipe_text(r[1])} {sym} {recipe_text(r[2])})"


def recipe_shape(r):
    """(period, threshold): membership repeats with the period beyond it."""
    if r[0] == "ap":
        return r[2], r[1]
    if r[0] == "fin":
        return 1, max(r[1], default=0)
    if r[0] == "N":
        return 1, 0
    parts = [recipe_shape(x) for x in r[1:]]
    return math.lcm(*(p for p, _ in parts)), max(t for _, t in parts)


def recipe_members(r, upto: int) -> set:
    """The recipe's members in 1..upto, from its defining predicate."""
    if r[0] == "ap":
        return set(range(r[1], upto + 1, r[2]))
    if r[0] == "fin":
        return {e for e in r[1] if e <= upto}
    if r[0] == "N":
        return set(range(1, upto + 1))
    if r[0] == "compl":
        return set(range(1, upto + 1)) - recipe_members(r[1], upto)
    a, b = recipe_members(r[1], upto), recipe_members(r[2], upto)
    return a | b if r[0] == "union" else a & b if r[0] == "intersect" else a - b


def recipe_counter(r):
    """count(L) for the recipe in 1..L, for L = a multiple of its period."""
    period, threshold = recipe_shape(r)
    base = -(-max(threshold, 1) // period) * period
    members = sorted(recipe_members(r, base + period))
    below = sum(1 for x in members if x <= base)
    per = len(members) - below

    def count(L: int) -> int:
        if L % period:
            raise AssertionError(f"L={L} is not a multiple of the period {period}")
        if L <= base + period:
            return sum(1 for x in members if x <= L)
        return below + (L - base) // period * per

    return count


def want_reports(recipe):
    count = recipe_counter(recipe)

    def check(outcome):
        if outcome[0] != "reports":
            return f"expected oracle reports, got {outcome}"
        reports = outcome[1]
        if len(reports) != 3:
            return f"expected 3 admissible points, got {len(reports)}"
        first = reports[0][0]
        if [r[0] for r in reports] != [first, 2 * first, 3 * first]:
            return f"points are not L, 2L, 3L: {[r[0] for r in reports]}"
        for L, symbolic, brute, match in reports:
            try:
                mine = count(L)
            except AssertionError as err:
                return str(err)
            if not (match and symbolic == brute == mine):
                return f"L={L}: symbolic {symbolic}, brute {brute}, predicate count {mine}"
        return None

    return check


def _children(r):
    return [x for x in r[1:] if isinstance(x, tuple) and x and isinstance(x[0], str)]


def recipe_nodes(r) -> int:
    return 1 + sum(recipe_nodes(x) for x in _children(r))


def walked_periods(r) -> int:
    """Residue positions the set operations of one build walk, about."""
    own = recipe_shape(r)[0] if r[0] in ("union", "intersect", "difference", "compl") else 0
    return own + sum(walked_periods(x) for x in _children(r))


def first_point(r) -> int:
    """The first admissible substitution point, from the predicate alone:
    the first multiple of the period beyond ten times the largest exception,
    an exception being a number whose membership differs from the periodic
    pattern."""
    period, threshold = recipe_shape(r)
    base = -(-max(threshold, 1) // period) * period
    members = recipe_members(r, 2 * base)
    ceiling = max((x for x in range(1, base + 1) if (x in members) != (x + base in members)), default=0)
    return period * -(-max(2, 10 * ceiling + 1) // period)


def _density_work(r):
    """(density, elements touched per unit of L) of extensional enumeration."""
    kind = r[0]
    if kind == "ap":
        return 1 / r[2], 1 / r[2]
    if kind == "fin":
        return 0.0, 0.0
    if kind == "N":
        return 1.0, 1.0
    if kind == "compl":
        d, w = _density_work(r[1])
        return 1 - d, w + 1 + d
    (a, wa), (b, wb) = _density_work(r[1]), _density_work(r[2])
    if kind == "union":
        return a + b - a * b, wa + wb + a + b
    if kind == "intersect":
        return a * b, wa + wb + min(a, b)
    return a * (1 - b), wa + wb + a


def oracle_cost(r) -> float:
    """Cost proxy in microseconds, weights fitted on timings: brute counting
    at L, 2L, 3L, the period walks of four builds, and a per-node cost."""
    return (0.34 * first_point(r) * _density_work(r)[1] + 2.7 * walked_periods(r)
            + 50 * recipe_nodes(r))


def sweep_recipe(rng):
    """A `gc check` recipe with period <= 360.  About 1.4% of the generator's
    recipes have a larger period; they are redrawn, because large periods
    are coprime_sets' subject and those few recipes alone would decide this
    workload's p99, differently for every seed."""
    while True:
        r = random_recipe(rng)
        if recipe_shape(r)[0] <= 360:
            return r


def oracle_sweep(seed: int):
    rng = random.Random(seed)
    recipes = quota_sample(rng, sweep_recipe, oracle_cost, 2000)
    return [Op(recipe_text(r), want_reports(r), spec=r) for r in recipes]


# --------------------------------------------------------------------------
# repl_mix

# Paper and README examples, with values written out by hand from the paper.
PAPER = [
    ("card(ap(2,2))", want_count("G/2")),
    ("card(ap(1,2))", want_count("G/2")),
    ("card(N \\ {7})", want_count("G - 1")),
    ("card(N)", want_count("G")),
    ("card(Z)", want_count("2*G + 1")),
    ("card(ap(3,3))", want_count("G/3")),
    ("let B1 = ap(4,5)", want_text("set", "ap(4, 5)")),
    ("card({3,4,5,69} | (B1 & ap(3,11)))", want_count("G/55 + 3")),
    ("card({3,4,5,69} | (ap(4,5) & ap(3,11)))", want_count("G/55 + 3")),
    ("card({0} | N)", want_count("G + 1")),
    ("prodcard(N, N)", want_count("G^2")),
    ("2^G < 10^G", want_bool("true")),
    ("G^2 > 10^G", want_bool("false")),
    ("numerals(10, G)", want_count("10^G")),
    ("numerals(2, G)", want_count("2^G")),
    ("signedcount(10)", want_count("2*10^(2*G)")),
    ("floatcount(10)", want_count("4*10^(2*G)")),
    ("numerals(10, crit(10, G)) < G/2", want_error("Undetermined")),
    ("numerals(10, crit(10, G)) <= G", want_bool("true")),
    ("numerals(10, crit(10, G) + 1) > G", want_bool("true")),
    ("observe(piraha, card(N))", want_text("observation", "many")),
    ("observe(piraha, 2)", want_text("observation", "2")),
    ("observe(piraha, 3)", want_text("observation", "many")),
    ("wadd(piraha, many, 2)", want_text("token", "many")),
    ("wadd(piraha, 2, 2)", want_text("token", "many")),
    ("wadd(cantor, C, aleph0)", want_text("token", "C")),
    ("observe(cantor, G^2)", want_text("observation", "aleph0")),
    ("observe(cantor, 10^G)", want_text("observation", "C")),
    ("observe(calculus, G + 1)", want_text("observation", "inf")),
    ("observe(grossone, G - 1)", want_text("observation", "G - 1")),
    ("distinct(calculus, G, G + 1)", want_bool("false")),
    ("distinct(grossone, G, G + 1)", want_bool("true")),
    ("succ(num(10, G))", want_numeral(10, "G", "", "", "1")),
    ("2^G - 3^G", want_error("UnsupportedSum")),
    ("subst(G^2 + 1, 7)", want_count("50")),
    ("members(ap(3,7), 5)", want_members([3, 10, 17, 24, 31])),
]

SYSTEMS = ("piraha", "munduruku", "calculus", "cantor", "grossone")
LADDER = {
    "piraha": ("many",),
    "munduruku": ("some_not_many", "many_really_many"),
    "calculus": ("inf",),
    "cantor": ("aleph0", "C"),
    "grossone": (),
}
EXACT_LIMIT = {"piraha": 2, "munduruku": 5}
MUNDURUKU_ESTIMATE_LIMIT = 100


def observed(system: str, count: str):
    """What a counting system says for a count, following the paper: Piraha
    has 1, 2 and "many"; Munduruku counts to 5, then "some, not many" up to
    an estimation limit, then "many, really many"; calculus has one infinity;
    Cantor separates countable (polynomial in G, or bounded by a polynomial)
    from the continuum (b^P with infinite P); grossone is exact."""
    value = gc.nf_text(count)
    finite = gc.as_const(value)
    if system == "grossone":
        return ("exact", count)
    if finite is not None:
        n = int(finite)
        if system in EXACT_LIMIT and n > EXACT_LIMIT[system]:
            if system == "piraha":
                return ("name", "many")
            return ("name", "some_not_many" if n <= MUNDURUKU_ESTIMATE_LIMIT else "many_really_many")
        return ("exact", str(n))
    return ("name", {"piraha": "many", "munduruku": "many_really_many", "calculus": "inf",
                     "cantor": "C" if any(k[0] == "x" for k in value) else "aleph0"}[system])


def want_observation(system, count):
    kind, text = observed(system, count)
    if kind == "name":
        return want_text("observation", text)
    return want_count_as("observation", text)


def want_count_as(type_, text):
    """An exact token: its text must denote the count `text`."""
    want_nf = gc.nf_text(text)

    def check(outcome):
        if outcome[0] != "value" or outcome[2] != type_:
            return f"expected {type_} {text!r}, got {outcome}"
        return None if gc.nf_text(outcome[1]) == want_nf else f"expected {text!r}, got {outcome[1]!r}"

    return check


def repl_recipe(rng, depth=3):
    """A small set recipe for the session: moduli <= 12, elements <= 60."""
    if depth <= 0 or rng.random() < 0.45:
        kind = rng.randrange(5)
        if kind <= 2:
            return ("ap", rng.randint(1, 30), rng.randint(1, 12))
        if kind == 3:
            return ("fin", tuple(sorted({rng.randint(1, 60) for _ in range(rng.randint(1, 4))})))
        return ("N",)
    kind = rng.randrange(4)
    if kind == 3:
        return ("compl", repl_recipe(rng, depth - 1))
    op = ("union", "intersect", "difference")[kind]
    return (op, repl_recipe(rng, depth - 1), repl_recipe(rng, depth - 1))


def set_recipe(rng, depth=3):
    """A session recipe with period <= 360.  The period bound keeps every
    line cheap (large periods are coprime_sets' subject), and for set-valued
    lines it matters twice: a rendered set lists one ap(...) per residue
    class, and re-entering a rendering of about 1000 classes overflows the
    recursion of gclang.evaluate (a program fault that depends on the seed,
    so it is left out of the workload)."""
    while True:
        r = repl_recipe(rng, depth)
        if recipe_shape(r)[0] <= 360:
            return r


def repl_cost(r) -> int:
    """Every node costs a parse, an evaluation and a canonicalization; set
    operations also walk their period."""
    return 20 * recipe_nodes(r) + walked_periods(r)


def recipe_card(r):
    period, threshold = recipe_shape(r)
    members = recipe_members(r, -(-max(threshold, 1) // period) * period + period)
    return gc.periodic_card(members.__contains__, period, threshold)


def _window(r):
    period, threshold = recipe_shape(r)
    return threshold + 2 * period


def fault_ops():
    """Inputs that end in a Python exception instead of a value or a typed
    refusal: the 4300-digit int/str limit (Python >= 3.11) and parser
    recursion.  They do not depend on the seed."""
    return [
        Op("2^20000", None, "fault:int-str", fault=True),
        Op("1" * 5000, None, "fault:int-str", fault=True),
        Op("subst(10^G, 5000)", None, "fault:int-str", fault=True),
        Op("(" * 3000 + "1" + ")" * 3000, None, "fault:nesting", fault=True),
    ]


def repl_mix(seed: int):
    rng = random.Random(seed)
    paper = [Op(text, check, "paper") for text, check in PAPER]
    units = []  # shuffled as units, so a let stays right before its use

    def add(text, check, tag=""):
        units.append([Op(text, check, tag)])

    # set counts and set values, with let bindings reused later
    for r in quota_sample(rng, set_recipe, repl_cost, 300):
        add(f"card({recipe_text(r)})", want_card(*recipe_card(r)), "card")
    for i, r in enumerate(quota_sample(rng, set_recipe, repl_cost, 120)):
        name = f"S{i % 8}"
        hi = _window(r)
        members = recipe_members(r, hi)
        let = Op(f"let {name} = {recipe_text(r)}", want_set("set", members.__contains__, 1, hi), "let")
        if i % 2:
            use = Op(f"card({name})", want_card(*recipe_card(r)), "card")
        else:
            k = rng.randint(1, 6)
            use = Op(f"members({name}, {k})", want_members(_members_beyond(r, k)), "members")
        units.append([let, use])
    for r in quota_sample(rng, lambda g: set_recipe(g, 2), repl_cost, 40):
        hi = _window(r)
        members = recipe_members(r, hi)
        add(f"mirror({recipe_text(r)})", want_set("signed_set", lambda x, m=members: x < 0 and -x in m, -hi, hi), "mirror")
    for i in range(40):
        r1, r2 = repl_recipe(rng, 1), repl_recipe(rng, 1)
        (c1, k1), (c2, k2) = recipe_card(r1), recipe_card(r2)
        expected = f"({gc.card_text(c1, k1)}) * ({gc.card_text(c2, k2)})"
        add(f"prodcard({recipe_text(r1)}, {recipe_text(r2)})", want_count(expected), "prodcard")
    # arithmetic and comparisons on small counts
    for i in range(270):
        a, b = poly(rng, 1 + i % 3, range(0, 4)), poly(rng, 1 + (i // 3) % 3, range(0, 4))
        op = (i // 9) % 5
        text = (f"({a}) + ({b})", f"({a}) - ({b})", f"({a}) * ({b})",
                f"({a}) / {term(rng.randint(1, 6), rng.randint(0, 2))}",
                f"({a})^{rng.randint(0, 3)}")[op]
        add(text, want_count(text), "arith")
    for i in range(150):
        a, b = poly(rng, 1 + i % 3, range(0, 4)), poly(rng, 1 + (i // 3) % 3, range(0, 4))
        op = rng.choice(["<", "<=", "==", ">=", ">"])
        add(f"{a} {op} {b}", want_bool(gc.verdict(op, a, b)), "cmp")
    for i in range(50):
        b1, b2 = rng.sample([2, 3, 5, 10], 2)
        add(f"{b1}^G < {b2}^G", want_bool("true" if b1 < b2 else "false"), "cmp")
    # numeral counts and critical lengths
    for i in range(60):
        b = rng.randint(2, 16)
        n = rng.choice([term(rng.randint(1, 3), 1), "G/2", str(rng.randint(1, 30))])
        add(f"numerals({b}, {n})", want_count(f"{b}^({n})"), "numerals")
    for i in range(40):
        b = rng.randint(2, 16)
        if i % 2:
            add(f"signedcount({b})", want_count(f"2*{b}^(2*G)"), "numerals")
        else:
            add(f"floatcount({b})", want_count(f"4*{b}^(2*G)"), "numerals")
    for i in range(60):
        b, c = rng.randint(2, 16), rng.randint(1, 9)
        target = term(c, 1) if i % 3 else f"{term(c, 2)} + {rng.randint(1, 9)}"
        if i % 2:
            add(f"critical({b}, {target})", want_critical(b, target), "crit")
        else:
            add(f"crit({b}, {target})", want_crit(b, target), "crit")
    # sparse numerals and their successor chain
    for i in range(160):
        b = rng.randint(2, 10)
        length = rng.choice(["G", "2*G", "G/2"])
        head = "".join(str(rng.randrange(b)) for _ in range(rng.randint(0, 3)))
        tail = "".join(str(rng.randrange(b)) for _ in range(rng.randint(0, 3)))
        sign = rng.choice(["", "", "-"])
        fields = [f'head: "{head}"', f'tail: "{tail}"'] + ([f'sign: "{sign}"'] if sign else [])
        num = f"num({b}, {length}){{{', '.join(fields)}}}"
        h, t = head.rstrip("0"), tail.lstrip("0")
        shape = i % 4
        if shape == 0:
            add(num, want_numeral(b, length, sign, h, t), "numeral")
        elif shape == 1:
            add(f"succ({num})", want_numeral(b, length, sign, h, gc.digits_succ(t, b)), "numeral")
        elif shape == 2:
            if t:
                add(f"pred({num})", want_numeral(b, length, sign, h, gc.digits_pred(t, b)), "numeral")
            else:
                add(f"pred({num})", want_error("Underflow"), "numeral")
        else:
            k = rng.randint(2, 6)
            tails = [""]
            for _ in range(k - 1):
                tails.append(gc.digits_succ(tails[-1], b))
            add(f"first({b}, {length}, {k})", want_numerals(b, length, tails), "numeral")
    for i in range(20):
        b = rng.randint(2, 10)
        add(f"succ(num({b}, G)) > num({b}, G)", want_bool("true"), "numeral")
    # counting systems
    counts = ["0", "1", "2", "3", "5", "6", "40", "150", "G", "G/2 + 1", "G^2", "2^G", "10^(2*G)"]
    for i in range(80):
        system, count = rng.choice(SYSTEMS), rng.choice(counts)
        add(f"observe({system}, {count})", want_observation(system, count), "observer")
    for i in range(40):
        system = rng.choice(SYSTEMS[:4])
        ladder = LADDER[system]
        limit = EXACT_LIMIT.get(system, 9)
        a = rng.choice([str(rng.randint(0, limit)), rng.choice(ladder)])
        b = str(rng.randint(0, limit))
        if a in ladder:
            check = want_text("token", a)
        else:
            kind, text = observed(system, str(int(a) + int(b)))
            check = want_text("token", text) if kind == "name" else want_count_as("token", text)
        add(f"wadd({system}, {a}, {b})", check, "observer")
    for i in range(40):
        system = rng.choice(SYSTEMS)
        u, v = rng.sample(counts[1:], 2)
        add(f"distinct({system}, {u}, {v})",
            want_bool("true" if observed(system, u) != observed(system, v) else "false"), "observer")
    # finite substitution
    for i in range(60):
        p = poly(rng, rng.randint(1, 3), range(0, 4))
        L = rng.randint(2, 60)
        add(f"subst({p}, {L})", want_count(str(gc.at(gc.parse(p), L))), "subst")
    # typed refusals
    refusals = [
        ("card(5)", "EvalError"),
        ("undefined_name + 1", "UnboundIdentifier"),
        ("card(ap(1,2)", "ParseError"),
        ("1/0", "DivisionByZero"),
        ("(G + 1) / (G + 2)", "NonExactDivision"),
        ("2^G * 3^G", "UnsupportedProduct"),
        ("-(2^G)", "UnsupportedSum"),
        ("ap(0, 2)", "EvalError"),
        ("pred(num(2, G))", "Underflow"),
        ("crit(10, 5)", "NotInfinite"),
        ("observe(piraha, 0 - 1)", "NegativeCount"),
        ("observe(piraha, 1/2)", "NonIntegralCount"),
        ("wadd(piraha, aleph0, 1)", "ForeignToken"),
        ("num(10, G) < num(2, G)", "IncomparableSystems"),
        ("succ(num(2, 3){head: \"111\"})", "Overflow"),
        ("2^(1/2)", "NonIntegerExponent"),
        ("numerals(10, crit(10, G)) < G/2", "Undetermined"),
        ("G^2/2 < numerals(10, crit(10, G^2)) * 2", "Undetermined"),
        ("2^G + 3^G", "UnsupportedSum"),
        ("1 < 2 < 3", "ParseError"),
    ]
    for i in range(60):
        text, kind = refusals[i % len(refusals)]
        add(text, want_error(kind), "refusal")
    # parenthesis nesting series, below the interpreter's recursion limit
    # for the recursive-descent parser: depths 1, 6, ..., 61 for the scaling
    # curve, then every depth 64..100; the latter are the costliest lines of
    # the round, so the p99 sits inside one smooth series
    for depth in list(range(1, 62, 5)) + list(range(64, 101)):
        k = rng.randint(1, 9)
        add("(" * depth + f"G + {k}" + ")" * depth, want_count(f"G + {k}"), f"nesting:{depth}")
    units.extend([op] for op in fault_ops())
    rng.shuffle(units)
    return paper + [op for unit in units for op in unit]


def _members_beyond(r, k):
    period, threshold = recipe_shape(r)
    hi = threshold + (k + 2) * period
    members = recipe_members(r, hi)
    return gc.first_members(members.__contains__, k, hi)

