"""Reference computations for checking grosscalc outputs.

Nothing here imports grosscalc.  The module reads the calculator's own text
syntax with a parser of its own and answers every question a different way
from the program:

* ``at(node, L)``: exact ``Fraction`` value with the infinite unit ``G``
  replaced by the integer ``L`` (the substitution ``G := L``);
* ``nf(node)``: a symbolic normal form (a dict of terms), so two texts can
  be compared for equality and order with no substitution point at all;
* ``set_pred(node)``: a membership predicate for set texts;
* ``crt_card`` / ``formula_card``: closed-form counts of progressions and of
  boolean combinations of them, by the Chinese remainder theorem and
  inclusion-exclusion;
* ``periodic_card``: the count of a set given only a membership predicate
  and a period, by counting one threshold window and one period.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import combinations

# --------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(①)|(<=|>=|==|[-()+*/^,{}|&\\~<>]))")


class CheckError(Exception):
    """The reference side cannot evaluate this text (not a program fault)."""


def big_int(digits: str) -> int:
    """int(digits) for any length; the interpreter's str->int limit is not
    lifted, because lifting it would also lift it for the program."""
    value = 0
    for i in range(0, len(digits), 4000):
        chunk = digits[i : i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def tokenize(text: str):
    toks, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise CheckError(f"cannot read {text[pos:pos + 20]!r}")
        pos = m.end()
        if m.group(1):
            toks.append(("int", m.group(1)))
        elif m.group(2):
            toks.append(("id", m.group(2)))
        elif m.group(3):
            toks.append(("id", "G"))
        else:
            toks.append(("op", m.group(4)))
    toks.append(("end", ""))
    return toks


class _Parser:
    def __init__(self, text):
        self.toks = tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def at(self, *ops):
        t = self.peek()
        return t[0] == "op" and t[1] in ops

    def want(self, op):
        if not self.at(op):
            raise CheckError(f"expected {op!r}, got {self.peek()!r}")
        self.take()

    def top(self):
        node = self.expr()
        if self.peek()[0] != "end":
            raise CheckError(f"trailing {self.peek()!r}")
        return node

    def expr(self):
        left = self.union()
        if self.at("<", "<=", "==", ">=", ">"):
            op = self.take()[1]
            return ("cmp", op, left, self.union())
        return left

    def union(self):
        node = self.inter()
        while self.at("|", "\\"):
            op = self.take()[1]
            node = ("bin", op, node, self.inter())
        return node

    def inter(self):
        node = self.sum()
        while self.at("&"):
            self.take()
            node = ("bin", "&", node, self.sum())
        return node

    def sum(self):
        node = self.product()
        while self.at("+", "-"):
            op = self.take()[1]
            node = ("bin", op, node, self.product())
        return node

    def product(self):
        node = self.prefix()
        while self.at("*", "/"):
            op = self.take()[1]
            node = ("bin", op, node, self.prefix())
        return node

    def prefix(self):
        if self.at("-", "~"):
            op = self.take()[1]
            return ("neg" if op == "-" else "compl", self.prefix())
        return self.power()

    def power(self):
        base = self.atom()
        if self.at("^"):
            self.take()
            return ("bin", "^", base, self.prefix())
        return base

    def atom(self):
        kind, text = self.take()
        if kind == "int":
            return ("int", big_int(text))
        if kind == "id":
            if self.at("("):
                self.take()
                args = []
                if not self.at(")"):
                    args.append(self.expr())
                    while self.at(","):
                        self.take()
                        args.append(self.expr())
                self.want(")")
                return ("call", text, tuple(args))
            return ("name", text)
        if kind == "op" and text == "(":
            node = self.expr()
            self.want(")")
            return node
        if kind == "op" and text == "{":
            elems = []
            if not self.at("}"):
                elems.append(self.expr())
                while self.at(","):
                    self.take()
                    elems.append(self.expr())
            self.want("}")
            return ("setlit", tuple(elems))
        raise CheckError(f"unexpected {text!r}")


def parse(text: str):
    return _Parser(text).top()


# --------------------------------------------------------------------------
# substitution G := L with exact rationals

BIT_CAP = 200_000


def _power(base: Fraction, exp: Fraction) -> Fraction:
    if exp.denominator != 1:
        raise CheckError(f"non-integer exponent {exp}")
    k = int(exp)
    size = max(abs(base.numerator), base.denominator).bit_length()
    if abs(k) * max(size, 1) > BIT_CAP:
        raise CheckError(f"power too large: {size} bits ^ ({k.bit_length()}-bit exponent)")
    if base == 0 and k < 0:
        raise CheckError("zero to a negative power")
    return base**k


def int_log_floor(base: int, n: int) -> int:
    """floor(log_base(n)) for n >= 1 by repeated division."""
    if n < 1:
        raise CheckError(f"log of {n}")
    k = 0
    while n >= base:
        n //= base
        k += 1
    return k


def at(node, L) -> Fraction:
    """Exact value of a count text with G := L."""
    kind = node[0]
    if kind == "int":
        return Fraction(node[1])
    if kind == "name":
        if node[1] == "G":
            return Fraction(L)
        raise CheckError(f"unknown name {node[1]}")
    if kind == "neg":
        return -at(node[1], L)
    if kind == "bin":
        op, a, b = node[1], at(node[2], L), at(node[3], L)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0:
                raise CheckError("division by zero")
            return a / b
        if op == "^":
            return _power(a, b)
    if kind == "call":
        name, args = node[1], node[2]
        if name == "crit":
            base, target = at(args[0], L), at(args[1], L)
            if target.denominator != 1 or base.denominator != 1:
                raise CheckError("crit of a non-integer")
            return Fraction(int_log_floor(int(base), int(target)))
        if name == "numerals":
            return _power(at(args[0], L), at(args[1], L))
        if name == "signedcount":
            return 2 * _power(at(args[0], L), Fraction(2 * L))
        if name == "floatcount":
            return 4 * _power(at(args[0], L), Fraction(2 * L))
        if name == "subst":
            point = at(args[1], L)
            return at(args[0], int(point))
        if name == "prodcard":
            raise CheckError("prodcard is checked through set counts")
    raise CheckError(f"cannot substitute into {node[0]} {node[1]!r}")


def agree_at(a_text: str, b_text: str, points) -> list:
    """The points where both texts evaluate, after checking they agree there.

    Returns the list of points used; raises AssertionError on disagreement.
    """
    a, b = parse(a_text), parse(b_text)
    used = []
    for L in points:
        try:
            va, vb = at(a, L), at(b, L)
        except CheckError:
            continue
        if va != vb:
            raise AssertionError(f"G := {L}: {a_text} = {va} but {b_text} = {vb}")
        used.append(L)
    return used


# --------------------------------------------------------------------------
# symbolic normal form
#
# A value is a dict {key: Fraction}, no zero coefficients.  Keys:
#   ("g", E)     c * G^E           E a frozen normal form
#   ("x", b, E)  c * b^E           E frozen, without constant term
#   ("c", b, M)  c * b^crit(b, M)  M frozen
#   ("k", b, M)  c * crit(b, M)    (only inside exponents)

ZERO_F = frozenset()


def freeze(d) -> frozenset:
    return frozenset(d.items())


def const(c) -> dict:
    c = Fraction(c)
    return {("g", ZERO_F): c} if c else {}


G_NF = {("g", freeze(const(1))): Fraction(1)}


def nf_add(a, b) -> dict:
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def nf_scale(a, c) -> dict:
    c = Fraction(c)
    return {k: v * c for k, v in a.items()} if c else {}


def nf_neg(a) -> dict:
    return nf_scale(a, -1)


def as_const(a):
    """The rational value of a constant normal form, else None."""
    if not a:
        return Fraction(0)
    if len(a) == 1 and ("g", ZERO_F) in a:
        return a[("g", ZERO_F)]
    return None


def _exp_of(base: int, exponent: dict) -> dict:
    """base^exponent with the exponent's constant folded into the coefficient."""
    c0 = exponent.get(("g", ZERO_F), Fraction(0))
    rest = {k: v for k, v in exponent.items() if k != ("g", ZERO_F)}
    if c0.denominator != 1:
        raise CheckError("non-integer constant in an exponent")
    coeff = Fraction(base) ** int(c0)
    if not rest:
        return const(coeff)
    if len(rest) == 1:
        (key, v), = rest.items()
        if key[0] == "k" and v == 1 and key[1] == base:
            return {("c", base, key[2]): coeff}
    return {("x", base, freeze(rest)): coeff}


def _mul_keys(k1, k2):
    """(coefficient factor, key) of the product of two unit terms."""
    if k1 == ("g", ZERO_F):
        return Fraction(1), k2
    if k2 == ("g", ZERO_F):
        return Fraction(1), k1
    if k1[0] == "g" and k2[0] == "g":
        return Fraction(1), ("g", freeze(nf_add(dict(k1[1]), dict(k2[1]))))
    if k1[0] == "x" and k2[0] == "x" and k1[1] == k2[1]:
        (key, c), = _exp_of(k1[1], nf_add(dict(k1[2]), dict(k2[2]))).items()
        return c, key
    raise CheckError(f"no reference product for {k1[0]} * {k2[0]}")


def nf_mul(a, b) -> dict:
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            f, key = _mul_keys(k1, k2)
            out = nf_add(out, {key: c1 * c2 * f})
    return out


def nf_div(a, b) -> dict:
    c = as_const(b)
    if c is not None:
        if c == 0:
            raise CheckError("division by zero")
        return nf_scale(a, 1 / c)
    if len(b) != 1:
        raise CheckError("division by a sum")
    (kb, cb), = b.items()
    out = {}
    for ka, ca in a.items():
        if kb[0] == "g" and ka[0] == "g":
            key = ("g", freeze(nf_add(dict(ka[1]), nf_neg(dict(kb[1])))))
            out = nf_add(out, {key: ca / cb})
        elif kb[0] == "x" and ka[0] == "x" and ka[1] == kb[1]:
            term = _exp_of(ka[1], nf_add(dict(ka[2]), nf_neg(dict(kb[2]))))
            out = nf_add(out, nf_scale(term, ca / cb))
        else:
            raise CheckError("no reference quotient")
    return out


def nf_pow(a, e) -> dict:
    k = as_const(e)
    if k is not None and k.denominator == 1 and k >= 0:
        if k > 600:
            raise CheckError("power too large")
        out = const(1)
        for _ in range(int(k)):
            out = nf_mul(out, a)
        return out
    c = as_const(a)
    if c is not None and c.denominator == 1 and c >= 2:
        return _exp_of(int(c), e)
    if len(a) == 1:
        (key, coeff), = a.items()
        if key[0] == "g" and coeff == 1:
            return {("g", freeze(nf_mul(dict(key[1]), e))): Fraction(1)}
    raise CheckError("no reference power")


def nf(node) -> dict:
    """Symbolic normal form of a count text."""
    kind = node[0]
    if kind == "int":
        return const(node[1])
    if kind == "name":
        if node[1] == "G":
            return dict(G_NF)
        raise CheckError(f"unknown name {node[1]}")
    if kind == "neg":
        return nf_neg(nf(node[1]))
    if kind == "bin":
        op, a, b = node[1], nf(node[2]), nf(node[3])
        if op == "+":
            return nf_add(a, b)
        if op == "-":
            return nf_add(a, nf_neg(b))
        if op == "*":
            return nf_mul(a, b)
        if op == "/":
            return nf_div(a, b)
        if op == "^":
            return nf_pow(a, b)
    if kind == "call":
        name, args = node[1], node[2]
        if name == "crit":
            base = as_const(nf(args[0]))
            return {("k", int(base), freeze(nf(args[1]))): Fraction(1)}
        if name == "numerals":
            return nf_pow(nf(args[0]), nf(args[1]))
        if name in ("signedcount", "floatcount"):
            base = int(as_const(nf(args[0])))
            factor = 2 if name == "signedcount" else 4
            return nf_scale(_exp_of(base, nf_scale(G_NF, 2)), factor)
    raise CheckError(f"no normal form for {node[0]} {node[1]!r}")


def nf_text(text: str) -> dict:
    return nf(parse(text))


# order of normal forms as G grows without bound


class Undecided(Exception):
    """Only sandwich bounds are known and they do not separate the values."""


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _cmp_exp(e1: frozenset, e2: frozenset) -> int:
    return nf_sign(nf_add(dict(e1), nf_neg(dict(e2))))


def _lead(terms):
    """The ("g", E) term with the largest exponent."""
    best = None
    for key, c in terms:
        if best is None or _cmp_exp(key[1], best[0][1]) > 0:
            best = (key, c)
    return best


def _cmp_growth(k1, k2) -> int:
    """Compare b1^E1 with b2^E2 for infinite exponents."""
    if k1[1] == k2[1]:
        return _cmp_exp(k1[2], k2[2])
    l1 = _lead(list(dict(k1[2]).items()))
    l2 = _lead(list(dict(k2[2]).items()))
    ce = _cmp_exp(l1[0][1], l2[0][1])
    if ce:
        return ce
    c1, c2 = l1[1], l2[1]
    # b1^c1 vs b2^c2 with rational c: raise both to the common denominator
    lhs = k1[1] ** (c1.numerator * c2.denominator)
    rhs = k2[1] ** (c2.numerator * c1.denominator)
    if lhs != rhs:
        return _sign(lhs - rhs)
    raise CheckError("growth tie between different bases")


def nf_sign(a) -> int:
    """Sign of a value once G is infinite.  Raises Undecided for sandwiches."""
    if not a:
        return 0
    xs = [(k, c) for k, c in a.items() if k[0] == "x"]
    if xs:
        top = xs[0]
        for k, c in xs[1:]:
            if _cmp_growth(k, top[0]) > 0:
                top = (k, c)
        return _sign(top[1])
    cs = [(k, c) for k, c in a.items() if k[0] == "c"]
    gs = {k: c for k, c in a.items() if k[0] == "g"}
    if cs:
        if len(cs) != 1:
            raise CheckError("several critical powers")
        (key, c), = cs
        base, target = key[1], dict(key[2])
        # c * b^crit(b, M) lies in (c*M/b, c*M] for c > 0
        hi = nf_add(nf_scale(target, c), gs)
        lo = nf_add(nf_scale(target, c / base), gs)
        if c < 0:
            lo, hi = hi, lo
        if nf_sign(lo) >= 0 and (c > 0 or nf_sign(lo) > 0):
            return 1
        if nf_sign(hi) <= 0 and (c < 0 or nf_sign(hi) < 0):
            return -1
        raise Undecided()
    if any(k[0] == "k" for k in a):
        raise CheckError("bare critical length in an order")
    return _sign(_lead(list(gs.items()))[1])


def verdict(op: str, left: str, right: str):
    """Expected output of `left op right`: "true", "false" or "Undetermined"."""
    try:
        s = nf_sign(nf_add(nf_text(left), nf_neg(nf_text(right))))
    except Undecided:
        return "Undetermined"
    return "true" if {"<": s < 0, "<=": s <= 0, "==": s == 0, ">=": s >= 0, ">": s > 0}[op] else "false"


# --------------------------------------------------------------------------
# set counts


def crt(congruences):
    """Merge x = a_i (mod m_i) into one class (r, M), or None if empty."""
    r, M = 0, 1
    for a, m in congruences:
        g = math.gcd(M, m)
        if (a - r) % g:
            return None
        step = M // g
        # r + M*t = a (mod m)  ->  t = (a - r)/g * inv(step) mod m/g
        mod = m // g
        t = ((a - r) // g * pow(step, -1, mod)) % mod if mod > 1 else 0
        r, M = r + M * t, M * mod
        r %= M
    return r, M


def count_class_upto(n: int, r: int, M: int) -> int:
    """#{x in 1..n : x = r (mod M)}."""
    first = r % M or M
    return 0 if n < first else (n - first) // M + 1


def crt_card(progs):
    """Count of the intersection of progressions ap(a_i, d_i) in {1..G}.

    Returns (coefficient of G, constant): the class r mod M holds G/M
    naturals, minus the members below the latest start.
    """
    if not progs:
        return Fraction(1), 0
    merged = crt([(a % d, d) for a, d in progs])
    if merged is None:
        return Fraction(0), 0
    r, M = merged
    start = max(a for a, _ in progs)
    return Fraction(1, M), -count_class_upto(start - 1, r, M)


def formula_card(progs, member):
    """Count of a boolean combination of progressions.

    ``member(bits)`` says whether an element lying in exactly the
    progressions of the bitmask ``bits`` belongs to the set.  The count of
    each Venn region follows from the intersections by inclusion-exclusion.
    """
    n = len(progs)
    inter = {}
    for k in range(n + 1):
        for idx in combinations(range(n), k):
            mask = sum(1 << i for i in idx)
            inter[mask] = crt_card([progs[i] for i in idx])
    coeff, const_ = Fraction(0), 0
    full = (1 << n) - 1
    for region in range(full + 1):
        if not member(region):
            continue
        for sup in range(full + 1):
            if sup & region == region:
                sign = -1 if bin(sup ^ region).count("1") % 2 else 1
                c, k = inter[sup]
                coeff += sign * c
                const_ += sign * k
    return coeff, const_


def card_text(coeff: Fraction, const_: int) -> str:
    """Calculator-language text of coeff*G + const (any spelling will do;
    it is compared by value, not by characters)."""
    return f"({coeff.numerator})*G/({coeff.denominator}) + ({const_})"


def periodic_card(contains, period: int, threshold: int):
    """Count of {x >= 1 : contains(x)} when membership is periodic with the
    given period beyond the threshold.  Returns (coefficient, constant)."""
    base = -(-max(threshold, 1) // period) * period
    below = sum(1 for x in range(1, base + 1) if contains(x))
    per = sum(1 for x in range(base + 1, base + period + 1) if contains(x))
    coeff = Fraction(per, period)
    return coeff, below - per * (base // period)


def first_members(contains, n: int, limit: int):
    out = []
    x = 1
    while len(out) < n and x <= limit:
        if contains(x):
            out.append(x)
        x += 1
    return out


# --------------------------------------------------------------------------
# set texts as predicates


def set_pred(node):
    """(signed, contains) for a set text; nat sets hold only x >= 1."""
    kind = node[0]
    if kind == "name":
        if node[1] == "N":
            return False, lambda x: x >= 1
        if node[1] == "Z":
            return True, lambda x: True
    if kind == "setlit":
        elems = frozenset(int(at(e, 0)) for e in node[1])
        return any(e < 1 for e in elems), elems.__contains__
    if kind == "call" and node[1] == "ap":
        a, d = (int(at(e, 0)) for e in node[2])
        return False, lambda x: x >= a and (x - a) % d == 0
    if kind == "call" and node[1] == "mirror":
        _, f = set_pred(node[2][0])
        return True, lambda x: x <= -1 and f(-x)
    if kind == "compl":
        signed, f = set_pred(node[1])
        if signed:
            return True, lambda x: not f(x)
        return False, lambda x: x >= 1 and not f(x)
    if kind == "bin" and node[1] == "|":
        # renderings list one ap(...) per residue class: flatten the chain
        parts = []
        while node[0] == "bin" and node[1] == "|":
            parts.append(node[3])
            node = node[2]
        preds = [set_pred(x) for x in parts + [node]]
        fs = [f for _, f in preds]
        return any(s for s, _ in preds), lambda x: any(f(x) for f in fs)
    if kind == "bin" and node[1] in ("&", "\\"):
        sa, fa = set_pred(node[2])
        sb, fb = set_pred(node[3])
        if node[1] == "&":
            return sa or sb, lambda x: fa(x) and fb(x)
        return sa or sb, lambda x: fa(x) and not fb(x)
    raise CheckError(f"not a set text: {node[0]}")


# --------------------------------------------------------------------------
# numerals

_NUMERAL = re.compile(r"^([-+]?)0\.(\d*)(?:000…000(\d*))? \[(.*) positions: (.*)\]$")


def read_numeral(text: str):
    """(sign, head, tail, count text, length text) of a rendered numeral.

    Long numerals show head digits, an ellipsis of zeros and tail digits;
    zeros next to the ellipsis carry no information and are stripped.
    """
    m = _NUMERAL.match(text)
    if not m:
        raise CheckError(f"not a numeral: {text!r}")
    sign, head, tail, count, length = m.groups()
    if tail is None:
        return sign, head.rstrip("0"), "", count, length
    return sign, head.rstrip("0"), tail.lstrip("0"), count, length


def digits_succ(tail: str, base: int) -> str:
    """The tail block after adding one at the final position (infinite gap)."""
    ds = [int(c) for c in tail]
    i = len(ds) - 1
    while i >= 0:
        ds[i] += 1
        if ds[i] < base:
            break
        ds[i] = 0
        i -= 1
    if i < 0:
        ds = [1] + ds
    return "".join(str(d) for d in ds).lstrip("0")


def digits_pred(tail: str, base: int) -> str:
    ds = [int(c) for c in tail]
    i = len(ds) - 1
    while ds[i] == 0:
        ds[i] = base - 1
        i -= 1
    ds[i] -= 1
    return "".join(str(d) for d in ds).lstrip("0")
