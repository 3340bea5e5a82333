"""Scale checks: inputs whose cost or output must stay that of their
description, each run through ``python -m grosscalc`` under a wall-clock
limit, as ``timeout N`` would run it.

Each row of ``ROWS`` is one check: a name, the ``gc`` arguments, the input,
what the JSON lines must say, and a limit in seconds, 10 unless given.  An
input given as text is the last argument; one given as a function returns
script lines, written to a file whose path is the last argument.  A limit
given as a function is k times an in-job reference taken on the input's
text, so it follows the machine's speed.  Scripts and outputs go to a
temporary directory.  An output must be JSON lines, and the exit code is 0
exactly when no line is an error.

Wall-clock limits stay out of tier-1, so the checks run on their own:

    python tests/scale_checks.py
"""
from __future__ import annotations

import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Union

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

for _path in (HERE, SRC):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import reference_parser  # noqa: E402
from grosscalc import gnum  # noqa: E402


class Row(NamedTuple):
    name: str
    args: tuple  # the arguments to python before the input
    source: Union[str, Callable]  # an argument, or a function of script lines
    expect: Callable  # (JSON lines, output bytes) -> a complaint or None
    limit: Union[float, Callable] = 10  # seconds, or a function of the input


def gc(command: str, point: Optional[int] = None) -> tuple:
    oracle = ("--oracle", f"L={point}") if point else ()
    return ("-m", "grosscalc", *oracle, command, "--json")


def values(*want):
    """One JSON line per value in want, each with that value."""
    def check(outs, raw):
        got = [out.get("value") for out in outs]
        if got != list(want):
            differ = sum(a != b for a, b in zip(got, want))
            return f"{len(outs)} JSON lines for {len(want)} values, {differ} differ"
    return check


def each(count: int, test: Callable, what: str):
    """count JSON lines, each passing test."""
    def check(outs, raw):
        bad = sum(not test(out) for out in outs)
        if len(outs) != count or bad:
            return f"{len(outs)} JSON lines for {count}, {bad} not {what}"
    return check


def kind(name: str):
    return each(1, lambda out: out.get("error", {}).get("kind") == name, name)


def reference(k: float, work: Callable) -> float:
    """k times the median of three timings of work()."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    return k * sorted(times)[1]


def _env() -> dict:
    """The environment a row runs in: this checkout's src first on the path."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))


def after_startup(seconds: float) -> Callable:
    """A limit of seconds past the median of three start-ups of
    ``gc eval --json 1``, so a row can bound work far below a start-up."""
    def limit(text):
        command = [sys.executable, *gc("eval"), "1"]
        return seconds + reference(1, lambda: subprocess.run(command, env=_env(), stdout=subprocess.DEVNULL))
    return limit


def _short(text: str) -> str:
    return text if len(text) <= 60 else f"{text[:40]}... ({len(text)} chars)"


# a record keeps the sparser side of its classes and a floor below its first
# members, so a complement or a difference from N of a class mod 999983 and a
# progression that skips a million elements each cost their description
def _described():
    for i in range(1, 101):
        yield f"card(N \\ ap({i}, 999983))"
        yield f"card(~ap({i}, 999983))"
        yield f"card(ap({1999999 - i}, 2))"


_DESCRIBED = [v for i in range(1, 101) for v in ["999982*G/999983"] * 2 + [f"G/2 - {(1999998 - i) // 2}"]]


# the oracle checks each value as printed, so a statement in a let chain does
# not rebuild the record of the whole chain behind it
def _chain():
    yield "let A = N"
    for i in range(1, 301):
        yield f"let A = A \\ ap({i}, 2000)"


def _binomial(n: int) -> str:
    """The rendering of (G + 1)^n."""
    terms = [(math.comb(n, k), "G" if k == 1 else f"G^{k}" if k else "") for k in range(n, -1, -1)]
    return " + ".join(f"{c}*{g}" if c != 1 and g else g or str(c) for c, g in terms)


# a sum merges its two sorted term lists, and a product adds the coefficients
# of each rational exponent sum under one exact int key, the sum times the
# lcm of the exponents' denominators, so each 300-by-300-term product costs
# about its 90000 coefficient products.  The reference is one such product
# canonicalized by _canon with a fresh exponent per term pair.  On a shared
# 2-core container (Python 3.11.7) the four lines take 0.7 to 1.1
# references; the limit stops a fresh exponent per pair and a re-sorted sum
# per +, which take 8.0 to 15.
def _products(exponent: Callable = str):
    """Four lines, each two products of 300-term counts with exponents
    exponent(0) to exponent(299)."""
    rng = random.Random(19)

    def poly():
        return " + ".join(f"{rng.randint(1, 9)}*G^{exponent(i)}" for i in range(300))

    for _ in range(4):
        p, q = poly(), poly()
        yield f"({p}) * ({q}) == ({q}) * ({p})"


def _canon_300_by_300(text):
    return reference(5, lambda: gnum._canon([(1, gnum.fin(i + j)) for i in range(300) for j in range(300)]))


# the same products with exponents in sixths cost what integer exponents do:
# the reference is gc run on _products with integer exponents.  On a shared
# 2-core container (Python 3.11.7) the sixths take 0.9 to 1.9 references;
# the limit stops sorting the exponent sums as Fractions, which took 4.5 to 6.
def _sixths():
    return _products(lambda i: f"({i}/6)")


def _integer_exponents(text):
    with tempfile.TemporaryDirectory() as tmp:
        script = Path(tmp, "products.gc")
        script.write_text("".join(line + "\n" for line in _products()), encoding="utf-8")
        command = [sys.executable, *gc("run"), str(script)]
        return reference(3, lambda: subprocess.run(command, env=_env(), stdout=subprocess.DEVNULL))


# a token is a (kind, text, offset) tuple, and a line and column are worked out
# only for a ParseError, so one line of 200,005 tokens costs its tokens.  The
# line goes in a script, since Linux caps one argument at 128 KiB.  The
# reference is tests/reference_parser.py parsing the same line; on a shared
# 2-core container the run takes 1.65 to 1.87 references, and the limit stops
# one scan per token to find its line and column, which runs past 20 s.
def _tokens():
    rng = random.Random(21)
    yield "card({" + ", ".join(str(rng.randint(1, 10 ** 6)) for _ in range(100000)) + "})"


def _parse_line(text):
    return reference(4, lambda: reference_parser.parse(text.strip()))


def _distinct_tokens(outs, raw):
    return values(str(len(set(re.findall(r"\d+", next(_tokens()))))))(outs, raw)


# a finite numeral past 32 positions prints head...tail at every length, so
# the first 2000 numerals of 10^4 positions print about 90 KB, not 20 MB
def _first_numerals(outs, raw):
    count = outs[0].get("value", "").count(" positions: 10000]") if len(outs) == 1 else 0
    if count != 2000 or len(raw) >= 200000:
        return f"{len(outs)} JSON lines, {count} numerals, {len(raw)} bytes"


_BRUTE_MODULI = [d for d in range(7, 2521) if 2520 % d == 0][:40]
_BRUTE = "card(" + " | ".join(
    f"(ap({1 + i % 12}, 12) \\ ap({1 + 7 * i}, {d}))" for i, d in enumerate(_BRUTE_MODULI)) + ")"

ROWS = [
    # set algebra costs its description, not the lcm of about 1.1e8: the CRT
    # pairs one class per modulus
    Row("coprime intersection", gc("eval"), "card(ap(1,97) & ap(1,101) & ap(1,103) & ap(1,107))",
        values("G/107972737")),
    Row("set algebra at description cost", gc("run"), _described, values(*_DESCRIBED)),
    # the integer logarithm takes O(log k) big multiplications
    Row("integer logarithm of a long target", gc("eval"), "subst(crit(2, G^20000), 1000)",
        values("199315")),
    # sums, differences and quotients fold b^k into the multiplier; a gap k
    # past the materialize cap is refused at once
    *(Row(f"exponent gap: {text}", gc("eval"), text, kind("ExponentTooLarge"))
      for text in ("2^(G + 1000000000) / 2^G", "3^(G + 100000000) + 3^G")),
    # a power whose terms times coefficient bits would pass the materialize
    # cap is refused before any product; one term c*G^e is raised in one
    # step, and (G + 1)^700, 701 terms of at most 1400 bits, multiplied out
    *(Row(f"coefficient bound: {text}", gc("eval"), text, kind("ExponentTooLarge"), 2)
      for text in ("(10^4000*G)^512", "(10^4000*G + 1)^128")),
    Row("coefficient bound: (2^1999*G + 1)^500 > G", gc("eval"), "(2^1999*G + 1)^500 > G",
        kind("ExponentTooLarge"), 1),
    Row("one-step power: (2^1999*G)^500 > G", gc("eval"), "(2^1999*G)^500 > G", values("true"),
        after_startup(0.05)),
    Row("multi-term power: (G + 1)^700", gc("eval"), "(G + 1)^700", values(_binomial(700))),
    # integers past 4300 digits and far progression starts are refused typed
    # on every version, and so is a cross-power comparison whose multiplier
    # power the exponent's denominator would blow up; a comparison or other
    # error naming a long operand keeps its own kind
    *(Row(f"typed refusal: {_short(text)}", gc("eval"), text, kind(name)) for name, text in (
        ("RepresentationLimit", "2^20000"),
        ("RepresentationLimit", "1" * 5000),
        ("RepresentationLimit", "subst(10^G, 5000)"),
        ("RepresentationLimit", "ap(2^100, 2)"),
        ("RepresentationLimit", 'pred(num(10, 2^14000 * 2^14000){head: "1"})'),
        ("ExponentTooLarge", "3 * 2^(G + 1/30000000) > 2^G"),
        ("ExponentTooLarge", "2^(2*G + 10^5000) < 4^G"),  # 2^(10^5000) against 1
        ("Undetermined", "10^5000 * numerals(10, crit(10, G)) < 10^5000 * G / 2"),
        ("EvalError", "numerals(10, 2^(G + 10^5000))"),
        ("EvalError", "crit(10, 2^(G + 10^5000))"),
        ("CritRefNotSubstitutable", "subst(crit(10, G - 10^4400), 2)"),
    )),
    # a point past gnum.MAX_ITEMS is skipped at once, not enumerated
    Row("oracle point past the brute-force cap", gc("eval", 30000000), "card(N \\ {3})",
        each(1, lambda out: out.get("value") == "G - 1"
             and out.get("oracle", "").startswith("skipped:"), "G - 1 with a skipped oracle")),
    # the brute count writes each tree node over 1..L as one big integer mask
    Row("oracle brute count near the cap", gc("eval", 997920), _BRUTE,
        each(1, lambda out: out.get("value") not in ("0", "G")
             and out.get("oracle", "").endswith("[ok]"), "a proper count with an [ok] oracle"), 3),
    # --json prints one JSON object for every input; nesting past the cap is
    # a ParseError
    Row("JSON output on a deep input", gc("eval", 22000), "(" * 3000 + "1" + ")" * 3000,
        kind("ParseError")),
    # the 1200-piece union ends in InternalError, which is still one JSON
    # object; any single object passes until ROADMAP item 4 is done
    Row("JSON output on a long union", gc("eval", 22000),
        " | ".join(f"ap({i}, 2000)" for i in range(1, 1201)), each(1, lambda out: True, "JSON")),
    Row("oracle on a long let chain", gc("run", 2000), _chain,
        each(301, lambda out: out.get("oracle", "").endswith("[ok]"), "with an [ok] oracle"), 20),
    # building a numeral of 10^4 positions, and borrowing across its implicit
    # zeros, is linear in its length; a finite count past 4300 digits prints
    # in a numeral's tag as b^n
    Row("numerals of ten thousand positions", gc("run"),
        lambda: ['num(10, 10000) < pred(num(10, 10000){head: "1"})'] * 200, values(*["true"] * 200)),
    Row("a numeral count past 4300 digits", gc("eval"), "num(10, 4300)",
        each(1, lambda out: out.get("type") == "numeral"
             and out["value"].endswith("[10^4300 positions: 4300]"), "tagged 10^4300")),
    Row("long finite numerals print head...tail", gc("eval"), "first(10, 10000, 2000)", _first_numerals),
    # coefficients stay ints or Fractions, never floats; counts of two bases
    # whose leading exponent terms tie compare as one base
    *(Row(f"exact coefficient: {text}", gc("eval"), text, values(want)) for text, want in (
        ("2^(-1)", "1/2"),
        ("(-2)^(-3)", "-1/8"),
        ("6*2^G / (4*2^G)", "3/2"),
        ("(G/3 + 1/3) * 3", "G + 1"),
        ("2^(G + 1) > 4^(G/2)", "true"),
        ("8^(G/3) < 2^(G + 1)", "true"),
    )),
    Row("polynomial arithmetic at term-count scale", gc("run"), _products,
        values(*["true"] * 4), _canon_300_by_300),
    Row("rational exponents at integer cost", gc("run"), _sixths,
        values(*["true"] * 4), _integer_exponents),
    Row("parsing at token-count scale", gc("run"), _tokens,
        _distinct_tokens, _parse_line),
]


def _complaint(row: Row, code: int, raw: bytes) -> Optional[str]:
    try:
        outs = [json.loads(line) for line in raw.splitlines()]
    except ValueError:
        return "the output is not JSON lines"
    if (code != 0) != any("error" in out for out in outs):
        return f"exit code {code}"
    return row.expect(outs, raw)


def run(rows) -> int:
    """Run every row, print one line each, and return 1 naming each row
    that failed, else 0."""
    env = _env()
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, row in enumerate(rows):
            if callable(row.source):
                text = "".join(line + "\n" for line in row.source())
                arg = os.path.join(tmp, f"{i}.gc")
                Path(arg).write_text(text, encoding="utf-8")
            else:
                text = arg = row.source
            limit = row.limit(text) if callable(row.limit) else row.limit
            output = Path(tmp, f"{i}.out")
            start = time.perf_counter()
            with open(output, "wb") as out:
                try:
                    code = subprocess.run([sys.executable, *row.args, arg], stdout=out, cwd=tmp, env=env,
                                          timeout=limit).returncode
                except subprocess.TimeoutExpired:
                    code = None
            seconds = time.perf_counter() - start
            complaint = "past its limit" if code is None else _complaint(row, code, output.read_bytes())
            print(f"{'FAIL' if complaint else 'ok  '} {seconds:6.2f} s of {limit:5.2f} s  {row.name}"
                  + (f": {complaint}" if complaint else ""), flush=True)
            if complaint:
                failed.append(row.name)
    if failed:
        print("failed: " + "; ".join(failed))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(run(ROWS))
