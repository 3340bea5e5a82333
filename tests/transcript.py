"""A committed transcript of the calculator's outputs, and its generator.

``tests/transcript.jsonl`` holds one JSON object per input: the input, the
oracle point ``L`` it runs under (null for none), the ``let`` chain it
belongs to (null for none), the exit code, and the output of
``cli.run_line(..., json_mode=True)``, parsed when parsing and writing it
again gives the same bytes and as text otherwise.  An output longer than
``LONG_OUTPUT`` bytes is kept as its length and sha256 instead.  Lines of
one chain share one environment, in order; every other line gets a fresh
one.  ``tests/test_transcript.py`` replays each line and requires the same
bytes.

The inputs come from seeded sources: the typed probe of every call in
``test_language_tables``, the count corpus of ``test_exact_coefficients``,
``let`` chains drawn here, every size-policy row past a cap, the inputs
whose wholeness a count rule decides, a few syntax errors, one input for
each error kind the others miss and one for each tokenizer or evaluator
branch they miss; a share runs under ``--oracle``.

A change that alters an output on purpose rewrites the file, so that
``git diff`` shows every changed output:

    python tests/transcript.py --write
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PATH = HERE / "transcript.jsonl"
LONG_OUTPUT = 1000

for _path in (HERE, HERE.parent / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from grosscalc import cli, gclang  # noqa: E402

# counts whose wholeness decides between a value and a refusal
WHOLE_COUNTS = (
    "observe(grossone, G + 1/2)",
    "observe(piraha, G + G^(-1))",
    "observe(grossone, G - G^(-1))",
    "observe(piraha, 1/2)",
    "observe(piraha, G^(-1))",
    "observe(grossone, G/2 + 1)",
    "observe(grossone, 3*G/2 + G^(1/2))",
    "observe(grossone, 2^G + 1)",
    "wadd(grossone, G + 1/2, 1)",
    "critical(10, G + 1/2)",
    "critical(10, G + G^(-1))",
    "critical(10, G/2 + 1)",
    "crit(2, G - G^(-2))",
    "crit(2, 3*G/2)",
    "numerals(4, G/2 + 1/3)",
)

# inputs the parser refuses
SYNTAX = (
    "1 +", "2 $ 3", "ap(1, 2", "(" * 101 + "1" + ")" * 101, 'num(10, G){tail: "1", tail: "2"}',
)

# one input for each error kind that no source above reaches
KINDS = (
    "2^(-G)", "G^" * 10 + "2", "subst(crit(2, G - 5), 2)", "num(10, G) < num(2, G)", "x", "f(1)",
)

# one input for each tokenizer or evaluator branch that no source above
# reaches; ORACLE_BRANCHES also run under --oracle
BRANCHES = (
    "①", "λ", 'num(10, G){tail: "1', "1 2", 'num(10, G){bad: "1"}',
    "2^crit(2, G)", "1 + crit(2, G)", "crit(2, G) * 2", "ap(1,2) + 1", "ap(1,2) | 1", "~1",
    "let card = 1", "N == N", "ap(1,2) == mirror(N)", "ap(1,2) < N", "~mirror(N)",
    "~({0} | ap(1,2))", "true == false", "observe(piraha, 3) == observe(piraha, 4)",
    "wadd(piraha, 1, 1) == wadd(piraha, 2, 2)", "observe(piraha, 1) == 1",
    "(1/2)^G", "2^(1/2)", "2^(2^G)", "2^(2*G) / 2^G", "true + 1", "piraha * 2", "num(2, 3) - 1",
    "1 - true",
)
ORACLE_BRANCHES = ("~mirror(N)", "~({0} | ap(1,2))", "2^crit(2, G)")


def _chains(rng: random.Random, count: int = 40):
    """Each chain binds a count, a set and a second count, then reads and
    rebinds them."""
    for _ in range(count):
        m = rng.choice((2, 3, 4, 6, 10, 12))
        yield [
            f"let a = {rng.randint(1, 9)}*G/{rng.choice((1, 2, 3))} + {rng.randint(-5, 5)}",
            f"let s = ap({rng.randint(1, m)}, {m}) | {{{rng.randint(1, 20)}, {rng.randint(1, 20)}}}",
            f"let b = a * {rng.randint(2, 4)} - card(s)",
            rng.choice(("card(s) < a", "b > a", "b - a == card(s)", "a / b")),
            rng.choice(("let s = s & ~ap(1, 2)", "let s = s \\ {1, 2, 3}", "let s = s | ap(1, 5)")),
            "card(s) + b",
            "members(s, 5)",
            rng.choice(("let a = a^2", "let a = 2^a", "let a = numerals(2, a)")),
            rng.choice(("a > b", "a - b", "observe(grossone, a)", "crit(10, a)")),
        ]


def inputs():
    """(input, point, chain) for every line of the transcript, in order."""
    import test_exact_coefficients
    import test_language_tables
    import test_size_policy

    rows = []
    for i, line in enumerate(test_language_tables._probe_inputs()):
        rows.append((line, None, None))
        if i % 4 == 0:
            rows.append((line, 12, None))
    rng = random.Random(2026)
    for i in range(1500):
        line = test_exact_coefficients._line(rng)
        rows.append((line, None, None))
        if i % 10 == 0:
            rows.append((line, 60, None))
    for chain, lines in enumerate(_chains(random.Random(2026))):
        rows += [(line, 60 if i % 3 == 2 else None, chain) for i, line in enumerate(lines)]
    for row in test_size_policy.PAST_CAP:
        rows.append((getattr(row, "values", row)[0], None, None))
    rows.append((*test_size_policy.PAST_CAP_POINT, None))
    rows += [(line, None, None) for line in WHOLE_COUNTS + SYNTAX + KINDS + BRANCHES]
    rows += [(line, 12, None) for line in ORACLE_BRANCHES]
    return rows


def record(line: str, point, chain, env) -> str:
    """The transcript line of one input run in env."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run_line(line, env, json_mode=True, point=point)
    text = out.getvalue()
    entry = {"input": line, "L": point, "chain": chain, "code": code}
    if len(text) > LONG_OUTPUT:
        entry["bytes"] = len(text.encode())
        entry["sha256"] = hashlib.sha256(text.encode()).hexdigest()
    else:
        out = json.loads(text)
        if json.dumps(out, ensure_ascii=False) + "\n" == text:
            entry["out"] = out
        else:
            entry["text"] = text
    return json.dumps(entry, ensure_ascii=False)


def replay(rows):
    """The transcript lines of rows, each (input, point, chain)."""
    env, last = None, None
    for line, point, chain in rows:
        if chain is None or chain != last:
            env = gclang.default_env()
        last = chain
        yield record(line, point, chain, env)


def main(argv) -> int:
    if argv != ["--write"]:
        print("usage: python tests/transcript.py --write", file=sys.stderr)
        return 2
    with open(PATH, "w", encoding="utf-8") as fh:
        for text in replay(inputs()):
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
