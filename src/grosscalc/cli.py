"""The gc command: REPL, one-shot evaluation, scripts, oracle sweeps.

Exit codes: 0 success, 1 evaluation error, 2 syntax error.  In JSON mode
errors are emitted as values so downstream tooling can tell an honest
refusal (Undetermined, UnsupportedSum) from a wrong answer.  Any other
exception is reported as kind InternalError, exit 1.
"""

import argparse
import json
import re
import sys
from typing import Optional

from . import gclang, gnum, oracle
from .errors import GrossError, InvalidL, ParseError, RepresentationLimit, Undetermined
from .gclang import MeasuredSet, SignedMeasured

EXIT_OK = 0
EXIT_EVAL = 1
EXIT_SYNTAX = 2


def _oracle_text(value, point: int):
    """Render the oracle line for a result; (text, ok).  A set, or the set
    a count came from, is checked as printed: its record against its tree."""
    source = value.source if isinstance(value, gclang.SetCount) else value
    try:
        if isinstance(source, (MeasuredSet, SignedMeasured)):
            report = oracle.check_set(source.expr, source.record, point)
            return str(report), report.match
        if isinstance(value, (gclang.GrossPoly, gclang.ExpCount, gclang.CritRef)):
            substituted = oracle.subst(value, point)
            gnum.check_digits(substituted.numerator)
            gnum.check_digits(substituted.denominator)
            return f"subst(G := {point}) = {substituted}", True
        return None, True
    except InvalidL as err:
        return f"skipped: {err}", True
    except GrossError as err:
        return f"unavailable ({err.kind}: {err})", True


def _emit_json(payload) -> None:
    print(json.dumps(payload, ensure_ascii=False))


def _bounds(err: GrossError) -> Optional[dict]:
    """The sandwich bounds an Undetermined carries, rendered; None when it
    carries none or a bound has a number too long to write."""
    if not isinstance(err, Undetermined) or err.lower is None:
        return None
    try:
        return {"lower": gnum.render_gross(err.lower), "upper": gnum.render_gross(err.upper)}
    except RepresentationLimit:
        return None


def _fail(json_mode: bool, kind: str, detail: str, text: str, code: int,
          bounds: Optional[dict] = None) -> int:
    if json_mode:
        error = {"kind": kind, "detail": detail}
        if bounds is not None:
            error["bounds"] = bounds
        _emit_json({"error": error})
    else:
        print(text, file=sys.stderr)
    return code


def run_line(line: str, env, json_mode: bool, point: Optional[int]) -> int:
    """Parse, evaluate and print one line: one value or one error, never an
    escaping exception."""
    try:
        value = gclang.evaluate(gclang.parse(line), env)
        rendered = gclang.render_value(value)
        oracle_line = ok = None
        if point is not None:
            oracle_line, ok = _oracle_text(value, point)
    except ParseError as err:
        return _fail(json_mode, err.kind, str(err), f"syntax error: {err}", EXIT_SYNTAX)
    except GrossError as err:
        return _fail(json_mode, err.kind, str(err), f"error[{err.kind}]: {err}", EXIT_EVAL,
                     _bounds(err))
    except Exception as err:
        detail = f"{type(err).__name__}: {err}"
        return _fail(json_mode, "InternalError", detail, f"error[InternalError]: {detail}", EXIT_EVAL)

    if json_mode:
        payload = {"input": line, "value": rendered, "type": gclang.type_tag(value)}
        if oracle_line is not None:
            payload["oracle"] = oracle_line
        _emit_json(payload)
    else:
        print(rendered)
        if oracle_line is not None:
            print(f"  oracle: {oracle_line}")
    return EXIT_OK if ok in (None, True) else EXIT_EVAL


def repl(point: Optional[int]) -> int:
    env = gclang.default_env()
    print("grossone calculator; 'exit' leaves, expressions evaluate")
    while True:
        try:
            line = input("gc> ")
        except (EOFError, KeyboardInterrupt):
            print()
            return EXIT_OK
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line in ("exit", "quit"):
            return EXIT_OK
        run_line(line, env, json_mode=False, point=point)


def run_script(path: str, json_mode: bool, point: Optional[int]) -> int:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as err:
        print(f"cannot read {path}: {err}", file=sys.stderr)
        return EXIT_EVAL
    env = gclang.default_env()
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        code = run_line(line, env, json_mode, point)
        if code != EXIT_OK:
            return code
    return EXIT_OK


def run_check(seed: int, cases: int) -> int:
    failures, reports = oracle.sweep(seed, cases)
    for report in reports:
        print(report)
    print(f"{len(reports)} checks, {failures} mismatches")
    return EXIT_OK if failures == 0 else EXIT_EVAL


def _parse_oracle_flag(text: str) -> int:
    m = re.fullmatch(r"L=(\d+)", text)
    if not m or int(m.group(1)) < 1:
        raise argparse.ArgumentTypeError("expected L=<positive integer>")
    return int(m.group(1))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gc", description="exact calculator for grossone arithmetic"
    )
    parser.add_argument(
        "--oracle",
        type=_parse_oracle_flag,
        metavar="L=N",
        default=None,
        help="append a finite-substitution check to every count result",
    )
    sub = parser.add_subparsers(dest="command")

    # the options eval and run share; the subcommand form of --oracle only
    # overrides the global one when actually present, hence SUPPRESS rather
    # than a None default
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true")
    output.add_argument(
        "--oracle", type=_parse_oracle_flag, metavar="L=N", default=argparse.SUPPRESS
    )
    p_eval = sub.add_parser("eval", parents=[output], help="evaluate one expression")
    p_eval.add_argument("expression")
    p_run = sub.add_parser("run", parents=[output], help="run a script, one expression per line")
    p_run.add_argument("path")

    p_check = sub.add_parser("check", help="random symbolic-vs-brute sweep")
    p_check.add_argument("--seed", type=int, default=2026)
    p_check.add_argument("--cases", type=int, default=200)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "eval":
        env = gclang.default_env()
        return run_line(args.expression, env, args.json, args.oracle)
    if args.command == "run":
        return run_script(args.path, args.json, args.oracle)
    if args.command == "check":
        return run_check(args.seed, args.cases)
    return repl(args.oracle)


if __name__ == "__main__":
    sys.exit(main())
