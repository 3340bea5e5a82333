"""The gc command line: output shapes, exit codes, scripts, the REPL."""

import hashlib
import io
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from grosscalc import cli, gclang


def gc(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "grosscalc", *args],
        capture_output=True,
        text=True,
        input=stdin,
        timeout=60,
    )


class TestEval:
    def test_plain_output(self):
        r = gc("eval", "card(ap(2,2))")
        assert r.returncode == 0
        assert r.stdout.strip() == "G/2"

    def test_json_shape(self):
        r = gc("eval", "card(ap(2,2))", "--json")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload == {"input": "card(ap(2,2))", "value": "G/2", "type": "count"}

    def test_evaluation_error_exits_1(self):
        r = gc("eval", "G/0")
        assert r.returncode == 1
        assert "DivisionByZero" in r.stderr

    def test_syntax_error_exits_2(self):
        r = gc("eval", "card(ap(2,2)")
        assert r.returncode == 2
        assert "syntax error" in r.stderr

    def test_json_errors_are_values(self):
        r = gc("eval", "G/0", "--json")
        assert r.returncode == 1
        payload = json.loads(r.stdout)
        assert payload["error"]["kind"] == "DivisionByZero"
        assert payload["error"]["detail"]

        r = gc("eval", "card(", "--json")
        assert r.returncode == 2
        assert json.loads(r.stdout)["error"]["kind"] == "ParseError"

    def test_honest_refusal_is_distinguishable_from_wrong(self):
        r = gc("eval", "numerals(10, crit(10, G)) < G/2", "--json")
        assert r.returncode == 1
        assert json.loads(r.stdout)["error"]["kind"] == "Undetermined"

    def test_undetermined_json_carries_the_sandwich_bounds(self):
        r = gc("eval", "numerals(10, crit(10, G)) < G/2", "--json")
        assert json.loads(r.stdout)["error"] == {
            "kind": "Undetermined",
            "detail": "10^crit(10, G) vs G/2 is not resolvable from the sandwich",
            "bounds": {"lower": "-2*G/5", "upper": "G/2"},
        }
        r = gc("eval", "numerals(10, crit(10, G)) < G/2")
        assert r.stderr == (
            "error[Undetermined]: 10^crit(10, G) vs G/2 is not resolvable from the sandwich\n"
        )

    def test_oracle_flag_appends_brute_check(self):
        r = gc("--oracle", "L=27720", "eval", "card({3,4,5,69} | (ap(4,5) & ap(3,11)))")
        assert r.returncode == 0
        assert "[ok]" in r.stdout
        assert "507" in r.stdout

    def test_oracle_flag_after_subcommand(self):
        r = gc("eval", "numerals(2, G)", "--oracle", "L=10", "--json")
        assert r.returncode == 0
        assert json.loads(r.stdout)["oracle"] == "subst(G := 10) = 1024"

    def test_unicode_grossone_accepted(self):
        r = gc("eval", "2*① + 1")
        assert r.returncode == 0
        assert r.stdout.strip() == "2*G + 1"

    @pytest.mark.parametrize("flag", ["L=x", "L=0", "12"])
    def test_oracle_flag_refuses_a_bad_point(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["--oracle", flag, "eval", "1"])
        assert exit_.value.code == 2
        assert "expected L=<positive integer>" in capsys.readouterr().err


class TestRun:
    def test_script_with_bindings_and_comments(self, tmp_path):
        script = tmp_path / "sets.gc"
        script.write_text(
            "# the named progressions\n"
            "let B1 = ap(4,5)\n"
            "let B2 = ap(3,11)\n"
            "\n"
            "card({3,4,5,69} | (B1 & B2))\n",
            encoding="utf-8",
        )
        r = gc("run", str(script))
        assert r.returncode == 0
        assert r.stdout.splitlines() == ["ap(4, 5)", "ap(3, 11)", "G/55 + 3"]

    def test_script_stops_at_first_error(self, tmp_path):
        script = tmp_path / "bad.gc"
        script.write_text("1 + 1\nG/0\ncard(N)\n", encoding="utf-8")
        r = gc("run", str(script))
        assert r.returncode == 1
        assert r.stdout.splitlines() == ["2"]

    def test_missing_script(self, tmp_path):
        r = gc("run", str(tmp_path / "absent.gc"))
        assert r.returncode == 1

    @pytest.mark.parametrize("name", ["absent.gc", "."])
    def test_a_path_that_cannot_be_read_is_one_json_error(self, tmp_path, capsys, name):
        path = str(tmp_path / name)
        assert cli.main(["run", path, "--json"]) == cli.EXIT_EVAL
        out = capsys.readouterr()
        error = json.loads(out.out)["error"]
        assert error["kind"] == "UnreadableScript"
        assert error["detail"].startswith(f"cannot read {path}: ")
        assert out.err == ""

    def test_bytes_that_are_not_utf8_are_one_typed_error(self, tmp_path, capsys):
        script = tmp_path / "bytes.gc"
        script.write_bytes(b"1 + 1\n\xff\n")
        assert cli.main(["run", str(script), "--json"]) == cli.EXIT_EVAL
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == "UnreadableScript"
        assert "can't decode byte 0xff" in error["detail"]
        # text mode keeps its one line on stderr
        assert cli.main(["run", str(script)]) == cli.EXIT_EVAL
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(f"cannot read {script}: ")

    def test_json_lines(self, tmp_path):
        script = tmp_path / "two.gc"
        script.write_text("1+1\ncard(Z)\n", encoding="utf-8")
        r = gc("run", str(script), "--json")
        rows = [json.loads(line) for line in r.stdout.splitlines()]
        assert [row["value"] for row in rows] == ["2", "2*G + 1"]

    @pytest.mark.parametrize(
        "argv, oracle",
        [
            (["run", "{path}", "--oracle", "L=6", "--json"], "at L=6: symbolic 3 vs brute 3"),
            (["--oracle", "L=6", "run", "{path}", "--json"], "at L=6: symbolic 3 vs brute 3"),
            (["--oracle", "L=6", "run", "--oracle", "L=8", "{path}", "--json"],
             "at L=8: symbolic 4 vs brute 4"),
            (["run", "{path}", "--json"], None),
        ],
    )
    def test_oracle_flag_on_a_script(self, tmp_path, capsys, argv, oracle):
        script = tmp_path / "card.gc"
        script.write_text("card(ap(1,2))\n", encoding="utf-8")
        code = cli.main([arg.format(path=script) for arg in argv])
        assert code == cli.EXIT_OK
        line = json.loads(capsys.readouterr().out).get("oracle")
        assert line == (None if oracle is None else f"ap(1, 2) {oracle} [ok]")


class TestCheck:
    def test_clean_sweep(self):
        r = gc("check", "--seed", "11", "--cases", "8")
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[-1].endswith("0 mismatches")
        assert all("[ok]" in line for line in lines[:-1])

    def test_sweep_output_is_pinned(self, capsys):
        # the CI sweep byte for byte: a change that moves any report, on any
        # Python version, updates this digest and says why
        assert cli.main(["check", "--seed", "2026", "--cases", "200"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert len(lines) == 601 and lines[-1] == "600 checks, 0 mismatches"
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "6b007be8137f83f11547615918cdd495ebdd22ca55bc23d07538c23c59f4d470"
        )


class TestRepl:
    def test_session(self):
        r = gc(stdin="card(Z)\nlet B1 = ap(4,5)\ncard(B1)\nexit\n")
        assert r.returncode == 0
        assert "2*G + 1" in r.stdout
        assert "G/5" in r.stdout

    def test_errors_do_not_end_the_session(self):
        r = gc(stdin="G/0\n1+1\n")
        assert r.returncode == 0
        assert "2" in r.stdout
        assert "DivisionByZero" in r.stderr

    def test_blank_and_comment_lines_are_skipped(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n   \n# card(N)\n  # 1/0\ncard(Z)\n"))
        assert cli.main([]) == cli.EXIT_OK
        captured = capsys.readouterr()
        # one prompt per line read, then EOF; only card(Z) prints an answer
        assert captured.out.split("gc> ")[1:] == ["", "", "", "", "2*G + 1\n", "\n"]
        assert captured.err == ""


@pytest.mark.parametrize(
    "line, bounds",
    [
        ("numerals(10, crit(10, G) + 2) < numerals(10, crit(10, 3*G) + 1)",
         {"lower": "-20*G", "upper": "97*G"}),
        ("G/2 > numerals(10, crit(10, G))", {"lower": "-2*G/5", "upper": "G/2"}),
        # bounds with 5000-digit coefficients cannot be written
        ("numerals(10, crit(10, G) + 5000) < numerals(10, crit(10, 3*G) + 4999)", None),
    ],
)
def test_undetermined_bounds_in_json(line, bounds, capsys):
    assert cli.run_line(line, gclang.default_env(), json_mode=True, point=None) == cli.EXIT_EVAL
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "Undetermined"
    assert error.get("bounds") == bounds
    assert set(error) == {"kind", "detail"} | ({"bounds"} if bounds else set())


def test_cross_base_tie_is_decided_in_json(capsys):
    # 4^(G/2 + 1/3) = 2^(G + 2/3) > 2^G
    line = "numerals(2, G) < numerals(4, G/2 + 1/3)"
    assert cli.run_line(line, gclang.default_env(), json_mode=True, point=None) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out) == {"input": line, "value": "true", "type": "bool"}


@pytest.mark.parametrize("line", ["G/0", "2^G - 3^G", "2^20000", "card(", "members(N)"])
def test_other_errors_keep_kind_and_detail_only(line, capsys):
    assert cli.run_line(line, gclang.default_env(), json_mode=True, point=None) != cli.EXIT_OK
    assert set(json.loads(capsys.readouterr().out)["error"]) == {"kind", "detail"}


def _readme_examples():
    """(command, shown lines) for each `$ gc ...` command in the README's
    sh and text blocks; a `gc>` line of a session holds one input."""
    with open(Path(__file__).resolve().parents[1] / "README.md", encoding="utf-8") as fh:
        blocks = re.findall(r"```(?:sh|text)\n(.*?)```", fh.read(), re.S)
    examples = []
    for block in blocks:
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if chunk.startswith("$ gc"):
                command, *shown = chunk.rstrip("\n").splitlines()
                examples.append(pytest.param(command, shown, id=command[2:]))
    return examples


@pytest.mark.parametrize("command, shown", _readme_examples())
def test_the_readme_examples_print_what_they_show(command, shown, capsys, monkeypatch):
    inputs = [line[len("gc> "):] for line in shown if line.startswith("gc> ")]
    monkeypatch.setattr(sys, "stdin", io.StringIO("".join(f"{line}\n" for line in inputs)))
    cli.main(shlex.split(command)[2:])
    out = capsys.readouterr().out
    if inputs:
        # a session as a terminal shows it: each prompt followed by its
        # echoed input and then its output, without the greeting
        answers = out.split("gc> ")[1:len(inputs) + 1]
        out = "".join(f"gc> {line}\n{answer}" for line, answer in zip(inputs, answers))
    # a line `...` stands for any number of lines
    pattern = "".join(r"(?:.*\n)*" if line == "..." else re.escape(line) + "\n" for line in shown)
    assert re.fullmatch(pattern, out), out
