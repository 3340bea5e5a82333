"""The gc command line: output shapes, exit codes, scripts, the REPL."""

import json
import subprocess
import sys

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


@pytest.mark.parametrize(
    "line, bounds",
    [
        ("numerals(10, crit(10, G) + 2) < numerals(10, crit(10, 3*G) + 1)",
         {"lower": "-20*G", "upper": "97*G"}),
        ("G/2 > numerals(10, crit(10, G))", {"lower": "-2*G/5", "upper": "G/2"}),
        # tied at leading order: no sandwich was built
        ("numerals(2, G) < numerals(4, G/2 + 1/3)", None),
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


@pytest.mark.parametrize("line", ["G/0", "2^G - 3^G", "2^20000", "card(", "members(N)"])
def test_other_errors_keep_kind_and_detail_only(line, capsys):
    assert cli.run_line(line, gclang.default_env(), json_mode=True, point=None) != cli.EXIT_OK
    assert set(json.loads(capsys.readouterr().out)["error"]) == {"kind", "detail"}
