"""The scale-check runner reports a wrong value and a row past its limit as
failed, names each, and returns 1.  The rows themselves run in their own
step (``python tests/scale_checks.py``), since their limits are wall-clock."""
import scale_checks
from scale_checks import Row, gc, values


def test_a_wrong_value_and_a_row_past_its_limit_fail(capsys):
    rows = [
        Row("sum", gc("eval"), "1 + 1", values("2")),
        Row("wrong sum", gc("eval"), "1 + 1", values("3")),
        Row("sleep", ("-c", "import time; time.sleep(5)"), "", values(), 0.2),
    ]
    assert scale_checks.run(rows) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("ok ") and lines[0].endswith("  sum")
    assert lines[1].startswith("FAIL") and "wrong sum: 1 JSON lines for 1 values, 1 differ" in lines[1]
    assert lines[2].startswith("FAIL") and lines[2].endswith("sleep: past its limit")
    assert lines[3] == "failed: wrong sum; sleep"
