"""Every line of the committed transcript replays to the same bytes.

The transcript (see ``tests/transcript.py``) pins the outputs of a few
thousand inputs: values, renderings, error kinds and details, oracle lines
and the JSON shape.  A change that alters one on purpose rewrites the file
with ``python tests/transcript.py --write``, and the diff shows each line.
"""
import json

import transcript
from grosscalc import errors


def _kinds(cls):
    """The names of cls and of every class below it."""
    return {cls.__name__}.union(*map(_kinds, cls.__subclasses__()))


def _committed():
    with open(transcript.PATH, encoding="utf-8") as fh:
        return fh.read().splitlines()


def test_every_line_replays_byte_for_byte():
    lines = _committed()
    rows = [(e["input"], e["L"], e["chain"]) for e in map(json.loads, lines)]
    changed = [(want, got) for want, got in zip(lines, transcript.replay(rows)) if want != got]
    assert not changed, f"{len(changed)} lines differ, the first:\n{changed[0][0]}\n{changed[0][1]}"


def test_the_transcript_covers_refusals_values_and_the_oracle():
    entries = [json.loads(line) for line in _committed()]
    assert len(entries) > 2500
    outs = [e["out"] for e in entries if "out" in e]
    kinds = {o["error"]["kind"] for o in outs if "error" in o}
    # every kind an input can reach: only `gc run` on an unreadable file
    # reaches UnreadableScript, and tests/test_cli.py covers it
    assert _kinds(errors.GrossError) - {"GrossError", "UnreadableScript"} <= kinds
    # outputs kept only as a length and sha256 cannot be scanned here
    assert "InternalError" not in kinds
    assert not any(o.get("oracle", "").endswith("[MISMATCH]") for o in outs)
    assert sum("value" in o for o in outs) > len(entries) / 2
    assert sum("oracle" in o for o in outs) > 100
    assert any(e["chain"] is not None for e in entries)
