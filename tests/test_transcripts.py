"""Every command's output on every shipped config, pinned as text.

After a change that moves printed output, run ``python tests/transcripts.py``
and review the diff of ``tests/data/transcripts/``.
"""

import re

import pytest

from transcripts import INPUTS, OUT, transcript


@pytest.mark.parametrize("path", INPUTS, ids=lambda path: path.stem)
def test_transcript(path):
    assert transcript(path) == (OUT / f"{path.stem}.txt").read_text(encoding="utf-8")


def test_every_input_has_one_transcript():
    assert sorted(path.stem for path in INPUTS) == sorted(
        path.stem for path in OUT.glob("*.txt")
    )


def test_every_run_keeps_the_exit_contract():
    # Kept across regenerations: exit 0 with nothing on stderr, or exit 2 with
    # one stderr line; never a warning or a nan.
    for path in OUT.glob("*.txt"):
        for run in path.read_text(encoding="utf-8").split("\n\n"):
            lines = run.splitlines()
            errors = [line for line in lines if line.startswith("stderr: ")]
            assert len(errors) == {"exit 0": 0, "exit 2": 1}[lines[-1]], lines[0]
            for line in lines:
                assert not line.startswith("warning: "), lines[0]
                assert not re.search(r"\bnan\b", line), lines[0]
