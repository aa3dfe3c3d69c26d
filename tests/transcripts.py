"""Transcripts of every command on every shipped config.

Each ``configs/*.json`` and ``tests/data/*.json`` file runs under the five
commands, plus the extra argv of ``EXTRA``, through ``mvhedge.cli.main`` in
this process with RuntimeWarning as an error.  A run's transcript is its
command line, its stdout, its stderr lines (``stderr: ``), any other warning
(``warning: ``) and its exit code.  A run that raises is never written, so a
traceback cannot be pinned.  The roundoff diagnostics (objective gap, max
holdings gap, agrees to) are masked: they measure disagreement at machine
precision, not results.

``python tests/transcripts.py`` rewrites ``tests/data/transcripts/<stem>.txt``,
one file per input; ``tests/test_transcripts.py`` compares them.
"""

import contextlib
import io
import pathlib
import re
import sys
import warnings

ROOT = pathlib.Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # run as a script: this tree's source, not an install
    sys.path.insert(0, str(ROOT / "src"))

from mvhedge.cli import main  # noqa: E402

OUT = ROOT / "tests" / "data" / "transcripts"
INPUTS = sorted([*ROOT.glob("configs/*.json"), *ROOT.glob("tests/data/*.json")])

SEED_1 = ["--paths", "1000", "--seed", "1"]
COMMANDS = [["frontier"], ["hedge"], ["oracle"], ["simulate", *SEED_1], ["solve-qp"]]
EXTRA = {
    "tree_call_binomial": [
        # a constant claim replaces the config's payoff
        ["hedge", "--claim", "1"],
        # wealth away from the tracking value: L0 (w - V0)^2 enters the error
        ["hedge", "--wealth", "0.25"],
        # the defaults: seed 0, and a tree is enumerated exactly
        ["simulate"],
    ],
    "iid_3assets_t4": [
        # squared errors whose squares overflow: the standard error stays finite
        ["simulate", "--wealth", "1e150", *SEED_1],
        # a negative seed draws nothing: exit 2
        ["simulate", "--seed", "-1"],
    ],
    "pii_4assets_t5": [
        # squared errors whose squares overflow: the standard error stays finite
        ["simulate", "--wealth", "1e150", *SEED_1],
    ],
    "iid_long_horizon": [
        # a path past the roll's float range (about 1.3e154): one line, exit 2
        ["simulate", "--wealth", "0.3", "--paths", "500", "--seed", "1"],
    ],
    "iid_long_horizon_t10000": [
        # the standard error's fold keeps a huge second moment finite
        ["simulate", "--wealth", "0.3", *SEED_1],
        # a path past the roll's float range at wealth 1e150: one line, exit 2
        ["simulate", "--wealth", "1e150", *SEED_1],
    ],
}

# Masks the roundoff diagnostics, as printed by oracle and solve-qp.
_ROUNDOFF = re.compile(r"(objective gap|max holdings gap|agrees to) [-+.0-9e]+")


def run(command, path, flags):
    """The transcript of one ``mvhedge`` run on ``path``, as text."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--model", str(path), *flags])
    shown = [command, "--model", path.relative_to(ROOT).as_posix(), *flags]
    lines = ["$ mvhedge " + " ".join(shown), *out.getvalue().splitlines()]
    lines += ["stderr: " + line for line in err.getvalue().splitlines()]
    lines += [f"warning: {w.category.__name__}: {w.message}" for w in caught]
    lines.append(f"exit {code}")
    return _ROUNDOFF.sub(r"\1 *", "\n".join(lines)) + "\n"


def transcript(path):
    """Every run on one input file, separated by blank lines."""
    runs = COMMANDS + EXTRA.get(path.stem, [])
    return "\n".join(run(command, path, flags) for command, *flags in runs)


if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    for path in INPUTS:
        (OUT / f"{path.stem}.txt").write_text(transcript(path), encoding="utf-8")
