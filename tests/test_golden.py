"""Golden CLI reports: every stored argv must reproduce its stdout byte for byte.

Each case replays one argv through ``cli.main`` from inside
``tests/golden/`` (the model path is part of the printed manifest) and
compares the stdout, and for ``simulate`` the ``decay.csv`` mirror, with
the files stored next to the models.  A change that alters a report on
purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from csviu import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

#: "OUT" stands for the --output-dir; it never appears in stdout.
COMMANDS = {
    "analyze-0.9": ["analyze", "{model}", "--alpha", "0.9"],
    "norm-0.9": ["norm", "{model}", "--alpha", "0.9"],
    "norm-0.99": ["norm", "{model}", "--alpha", "0.99"],
    "norm-power": ["norm", "{model}", "--power"],
    "norm-counter": ["norm", "{model}", "--alpha", "1.2", "--kappa", "40",
                     "--x0", "1.0"],
    "sweep": ["sweep", "{model}"],
    "simulate-checks": ["simulate", "{model}", "--paths", "500", "--horizon",
                        "20", "--seed", "7", "--alpha", "0.9", "--x0", "1.0",
                        "--noise", "rademacher", "--validate-representation",
                        "--check-decay", "--output-dir", "OUT"],
}
MODELS = ("scalar", "n3")
CASES = [f"{model}-{command}" for model in MODELS for command in COMMANDS]


def replay(case, out_dir):
    """Run one case from inside GOLDEN; return (exit code, stdout, decay.csv or None)."""
    model, command = case.split("-", 1)
    argv = [
        str(out_dir) if a == "OUT" else a.format(model=f"models/{model}.json")
        for a in COMMANDS[command]
    ]
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    decay = Path(out_dir) / "decay.csv"
    return code, stdout.getvalue(), decay.read_text() if decay.exists() else None


@pytest.mark.parametrize("case", CASES)
def test_report_is_byte_identical(case, tmp_path, monkeypatch):
    monkeypatch.delenv("CSVIU_THREADS", raising=False)
    code, stdout, decay = replay(case, tmp_path)
    assert code == 0
    assert stdout == (GOLDEN / f"{case}.stdout").read_text()
    stored_decay = GOLDEN / f"{case}.decay.csv"
    assert decay == (stored_decay.read_text() if stored_decay.exists() else None)


if __name__ == "__main__":
    import tempfile

    os.environ.pop("CSVIU_THREADS", None)
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout, decay = replay(case, tmp)
        if code != 0:
            sys.exit(f"{case}: exit {code}")
        (GOLDEN / f"{case}.stdout").write_text(stdout)
        if decay is not None:
            (GOLDEN / f"{case}.decay.csv").write_text(decay)
        print(case)
