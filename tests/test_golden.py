"""Golden CLI reports: every stored argv must reproduce its stdout byte for byte.

Each case replays one argv through ``cli.main`` from inside
``tests/golden/`` (the model path is part of the printed manifest) and
compares the stdout, and for ``simulate`` the ``decay.csv`` mirror, with
the files stored next to the models.  A change that alters a report on
purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

which first prints, for every file that changes, the number of changed
leaves (JSON values, or CSV cells for decay.csv), the worst relative
change with its leaf, and every non-numeric leaf that changed.  It
refuses to write, and exits non-zero, when a non-numeric leaf (a
boolean, string or null: a verdict, status or flag) that both sides
have changes; a new leaf is written.
"""

import contextlib
import csv
import io
import json
import os
import sys
from pathlib import Path

import pytest

from csviu import cli, sim

GOLDEN = Path(__file__).resolve().parent / "golden"

#: "OUT" stands for the --output-dir; it never appears in stdout.
COMMANDS = {
    "analyze-0.9": ["analyze", "{model}", "--alpha", "0.9"],
    # sqrt(alpha) r(A) >= 1 on both models: the not-stable branch of check_stability
    "analyze-5": ["analyze", "{model}", "--alpha", "5"],
    "norm-0.9": ["norm", "{model}", "--alpha", "0.9"],
    "norm-0.99": ["norm", "{model}", "--alpha", "0.99"],
    "norm-power": ["norm", "{model}", "--power"],
    "norm-counter": ["norm", "{model}", "--alpha", "1.2", "--kappa", "40",
                     "--x0", "1.0"],
    "norm-counter-1.0": ["norm", "{model}", "--alpha", "1.0", "--kappa", "7",
                         "--x0", "0.5"],
    "sweep": ["sweep", "{model}"],
    "simulate-checks": ["simulate", "{model}", "--paths", "500", "--horizon",
                        "20", "--seed", "7", "--alpha", "0.9", "--x0", "1.0",
                        "--noise", "rademacher", "--validate-representation",
                        "--check-decay", "--output-dir", "OUT"],
    # x0 = 0: the reports carry the closed forms and their z-scores
    "simulate-decay-0.9": ["simulate", "{model}", "--paths", "500", "--horizon",
                           "20", "--seed", "7", "--alpha", "0.9", "--check-decay"],
    "simulate-decay-1.0": ["simulate", "{model}", "--paths", "500", "--horizon",
                           "20", "--seed", "7", "--alpha", "1.0", "--check-decay"],
    # three path blocks, so the estimators' block seams are fenced too
    "simulate-blocks": ["simulate", "{model}", "--paths", "9000", "--horizon",
                        "20", "--seed", "7", "--alpha", "0.9", "--x0", "1.0",
                        "--noise", "rademacher", "--validate-representation",
                        "--check-decay", "--output-dir", "OUT"],
}
MODELS = ("scalar", "n3", "n10")
CASES = [f"{model}-{command}" for model in MODELS for command in COMMANDS]


def replay(case, out_dir, extra=()):
    """Run one case, its argv followed by ``extra``, from inside GOLDEN; return (exit code, stdout, decay.csv or None)."""
    model, command = case.split("-", 1)
    argv = [
        str(out_dir) if a == "OUT" else a.format(model=f"models/{model}.json")
        for a in COMMANDS[command]
    ] + list(extra)
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


@pytest.mark.usefixtures("hang_guard")
@pytest.mark.parametrize("case", [case for case in CASES if "-simulate-" in case])
def test_drawing_processes_leave_reports_byte_identical(case, tmp_path, monkeypatch):
    # Two and three processes simulate the path blocks, the third on a CPU the
    # affinity is made to show; the stored files, written by one, still match.
    monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: set(range(4)))
    stored_decay = GOLDEN / f"{case}.decay.csv"
    for threads in ("2", "3"):
        code, stdout, decay = replay(case, tmp_path / threads, ["--threads", threads])
        assert code == 0
        assert stdout == (GOLDEN / f"{case}.stdout").read_text()
        assert decay == (stored_decay.read_text() if stored_decay.exists() else None)


def test_drift_report_summarizes_changed_leaves():
    old = json.dumps({"a": 2.0, "b": [1.0, "x"], "c": True})
    new = json.dumps({"a": 2.0 + 2e-12, "b": [1.0, "y"], "d": 0})
    assert drift(old, new, "case.stdout") == (
        "case.stdout: 4 changed leaves; worst relative change 1e-12 at .a; "
        "non-numeric: .b[1]: 'x' -> 'y', .c: True -> '(absent)', .d: '(absent)' -> 0"
    )
    table = "# manifest: m\nk,energy\n0,1.5\n1,3.0\n"
    assert drift(table, table.replace("3.0", "3.3"), "t.decay.csv").startswith(
        "t.decay.csv: 1 changed leaves; worst relative change 0.1 at [1].energy"
    )


def test_fence_breaks_are_non_numeric_changes_on_both_sides():
    old = json.dumps({"a": 2.0, "b": [1.0, "x"], "c": True, "e": None, "f": False})
    new = json.dumps({"a": 3.0, "b": [1.0, "y"], "d": 0, "e": 0.5, "f": 0})
    assert fence_breaks(old, new, "case.stdout") == [
        "case.stdout: .b[1]: 'x' -> 'y'", "case.stdout: .e: None -> 0.5",
        "case.stdout: .f: False -> 0",
    ]


#: Stands for a leaf that one side of a comparison does not have.
ABSENT = "(absent)"


def leaves(text, name):
    """Flatten a stored report (JSON) or decay table (CSV) into {leaf path: value}."""
    if name.endswith(".csv"):
        rows = csv.DictReader(line for line in text.splitlines() if not line.startswith("#"))
        return {f"[{i}].{key}": _number(cell)
                for i, row in enumerate(rows) for key, cell in row.items()}
    flat = {}

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}.{key}")
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, f"{path}[{i}]")
        else:
            flat[path or "."] = node

    walk(json.loads(text), "")
    return flat


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return cell


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def drift(old_text, new_text, name):
    """One line on how a regenerated file differs from the stored one."""
    old, new = leaves(old_text, name), leaves(new_text, name)
    changed = [key for key in sorted(old.keys() | new.keys())
               if old.get(key, ABSENT) != new.get(key, ABSENT)]
    worst, worst_key, other = 0.0, None, []
    for key in changed:
        a, b = old.get(key, ABSENT), new.get(key, ABSENT)
        if _is_number(a) and _is_number(b):
            rel = abs(b - a) / abs(a) if a != 0 else float("inf")
            if worst_key is None or rel > worst:
                worst, worst_key = rel, key
        else:
            other.append(f"{key}: {a!r} -> {b!r}")
    line = f"{name}: {len(changed)} changed leaves"
    if worst_key is not None:
        line += f"; worst relative change {worst:.2g} at {worst_key}"
    return line + "; non-numeric: " + (", ".join(other) if other else "none")


def fence_breaks(old_text, new_text, name):
    """The leaves both files have whose value changed where either side is not a number."""
    old, new = leaves(old_text, name), leaves(new_text, name)
    return [f"{name}: {key}: {old[key]!r} -> {new[key]!r}"
            for key in sorted(old.keys() & new.keys())
            if (old[key], type(old[key])) != (new[key], type(new[key]))
            and not (_is_number(old[key]) and _is_number(new[key]))]


if __name__ == "__main__":
    import tempfile

    os.environ.pop("CSVIU_THREADS", None)
    outputs = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout, decay = replay(case, tmp)
        if code != 0:
            sys.exit(f"{case}: exit {code}")
        outputs[f"{case}.stdout"] = stdout
        if decay is not None:
            outputs[f"{case}.decay.csv"] = decay
    for name, text in outputs.items():
        stored = GOLDEN / name
        if not stored.exists():
            print(f"{name}: new file")
        elif stored.read_text() != text:
            print(drift(stored.read_text(), text, name))
    breaks = [line for name, text in outputs.items() if (GOLDEN / name).exists()
              for line in fence_breaks((GOLDEN / name).read_text(), text, name)]
    if breaks:
        sys.exit("not written: verdicts, statuses and flags may not move\n" + "\n".join(breaks))
    for name, text in outputs.items():
        (GOLDEN / name).write_text(text)
    print(f"wrote {len(outputs)} files")
