"""The exit contract, fuzzed: every input ends in a report with exit 0, or in
one line on stderr with exit 2 or 3; never a traceback, a warning, or a
report that holds NaN or Infinity.

The sizes drawn stay small: n <= 4, at most 300 paths x 400 stages and
at most 2 drawing processes, so no case allocates much or starts many
processes."""

import contextlib
import io
import json
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from csviu import cli

#: Entries at the edges of a double.
EXTREMES = st.sampled_from([1e308, -1e308, 1e154, -1e154, 5e-324, 0.0, 1.0, 3.0])
#: What may stand where a number or a matrix belongs.
WRONG = st.sampled_from([float("nan"), float("inf"), "abc", True, None, {}, [], 3, [["x"]],
                         [[True]]])
ALPHAS = st.sampled_from(["0.9", "0.5", "1", "1.0", "2", "0.999999999", "5", "0", "-1",
                          "nan", "inf", "1e300", "5e-324", "abc", ""])
#: One fault, or none, per document.
FAULTS = st.sampled_from(["none"] * 6 + ["extreme"] * 2 + ["zero", "ragged", "wrong_entry",
                                                          "wrong", "truncated"])


def faulty(draw, M):
    """The matrix M with at most one fault in it."""
    fault = draw(FAULTS)
    i, j = draw(st.integers(0, len(M) - 1)), draw(st.integers(0, len(M[0]) - 1))
    if fault == "extreme":
        M[i][j] = draw(EXTREMES)
    elif fault == "zero":
        M = [[0.0] * len(row) for row in M]
    elif fault == "ragged":
        M[i].append(0.0)
    elif fault == "wrong_entry":
        M[i][j] = draw(WRONG)
    elif fault == "wrong":
        M = draw(WRONG)
    return M, fault


def matrix(draw, rows, cols, scale=0.5):
    return [[draw(st.floats(-scale, scale)) for _ in range(cols)] for _ in range(rows)]


@st.composite
def json_texts(draw, document, fault):
    """The document as JSON text (NaN and Infinity as literals), cut short on a truncated fault."""
    text = json.dumps(document)
    if fault == "truncated":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


@st.composite
def weight_texts(draw, n, cols):
    M = matrix(draw, n, cols, 1.0)
    if cols == n:  # a PSD weight M M^T
        M = [[sum(a * b for a, b in zip(row, col)) for col in M] for row in M]
    M, fault = faulty(draw, M)
    return draw(json_texts(M, fault))


@st.composite
def model_texts(draw):
    n, r, p = (draw(st.integers(1, 4)) for _ in range(3))
    doc = {"n": n, "r": r, "p": p, "A": matrix(draw, n, n), "sigma_x": matrix(draw, n, n),
           "sigma_bar_x": matrix(draw, n, n, 0.3), "sigma": matrix(draw, n, r),
           "C": matrix(draw, p, n, 1.0)}
    name = draw(st.sampled_from(["A", "sigma_x", "sigma_bar_x", "sigma", "C"]))
    doc[name], fault = faulty(draw, doc[name])
    if fault == "none":
        fault = draw(st.sampled_from(["none"] * 5 + ["missing", "dimension", "inputs"]))
    if fault == "missing":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif fault == "dimension":
        doc[draw(st.sampled_from(["n", "r", "p"]))] = draw(
            st.sampled_from([0, -1, 5, 2.5, 2.0, "2", True, None]))
    elif fault == "inputs":
        doc.update(m=1, B=matrix(draw, n, 1), D=matrix(draw, p, 1))
    return n, p, draw(json_texts(doc, fault))


def simulate_flags(draw):
    flags = ["--paths", str(draw(st.sampled_from([60, 300, 7, 1, 2, 0]))),
             "--horizon", str(draw(st.sampled_from([40, 5, 400, 1, 0, -1]))),
             "--seed", str(draw(st.sampled_from([7, 0, -3]))),
             "--threads", str(draw(st.integers(1, 2))),
             "--noise", draw(st.sampled_from(["gaussian", "rademacher", "uniform"]))]
    for flag in ("--validate-representation", "--check-decay", "--dump"):
        if draw(st.booleans()):
            flags.append(flag)
    return flags


@st.composite
def invocations(draw):
    """argv for one CLI run, with the files it names."""
    n, p, model = draw(model_texts())
    files = {"model.json": model}
    command = draw(st.sampled_from(["simulate", "analyze", "norm", "simulate", "analyze",
                                    "power", "norm-sweep", "sweep"]))
    argv = [command if command in ("analyze", "norm", "sweep", "simulate") else "norm",
            "model.json"]
    if command == "power":
        argv.append("--power")
    elif command == "norm-sweep":
        argv += ["--sweep", draw(st.sampled_from(["", "0.5,1", "0.9,0.9,3", "0.5,nan",
                                                  "abc", ",", "1e300", "-1,0.5"]))]
    elif command == "sweep":
        argv += ["--alphas", draw(st.sampled_from(["", "0.5,1", "0.99,0.999", "inf", "0"]))]
    else:
        argv += ["--alpha", draw(ALPHAS)]
    if command == "norm":
        if draw(st.booleans()):
            argv += ["--kappa", draw(st.sampled_from(["0", "-1", "5", "1000000", "abc"]))]
        if draw(st.booleans()):
            argv += ["--x0", draw(st.sampled_from(["0", "1", "1e308", "nan", "1,2", "abc",
                                                   ",".join(["0.5"] * n)]))]
    if command == "simulate":
        argv += simulate_flags(draw)
        if draw(st.booleans()):
            argv += ["--x0", draw(st.sampled_from(["0", "1", "1e154", "nan", "1,2,3,4,5"]))]
    if command == "analyze" and draw(st.booleans()):
        files["gain.json"] = draw(weight_texts(n, p))
        argv += ["--G", "gain.json"]
    if draw(st.integers(0, 3)) == 0:
        files["weight.json"] = draw(weight_texts(n, n))
        argv += ["--Q", "weight.json"]
    if "--dump" in argv or draw(st.integers(0, 7)) == 0:
        argv += ["--output-dir", "out"]
    return argv, files


def reject_constant(name):
    raise ValueError(f"{name} in an exit-0 report")


def run_in_process(argv, workdir):
    """Exit code, stdout, stderr and the warnings of one cli.main run in workdir."""
    argv = [str(workdir / a) if a.endswith(".json") or a == "out" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    return tmp_path_factory.mktemp("exit_contract")


#: A scalar model whose default weight C^T C overflows a double.
HUGE_C = json.dumps({"n": 1, "r": 1, "p": 1, "A": [[0.5]], "sigma_x": [[0.2]],
                     "sigma_bar_x": [[0.3]], "sigma": [[0.1]], "C": [[1e200]]})
SHORT_SIM = ["--paths", "10", "--horizon", "5", "--seed", "1", "--alpha", "0.9"]
#: The golden scalar model, whose backward recursion overflows at alpha = 1e300.
SCALAR = (Path(__file__).parent / "golden" / "models" / "scalar.json").read_text()
#: The golden n = 10 model, whose x0^T Q x0 overflows at --x0 1e154.
N10 = (Path(__file__).parent / "golden" / "models" / "n10.json").read_text()
#: The golden scalar model with a name in Latin-1 bytes: not UTF-8 text.
LATIN1 = SCALAR.replace("{", '{"name": "caf\u00e9", ', 1).encode("latin-1")


@settings(derandomize=True, deadline=None, max_examples=400, database=None,
          suppress_health_check=list(HealthCheck))
@given(case=invocations())
@example(case=(["analyze", "model.json", "--alpha", "0.9"], {"model.json": HUGE_C}))
@example(case=(["simulate", "model.json", *SHORT_SIM], {"model.json": HUGE_C}))
@example(case=(["simulate", "model.json", "--paths", "60", "--horizon", "40", "--seed", "7",
                "--alpha", "1e300", "--validate-representation"], {"model.json": SCALAR}))
# an --output-dir that names an existing file
@example(case=(["analyze", "model.json", "--alpha", "0.9", "--output-dir", "out"],
               {"model.json": SCALAR, "out": ""}))
@example(case=(["simulate", "model.json", *SHORT_SIM, "--dump", "--output-dir", "out"],
               {"model.json": SCALAR, "out": ""}))
@example(case=(["simulate", "model.json", "--paths", "7", "--horizon", "5", "--seed", "7",
                "--alpha", "0.9", "--x0", "1e154", "--check-decay"], {"model.json": N10}))
# files that are not UTF-8 text, and a list flag with an empty field
@example(case=(["analyze", "model.json", "--alpha", "0.9"], {"model.json": LATIN1}))
@example(case=(["norm", "model.json", "--alpha", "0.9", "--Q", "weight.json"],
               {"model.json": SCALAR, "weight.json": b"[[\xe9]]"}))
@example(case=(["simulate", "model.json", *SHORT_SIM, "--x0", "1,,2"], {"model.json": SCALAR}))
def test_every_input_ends_in_a_report_or_one_line(workspace, case):
    argv, files = case
    workdir = Path(tempfile.mkdtemp(dir=workspace))
    try:
        for name, text in files.items():
            (workdir / name).write_bytes(text if isinstance(text, bytes) else text.encode())
        code, out, err, caught = run_in_process(argv, workdir)
    finally:
        shutil.rmtree(workdir)
    assert code in (0, 2, 3), (argv, code, err)
    if code == 0:
        assert (err, caught) == ("", []), argv
        json.loads(out, parse_constant=reject_constant)
    else:
        assert caught == [], (argv, caught)
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, err)
