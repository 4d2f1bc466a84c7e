"""Command-line interface: exit codes, report shapes, artifacts, determinism."""

import argparse
import csv
import io
import json
import os
import signal
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from referencing import Registry, Resource

from csviu import (CsviuModel, check_stability, cli, load_model, norms, ops, sim, solve_lyapunov, solver,
                   stability)
from conftest import make_random_model
from test_sim import assert_no_children, cpus, exact_second_moments, forks  # noqa: F401

N3_MODEL = str(Path(__file__).parent / "golden" / "models" / "n3.json")

SCALAR_DOC = {
    "n": 1, "r": 1, "p": 1,
    "A": [[0.5]], "sigma_x": [[0.2]], "sigma_bar_x": [[0.3]],
    "sigma": [[0.1]], "C": [[1.0]],
}
# sigma_x = 0 puts the model in the exact domain of the discounted closed form
NO_SX_DOC = dict(SCALAR_DOC, sigma_x=[[0.0]])
# sigma_bar_x = 0: additive noise only, where the closed forms are exact as well
NO_SBAR_DOC = dict(SCALAR_DOC, sigma_bar_x=[[0.0]])
# A = 0 with huge state-proportional noise overflows most paths within ~120 stages
EXPLOSIVE_DOC = dict(SCALAR_DOC, A=[[0.0]], sigma_x=[[1.0]], sigma_bar_x=[[40.0]],
                     sigma=[[1.0]])
# |x| grows about 1e6-fold a stage: paths abort near stage 27, and alpha < 1e-12 is stable
FAST_EXPLOSIVE_DOC = dict(EXPLOSIVE_DOC, sigma_bar_x=[[1e6]])
# sigma = 10 puts the noise trace above 1, so varpi(L) overflows where L does not
LOUD_DOC = dict(SCALAR_DOC, sigma=[[10.0]])
# a JSON boolean where a number belongs; numpy alone would read it as A = 1
BOOL_A_DOC = dict(SCALAR_DOC, A=[[True]])
# finite entries whose r_sigma(L_1) overflows a double
HUGE_SBAR_DOC = dict(SCALAR_DOC, sigma_bar_x=[[1e200]])
HUGE_A_DOC = dict(SCALAR_DOC, A=[[1e200]])
# a finite C whose default weight C^T C overflows
HUGE_C_DOC = dict(SCALAR_DOC, C=[[1e200]])
# input matrices that contradict the input dimension m
B_M0_DOC = dict(SCALAR_DOC, m=0, B=[[1.0]])
D_M0_DOC = dict(SCALAR_DOC, m=0, D=[[1.0]])
WIDE_B_DOC = dict(SCALAR_DOC, m=1, B=[[1.0, 2.0]], D=[[0.0]])
NAN_B_DOC = dict(SCALAR_DOC, m=1, B=[[float("nan")]], D=[[0.0]])
NEGATIVE_M_DOC = dict(SCALAR_DOC, m=-1)
# n = 0 leaves B's shape rule unchecked: only the bad dimension is named
NO_STATE_B_DOC = dict(SCALAR_DOC, n=0, m=1, B=[[1.0]], D=[[0.0]])
# C = 0 makes the weight C^T C and so L zero
BLIND_DOC = dict(SCALAR_DOC, C=[[0.0]])
# A = 50 overflows every path within a few stages
RUNAWAY_DOC = dict(SCALAR_DOC, A=[[50.0]], sigma_x=[[0.1]], sigma_bar_x=[[0.1]])
TWO_DIM_DOC = {
    "n": 2, "r": 2, "p": 1,
    "A": [[0.5, 0.1], [0.0, 0.3]],
    "sigma_x": [[0.1, 0.0], [0.0, 0.1]],
    "sigma_bar_x": [[0.2, 0.0], [0.0, 0.2]],
    "sigma": [[0.05, 0.0], [0.0, 0.05]],
    "C": [[1.0, 1.0]],
}

H2_SCALAR_09 = 0.6484149855907785
VARPI_SCALAR_09 = 0.07204610951008648
POWER_SCALAR = 0.05 / 0.66


def model_doc(model):
    """The JSON document of a model without inputs."""
    doc = {"n": model.n, "r": model.r, "p": model.p}
    for name in ("A", "sigma_x", "sigma_bar_x", "sigma", "C"):
        doc[name] = getattr(model, name).tolist()
    return doc


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli_models")
    paths = {}
    for name, doc in (("scalar", SCALAR_DOC), ("no_sx", NO_SX_DOC), ("no_sbar", NO_SBAR_DOC),
                      ("explosive", EXPLOSIVE_DOC), ("two_dim", TWO_DIM_DOC),
                      ("loud", LOUD_DOC), ("bool_a", BOOL_A_DOC),
                      ("huge_sbar", HUGE_SBAR_DOC), ("huge_a", HUGE_A_DOC),
                      ("huge_c", HUGE_C_DOC), ("b_m0", B_M0_DOC), ("d_m0", D_M0_DOC),
                      ("wide_b", WIDE_B_DOC), ("nan_b", NAN_B_DOC),
                      ("negative_m", NEGATIVE_M_DOC), ("no_state_b", NO_STATE_B_DOC),
                      ("blind", BLIND_DOC), ("runaway", RUNAWAY_DOC),
                      ("fast_explosive", FAST_EXPLOSIVE_DOC)):
        path = base / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    gain = base / "gain.json"
    gain.write_text(json.dumps([[-0.5]]))
    paths["gain"] = str(gain)
    # --Q / --G files; json.dumps writes float("nan") as NaN, which json.load accepts
    for name, content in (("eye", [[1.0]]), ("dict", {"a": 1}), ("nan", [[float("nan")]]),
                          ("non_square", [[1.0, 2.0]]), ("ragged", [[1.0], [1.0, 2.0]]),
                          ("huge", [[1.5e308]]), ("near_limit", [[8.9e307]]),
                          ("tiny_negative", [[-1e-12]]), ("negative", [[-1.0]]),
                          ("true", [[True]]), ("bare_number", -0.5), ("flat_list", [-0.5]),
                          ("big_gain", [[1e200]]), ("big_gain_3x2", [[1e200] * 2] * 3)):
        path = base / f"matrix_{name}.json"
        path.write_text(json.dumps(content))
        paths[f"matrix_{name}"] = str(path)
    malformed = base / "malformed.json"
    malformed.write_text("{not json")
    paths["malformed"] = str(malformed)
    # Latin-1 bytes: a model, --Q or --G file that is not UTF-8 text
    latin1 = base / "latin1.json"
    latin1.write_bytes(json.dumps(dict(SCALAR_DOC, name="caf\u00e9"),
                                  ensure_ascii=False).encode("latin-1"))
    paths["latin1"] = str(latin1)
    paths["missing"] = str(base / "does_not_exist.json")
    return paths


@pytest.fixture
def run(capsys):
    def _run(argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture(scope="module")
def schema_validator():
    schema_dir = resources.files("csviu") / "schemas"
    common = Resource.from_contents(
        json.loads((schema_dir / "common.schema.json").read_text())
    )
    registry = common @ Registry()

    def _validator(name):
        schema = json.loads((schema_dir / f"{name}.schema.json").read_text())
        return jsonschema.Draft202012Validator(schema, registry=registry)

    return _validator


class TestExitCodes:
    def test_analyze_succeeds(self, run, models):
        code, out, _ = run(["analyze", models["scalar"], "--alpha", "0.9"])
        assert code == 0
        assert json.loads(out)["command"] == "analyze"

    def test_analyze_not_stable_is_still_a_computed_answer(self, run, models):
        code, out, _ = run(["analyze", models["scalar"], "--alpha", "3.0"])
        assert code == 0
        report = json.loads(out)
        assert report["stability"]["verdict"] == "not_stable"
        assert report["lyapunov"] is None

    def test_norm_at_unstable_alpha_is_numerical_failure(self, run, models):
        code, out, err = run(["norm", models["scalar"], "--alpha", "3.0"])
        assert code == 3
        assert out == ""
        assert "no PSD solution" in err

    def test_decay_check_at_unstable_alpha_is_numerical_failure(self, run, models):
        code, out, err = run(["simulate", models["scalar"], "--paths", "100",
                              "--horizon", "10", "--seed", "3", "--alpha", "3.0",
                              "--check-decay"])
        assert code == 3
        assert out == ""
        assert err.startswith("error:")

    def test_excess_aborted_paths_fail_after_reporting(self, run, models):
        code, out, err = run(["simulate", models["explosive"], "--paths", "300",
                              "--horizon", "120", "--seed", "7", "--alpha", "0.5"])
        assert code == 3
        # the report is still printed so the surviving-path estimates are usable
        report = json.loads(out)
        assert report["aborted_paths"] == 276
        assert report["abort_fraction"] == pytest.approx(0.92)
        assert "276 of 300 paths aborted" in err

    def test_representation_check_with_no_survivors_reports_nulls(self, run, models,
                                                                   schema_validator):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(["simulate", models["runaway"], "--paths", "50",
                                  "--horizon", "200", "--seed", "1", "--alpha", "0.5",
                                  "--x0", "1", "--validate-representation"])
        assert code == 3
        assert err == "error: 50 of 50 paths aborted (100.00% > 1%)\n"
        report = json.loads(out)
        schema_validator("simulate").validate(report)
        representation = report["representation"]
        assert representation.pop("n_paths") == 0
        assert set(representation.values()) == {None}

    def test_input_errors_exit_two(self, run, models):
        cases = [
            (["simulate", models["scalar"], "--paths", "0", "--horizon", "10",
              "--seed", "3", "--alpha", "0.9"], "n_paths"),
            (["analyze", models["missing"], "--alpha", "0.9"], "No such file"),
            (["analyze", models["malformed"], "--alpha", "0.9"], "malformed JSON"),
            (["simulate", models["scalar"], "--paths", "10", "--horizon", "5",
              "--seed", "3", "--alpha", "0.9", "--dump"], "--dump"),
            (["norm", models["scalar"], "--alpha", "1.2", "--kappa", "5",
              "--x0", "1,2"], "x0"),
            (["sweep", models["scalar"], "--alphas", "nan,0.5"], "alpha must be"),
            (["norm", models["scalar"], "--alpha", "1.5", "--kappa", "-3"], "kappa"),
            (["norm", models["scalar"], "--alpha", "0.9", "--kappa", "-3"], "alpha >= 1"),
            (["norm", models["scalar"], "--alpha", "0.9", "--kappa", "5"], "alpha >= 1"),
            (["norm", models["scalar"], "--power", "--x0", "5", "--kappa", "7"],
             "only with --alpha"),
            (["norm", models["scalar"], "--sweep", "--kappa", "3"], "only with --alpha"),
            (["norm", models["scalar"], "--sweep", "0.5,0.9", "--x0", "1"],
             "only with --alpha"),
            (["norm", models["scalar"], "--alpha", "1.2", "--x0", "1.0"], "requires --kappa"),
            (["simulate", models["scalar"], "--paths", "1000000000", "--horizon",
              "1000000", "--seed", "3", "--alpha", "0.9"], "--paths"),
            (["norm", models["scalar"], "--alpha", "1.2", "--kappa", "40",
              "--x0", "nan"], "x0 entries must be finite"),
            (["norm", models["scalar"], "--alpha", "1.2", "--kappa", "40",
              "--x0", "inf"], "x0 entries must be finite"),
            (["norm", models["scalar"], "--alpha", "1.2", "--kappa", "40",
              "--x0", "1e200"], "--x0"),
            (["norm", models["scalar"], "--alpha", "1.2", "--kappa", "100000"],
             "--kappa"),
            (["norm", models["scalar"], "--alpha", "1.0", "--kappa", "1" + "0" * 400],
             "--kappa"),
            (["simulate", models["scalar"], "--paths", "10", "--horizon", "1100",
              "--seed", "1", "--alpha", "0.5", "--check-decay", "--x0", "1.0"],
             "--horizon"),
        ]
        scalar, m = models["scalar"], lambda name: models[f"matrix_{name}"]
        short_sim = ["--paths", "10", "--horizon", "5", "--seed", "1", "--alpha", "0.9"]
        # --Q and --G files that are not finite numeric matrices of the right shape
        cases += [
            (["norm", scalar, "--alpha", "0.9", "--Q", m("dict")], "--Q"),
            (["analyze", scalar, "--alpha", "0.9", "--G", m("dict")], "--G"),
            (["analyze", scalar, "--alpha", "0.9", "--G", m("nan")], "--G"),
            (["norm", scalar, "--alpha", "0.9", "--Q", m("nan")], "--Q"),
            (["norm", scalar, "--alpha", "0.9", "--Q", m("non_square")], "--Q"),
            (["norm", scalar, "--alpha", "0.9", "--Q", m("ragged")], "--Q"),
            (["analyze", scalar, "--alpha", "0.9", "--G", m("ragged")], "--G"),
            (["norm", scalar, "--alpha", "0.9", "--Q", m("true")], "--Q holds a boolean"),
            (["analyze", scalar, "--alpha", "0.9", "--G", m("true")], "--G holds a boolean"),
            (["analyze", models["bool_a"], "--alpha", "0.9"], "A holds a boolean"),
            (["analyze", scalar, "--alpha", "0.9", "--G", m("bare_number")],
             "--G must have shape"),
            (["analyze", scalar, "--alpha", "0.9", "--G", m("flat_list")],
             "--G must have shape"),
        ]
        # finite --Q entries whose solution, closed forms or Monte Carlo means overflow
        cases += [
            (["analyze", scalar, "--alpha", "0.9", "--Q", m("huge")], "--Q"),
            (["norm", scalar, "--alpha", "0.9", "--Q", m("huge")], "--Q"),
            (["sweep", scalar, "--Q", m("huge")], "--Q"),
            (["simulate", scalar, *short_sim, "--Q", m("huge")], "--Q"),
            (["simulate", scalar, *short_sim, "--Q", m("huge"), "--x0", "1.0"], "--Q"),
            (["norm", scalar, "--alpha", "2.9", "--Q", m("near_limit")], "--alpha"),
            (["analyze", models["loud"], "--alpha", "0.9", "--Q", m("near_limit")], "--Q"),
            (["sweep", scalar, "--Q", m("near_limit")], "--Q"),
        ]
        # files that are not UTF-8 text, list flags with an empty field, and finite
        # gains whose closed loop overflows
        cases += [
            (["analyze", models["latin1"], "--alpha", "0.9"], "latin1.json: not UTF-8 text"),
            (["norm", scalar, "--alpha", "0.9", "--Q", models["latin1"]],
             "--Q file " + models["latin1"] + ": not UTF-8 text"),
            (["analyze", scalar, "--alpha", "0.9", "--G", models["latin1"]],
             "--G file " + models["latin1"] + ": not UTF-8 text"),
            (["simulate", N3_MODEL, *short_sim, "--x0", "1,,2,3"],
             "x0 must be a comma-separated list of numbers"),
            (["sweep", scalar, "--alphas", "0.5,,0.9"],
             "alpha list must be a comma-separated list of numbers"),
            (["sweep", scalar, "--alphas", "0.5,0.9,"],
             "alpha list must be a comma-separated list of numbers"),
            (["analyze", scalar, "--alpha", "0.9", "--G", m("big_gain")],
             "scale down the gain G (--G)"),
            (["analyze", N3_MODEL, "--alpha", "0.9", "--G", m("big_gain_3x2")],
             "scale down the gain G (--G)"),
        ]
        # input matrices that contradict m
        cases += [
            (["analyze", models["b_m0"], "--alpha", "0.9"], "B present but m=0"),
            (["analyze", models["d_m0"], "--alpha", "0.9"], "D present but m=0"),
            (["analyze", models["wide_b"], "--alpha", "0.9"], "B must be 1x1, got 1x2"),
            (["analyze", models["nan_b"], "--alpha", "0.9"], "B has non-finite entries"),
            (["analyze", models["negative_m"], "--alpha", "0.9"], "m must be nonnegative"),
            (["analyze", models["no_state_b"], "--alpha", "0.9"],
             "error: n must be a positive integer\n"),
        ]
        # finite model entries whose r_sigma(L_1) overflows
        cases += [
            ([command, models[name], *flags], "scale down A or sigma_bar_x")
            for name in ("huge_sbar", "huge_a")
            for command, *flags in (["analyze", "--alpha", "0.9"], ["norm", "--alpha", "0.9"],
                                    ["norm", "--power"], ["sweep"])
        ]
        # an --output-dir that names an existing file
        cases += [
            ([command, scalar, *flags, "--output-dir", models["gain"]], "File exists")
            for command, *flags in (["analyze", "--alpha", "0.9"], ["norm", "--alpha", "0.9"],
                                    ["sweep"], ["simulate", *short_sim],
                                    ["simulate", *short_sim, "--dump"])
        ]
        for argv, message in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code, out, err = run(argv)
            assert code == 2, argv
            assert out == ""
            assert err.startswith("error:")
            assert err.count("\n") == 1, (argv, err)
            assert message in err, argv

    @pytest.mark.parametrize("depth, message", [(500, "not a numeric array"),
                                                (100_000, "nested too deeply")])
    @pytest.mark.parametrize("flag", ["model", "--Q", "--G"])
    def test_deeply_nested_json_is_a_parse_error(self, run, models, tmp_path, flag, depth,
                                                 message):
        nested = "[" * depth + "0.5" + "]" * depth
        path = tmp_path / "deep.json"
        if flag == "model":
            path.write_text(json.dumps(dict(SCALAR_DOC, A=None)).replace("null", nested))
            argv = ["analyze", str(path), "--alpha", "0.9"]
        else:
            path.write_text(nested)
            argv = ["analyze", models["scalar"], "--alpha", "0.9", flag, str(path)]
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1, err[:200]
        assert message in err and (flag == "model" or flag in err)

    @pytest.mark.parametrize("flag, text, size, names", [
        ("n", lambda size: "[" * size + "]" * size, 90, "n must be an integer"),
        ("n", lambda size: json.dumps("x" * size), 500, "n must be an integer"),
        # n = 10^size parses; validation reports the shapes it implies.
        ("n", lambda size: "1" + "0" * size, 400, "A must be"),
        # Integers beyond Python's 4300-digit limit on conversion.
        ("n", lambda size: "1" + "0" * size, 5000, "bad.json"),
        ("--Q", lambda size: f"[[1{'0' * size}]]", 5000, "bad.json"),
        ("--G", lambda size: f"[[1{'0' * size}]]", 5000, "bad.json"),
    ])
    def test_error_line_does_not_grow_with_the_bad_value(self, run, models, tmp_path, flag,
                                                          text, size, names):
        path = tmp_path / "bad.json"
        argv = ["analyze", str(path), "--alpha", "0.9"]
        if flag != "n":
            argv = ["analyze", models["scalar"], "--alpha", "0.9", flag, str(path)]
        lengths = []
        for scale in (size, 10 * size):
            if flag == "n":
                path.write_text(json.dumps(dict(SCALAR_DOC, n="N")).replace('"N"', text(scale)))
            else:
                path.write_text(text(scale))
            code, out, err = run(argv)
            assert (code, out) == (2, "")
            assert err.startswith("error:") and err.count("\n") == 1, err[:200]
            assert names in err and (flag == "n" or flag in err), err[:200]
            lengths.append(len(err))
        assert lengths[0] == lengths[1] < 1000

    def test_svec_build_beyond_physical_memory_exits_two(self, run, monkeypatch):
        # At alpha = 5 the n = 3 model takes the dense Stein solve, whose
        # M_1 build is refused from its shapes before anything is allocated.
        monkeypatch.setattr(ops.os, "sysconf",
                            {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 1000}.__getitem__)
        monkeypatch.setattr(ops, "smat", lambda *args: pytest.fail("the basis was built"))
        code, out, err = run(["analyze", N3_MODEL, "--alpha", "5"])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "at n = 3" in err

    @pytest.mark.parametrize("flags", [
        ["analyze", "--alpha", "0.9"],
        ["norm", "--alpha", "0.9"],
        ["sweep"],
        ["simulate", "--paths", "10", "--horizon", "5", "--seed", "1", "--alpha", "0.9"],
    ], ids=["analyze", "norm", "sweep", "simulate"])
    def test_overflowing_default_weight_names_c(self, run, models, flags):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run([flags[0], models["huge_c"], *flags[1:]])
        assert (code, out, caught) == (2, "", [])
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "C^T C" in err and "--Q" in err

    def test_list_flags_take_spaces_refuse_empty_fields_and_echo_briefly(self):
        assert cli._parse_vector(" 1 , 2,3 ", 3).tolist() == [1.0, 2.0, 3.0]
        assert cli._parse_alpha_list("0.5, 0.9") == [0.5, 0.9]
        for text in ("1,,2", "1,2,", ",", " "):
            with pytest.raises(ValueError, match="^x0 must be a comma-separated list"):
                cli._parse_vector(text, 3)
            with pytest.raises(ValueError, match="^alpha list must be a comma-separated list"):
                cli._parse_alpha_list(text)
        with pytest.raises(ValueError, match="^x0 entries must be finite") as raised:
            cli._parse_vector(",".join(["nan"] * 1000), 3)
        assert len(str(raised.value)) < 100

    def test_empty_grid_flags_mean_the_default_grid(self, run, models):
        outs = [run(["sweep", models["scalar"]]), run(["sweep", models["scalar"], "--alphas", ""]),
                run(["norm", models["scalar"], "--sweep", ""])]
        assert outs[0][0] == 0 and outs[0] == outs[1]
        assert json.loads(outs[2][1])["sweep"] == json.loads(outs[0][1])["sweep"]

    def test_near_limit_weight_gives_a_finite_report(self, run, models):
        # L = 8.9e307 / 0.694 is finite; every number that --Q = I prints stays finite
        def leaves(value, path=()):
            if isinstance(value, dict):
                for key, item in value.items():
                    yield from leaves(item, path + (key,))
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    yield from leaves(item, path + (i,))
            else:
                yield path, value

        reports = {}
        for name in ("eye", "near_limit"):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code, out, err = run(["norm", models["scalar"], "--alpha", "0.9",
                                      "--Q", models[f"matrix_{name}"]])
            assert (code, err) == (0, "")
            reports[name] = dict(leaves(json.loads(out)["norms"]))
        assert reports["near_limit"].keys() == reports["eye"].keys()
        for path, value in reports["eye"].items():
            assert (reports["near_limit"][path] is None) == (value is None), path
        assert reports["near_limit"][("L", 0, 0)] > 1e308

    def test_weight_psd_test_allows_the_tolerance(self, models):
        assert cli._load_weight(models["matrix_tiny_negative"], 1)[0, 0] == -1e-12
        with pytest.raises(ValueError, match="positive semidefinite"):
            cli._load_weight(models["matrix_negative"], 1)

    def test_decay_envelope_from_rest_is_zero_past_the_overflow_horizon(self, run, models):
        # 0.5^-k overflows at k = 1023, but from x0 = 0 the envelope is 0 at every k.
        code, out, err = run(["simulate", models["scalar"], "--paths", "10", "--horizon",
                              "1100", "--seed", "1", "--alpha", "0.5", "--check-decay"])
        assert code == 0, err
        rows = json.loads(out)["decay"]
        assert len(rows) == 1101
        assert all(row["bound"] == 0.0 for row in rows)

    def test_dump_without_output_dir_fails_before_simulating(self, run, models,
                                                             monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("simulate_paths called")

        monkeypatch.setattr(cli, "simulate_paths", forbidden)
        code, out, err = run(["simulate", models["scalar"], "--paths", "10",
                              "--horizon", "5", "--seed", "3", "--alpha", "0.9",
                              "--dump"])
        assert code == 2
        assert out == ""
        assert "--dump requires --output-dir" in err

    def test_counter_bound_past_alpha_bar_is_numerical_failure(self, run, models):
        # L_alpha is stable at 2.5 (2.5 * 0.34 < 1) but r_sigma(alpha A) = 1.25.
        code, out, err = run(["norm", models["scalar"], "--alpha", "2.5", "--kappa", "5"])
        assert code == 3
        assert out == ""
        assert "r_sigma(alpha A) < 1" in err

    @pytest.mark.parametrize("name, flags, message", [
        ("no_sbar", ["--alpha", "2"], "I - alpha A^T is singular"),
        ("blind", ["--alpha", "1.2", "--kappa", "5"], "L is singular; "),
    ], ids=["singular-v-bar-resolvent", "singular-L"])
    def test_singular_bound_operators_are_numerical_failures(self, run, models, name, flags,
                                                             message):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(["norm", models[name], *flags])
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["norm", "model.json", "--alpha", "-1.0"],
            ["norm", "model.json"],
            ["simulate", "model.json", "--paths", "10", "--horizon", "5",
             "--seed", "3"],
            ["simulate", "model.json", "--paths", "10", "--horizon", "5",
             "--seed", "3", "--alpha", "0.9", "--noise", "bogus"],
            ["no-such-command"],
            ["norm", "model.json", "--alpha", "nan"],
            ["norm", "model.json", "--alpha", "inf"],
            ["simulate", "model.json", "--paths", "10", "--horizon", "5",
             "--seed", "3", "--alpha", "nan"],
            ["sweep", "model.json", "--kappa", "3"],
            ["analyze", "model.json", "--alpha", "0.9", "--budget", "5"],
            ["analyze", "model.json", "--alpha", "-1.0"],
            ["analyze", "model.json", "--alpha", "nan"],
            ["simulate", "model.json", "--paths", "1" + "0" * 5000, "--horizon", "5",
             "--seed", "3", "--alpha", "0.9"],
            ["norm", "model.json", "--alpha", "0." + "9" * 2998 + "x"],
            ["norm", "model.json", "--alpha", "1.2", "--kappa", "x" * 3000],
            ["simulate", "model.json", "--paths", "10", "--horizon", "5", "--seed", "3",
             "--alpha", "0.9", "--threads", "2" * 3000 + ".5"],
        ],
        ids=["negative-alpha", "no-mode", "missing-alpha", "bad-noise", "unknown",
             "nan-alpha", "inf-alpha", "simulate-nan-alpha", "sweep-kappa", "analyze-budget",
             "analyze-negative-alpha", "analyze-nan-alpha", "5001-digit-paths",
             "3000-char-alpha", "3000-char-kappa", "3000-char-threads"],
    )
    def test_usage_errors_raise_parser_exit(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
        # a bad value is echoed through a bounded repr, not whole
        assert len(captured.err) < 120

    @pytest.mark.parametrize("argv", [["--help"], ["norm", "--help"], ["--version"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: csviu") or out == f"csviu {cli.__version__}\n"


#: Every option string and positional of the parser and each subcommand.
OPTION_SET = {
    "csviu": ["--help", "--version", "-h", "subcommand"],
    "analyze": ["--G", "--Q", "--alpha", "--help", "--output-dir", "-h", "model"],
    "norm": ["--Q", "--alpha", "--help", "--kappa", "--output-dir", "--power", "--sweep",
             "--x0", "-h", "model"],
    "simulate": ["--Q", "--alpha", "--check-decay", "--dump", "--help", "--horizon", "--noise",
                 "--output-dir", "--paths", "--seed", "--threads",
                 "--validate-representation", "--x0", "-h", "model"],
    "sweep": ["--Q", "--alphas", "--help", "--output-dir", "-h", "model"],
}


def test_option_set_is_the_listed_one():
    # A knob added or dropped shows up as a diff of OPTION_SET.
    def names(parser):
        return sorted(s for action in parser._actions for s in action.option_strings or
                      [action.dest])

    parser = cli.build_parser()
    subcommands = next(action.choices for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction))
    got = {"csviu": names(parser), **{name: names(sub) for name, sub in subcommands.items()}}
    assert got == OPTION_SET


class TestAnalyzeReport:
    def test_report_content_and_schema(self, run, models, schema_validator):
        code, out, _ = run(["analyze", models["scalar"], "--alpha", "0.9"])
        assert code == 0
        report = json.loads(out)
        schema_validator("analyze").validate(report)
        assert report["stability"]["verdict"] == "alpha_stable"
        assert report["detectability"]["detectable"] is True
        assert report["alpha_bar"] == pytest.approx(2.0, rel=1e-6)
        lyap = report["lyapunov"]
        assert lyap["varpi_L"] == pytest.approx(VARPI_SCALAR_09)
        assert lyap["L"] == [[pytest.approx(1.4409221902017293)]]

    def test_not_stable_report_validates(self, run, models, schema_validator):
        _, out, _ = run(["analyze", models["scalar"], "--alpha", "3.0"])
        schema_validator("analyze").validate(json.loads(out))

    def test_provided_gain_short_circuits_search(self, run, models, schema_validator):
        code, out, _ = run(["analyze", models["scalar"], "--alpha", "0.9",
                            "--G", models["gain"]])
        assert code == 0
        report = json.loads(out)
        schema_validator("analyze").validate(report)
        det = report["detectability"]
        assert det["G"] == [[-0.5]]
        # A + GC = 0, so the closed loop keeps only the alpha-weighted noise term
        assert det["closed_loop_radius"] == pytest.approx(0.9 * 0.3**2)
        assert det["detectable"] is True


class TestNormReport:
    def test_discounted_closed_forms(self, run, models, schema_validator):
        code, out, _ = run(["norm", models["scalar"], "--alpha", "0.9"])
        assert code == 0
        report = json.loads(out)
        schema_validator("norm").validate(report)
        norms = report["norms"]
        assert norms["h2_discounted"] == pytest.approx(H2_SCALAR_09)
        assert norms["varpi_L"] == pytest.approx(VARPI_SCALAR_09)
        assert norms["energy_offset_g0"] == pytest.approx(norms["h2_discounted"])
        assert norms["power_norm"] is None
        assert norms["counter_bound"] is None
        assert "counter_bound_value" not in norms

    def test_power_norm_report(self, run, models, schema_validator):
        code, out, _ = run(["norm", models["scalar"], "--power"])
        assert code == 0
        report = json.loads(out)
        schema_validator("norm").validate(report)
        assert report["power_norm"] == pytest.approx(POWER_SCALAR)
        assert "norms" not in report

    def test_counter_bound_block(self, run, models, schema_validator):
        code, out, _ = run(["norm", models["scalar"], "--alpha", "1.2",
                            "--kappa", "10", "--x0", "1.0"])
        assert code == 0
        report = json.loads(out)
        schema_validator("norm").validate(report)
        norms = report["norms"]
        assert norms["counter_bound"]["c0"] == pytest.approx(1.0 / 0.592)
        assert norms["counter_bound"]["c1"] == pytest.approx(
            1.2 * (0.05 / 0.592) / 0.2
        )
        assert norms["counter_bound_value"] == pytest.approx(33.729069708108106)

    def test_counter_bound_value_requires_kappa(self, run, models):
        _, out, _ = run(["norm", models["scalar"], "--alpha", "1.2"])
        norms = json.loads(out)["norms"]
        assert norms["counter_bound"] is not None
        assert "counter_bound_value" not in norms


class TestSolveCounts:
    """Each command solves the Lyapunov equation once per distinct alpha."""

    @pytest.fixture
    def solves(self, monkeypatch):
        alphas = []
        solve = norms.solve_lyapunov

        def counting(model, alpha, Q, *args, **kwargs):
            alphas.append(alpha)
            return solve(model, alpha, Q, *args, **kwargs)

        monkeypatch.setattr(norms, "solve_lyapunov", counting)
        return alphas

    def test_counter_bound_reads_the_one_report(self, run, models, solves):
        code, _, _ = run(["norm", models["scalar"], "--alpha", "1.2", "--kappa", "40",
                          "--x0", "1.0"])
        assert code == 0
        assert solves == [1.2]

    @pytest.mark.parametrize("alpha", [0.9, 1.0])
    def test_simulate_shares_its_report_with_the_decay_check(self, run, solves, alpha):
        code, out, _ = run(["simulate", N3_MODEL, "--paths", "500", "--horizon", "20",
                            "--seed", "7", "--alpha", str(alpha), "--check-decay"])
        assert code == 0
        assert "closed_form" in json.loads(out)["estimates"]["abel" if alpha < 1 else "cesaro"]
        assert solves == [alpha]

    def sweep_solvable(self, run, argv):
        code, out, _ = run(argv)
        assert code == 0
        return {row["alpha"] for row in json.loads(out)["sweep"] if row["status"] == "ok"}

    def test_default_sweep_solves_each_alpha_once(self, run, models, solves, smw_calls):
        solvable = self.sweep_solvable(run, ["sweep", models["scalar"]])
        assert len(solvable) == 6
        # through solve_lyapunov, one Stein-SMW step each
        assert sorted(solves) == sorted(solvable)
        assert smw_calls == [1] * 6

    def test_sweep_solves_each_distinct_solvable_alpha_once(self, run, models, solves,
                                                             smw_calls):
        argv = ["sweep", models["scalar"], "--alphas", "0.9,0.5,0.9,3.0"]
        assert self.sweep_solvable(run, argv) == {0.5, 0.9}
        # 3.0 is not stable; alpha = 1 gives L_1
        assert sorted(solves) == [0.5, 0.9, 1.0]
        assert smw_calls == [1] * 3

    @pytest.fixture
    def smw_calls(self, monkeypatch):
        calls = []
        smw_solve = solver._smw_solve

        def counting(model, alpha, C, *args):
            calls.append(len(C))
            return smw_solve(model, alpha, C, *args)

        for module in (solver, stability):
            monkeypatch.setattr(module, "_smw_solve", counting)
        return calls

    @pytest.mark.parametrize("alpha", ["0.9", "5"])
    def test_analyze_reads_verdict_and_solution_from_one_step(self, run, smw_calls, alpha):
        code, out, _ = run(["analyze", N3_MODEL, "--alpha", alpha])
        assert code == 0
        # one step: over [I, Q, E_11..E_nn] where stable, over [I, E_11..E_nn] where not
        assert smw_calls == [1 if alpha == "5" else 2]
        assert (json.loads(out)["lyapunov"] is None) == (alpha == "5")


class TestVerdictOnlyBracket:
    """norm --alpha prints no radius: its verdict comes from the bracket's first
    certifying read, and only a model with none keeps the closed bracket's radius."""

    @pytest.fixture
    def loaded(self, monkeypatch):
        models, brackets = [], []
        load, bracket = cli.load_model, ops.radius_bracket
        monkeypatch.setattr(cli, "load_model", lambda path: models.append(load(path)) or
                            models[-1])
        monkeypatch.setattr(ops, "radius_bracket", lambda *args: brackets.append(args) or
                            bracket(*args))
        return models, brackets

    @pytest.mark.parametrize("alpha, code", [("0.9", 0), ("5", 3)])
    def test_only_a_not_stable_model_keeps_its_radius(self, run, loaded, alpha, code):
        models, brackets = loaded
        got, _, err = run(["norm", N3_MODEL, "--alpha", alpha])
        assert got == code, err
        assert len(models) == 1 and len(brackets) == 1
        if code == 0:
            assert "_unit_radius" not in vars(models[0])
        else:
            radius = vars(models[0])["_unit_radius"]
            assert radius == ops.unit_radius(load_model(N3_MODEL))
            assert f"r_sigma(L_alpha) = {5 * radius:.6g} >= 1" in err


def test_main_dispatches_to_the_command_bound_at_call_time(run, models, monkeypatch):
    # tests/test_golden.py already replays every subcommand through one process's parser
    assert run(["norm", models["scalar"], "--alpha", "0.9"])[0] == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_norm", lambda args: calls.append(args.alpha) or 0)
    assert run(["norm", models["scalar"], "--alpha", "0.5"])[0] == 0
    assert calls == [0.5]


#: The commands a stable model runs without the svec matrix M_1.
STABLE_COMMANDS = {
    "analyze": ["analyze", "{}", "--alpha", "0.9"],
    "norm": ["norm", "{}", "--alpha", "0.9"],
    "power": ["norm", "{}", "--power"],
    "sweep": ["sweep", "{}"],
    "simulate": ["simulate", "{}", "--paths", "200", "--horizon", "10", "--seed", "3",
                 "--alpha", "0.9", "--check-decay"],
}


class TestSteinSMWFastPath:
    """Stable models are analysed on n-by-n matrices, without M_1 and without scipy."""

    @pytest.fixture(scope="class")
    def stable_models(self, models, tmp_path_factory):
        path = tmp_path_factory.mktemp("n20") / "n20.json"
        path.write_text(json.dumps(model_doc(make_random_model(20, 20, target=0.8))))
        return {"scalar": models["scalar"], "n3": N3_MODEL, "n20": str(path)}

    @pytest.mark.parametrize("command", sorted(STABLE_COMMANDS))
    @pytest.mark.parametrize("name", ["scalar", "n3", "n20"])
    def test_stable_commands_build_no_svec_matrix(self, run, stable_models, monkeypatch,
                                                  name, command):
        def refuse(*args):
            raise AssertionError(f"operator_matrix{args[1:]} built")

        monkeypatch.setattr(ops, "operator_matrix", refuse)
        code, _, err = run([a.format(stable_models[name]) for a in STABLE_COMMANDS[command]])
        assert code == 0, err

    def test_analyze_imports_no_scipy(self):
        # a scipy import would add its load time and memory to every command's set-up;
        # at alpha = 5 n3 is not stable, so the detectability search runs past G = 0
        script = ("import sys; from csviu.cli import main; code = main(sys.argv[1:]); "
                  "print('scipy' in sys.modules, file=sys.stderr); sys.exit(code)")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        for alpha in ("0.9", "5"):
            proc = subprocess.run([sys.executable, "-c", script, "analyze", N3_MODEL,
                                   "--alpha", alpha], capture_output=True, text=True, env=env,
                                  timeout=300)
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr.splitlines()[-1] == "False", alpha


class TestAnalyzeAgreement:
    """analyze's one Stein-SMW step reads as check_stability and solve_lyapunov do."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 20])
    def test_matches_check_stability_and_solve_lyapunov(self, run, tmp_path, n):
        path = tmp_path / f"n{n}.json"
        path.write_text(json.dumps(model_doc(make_random_model(300 + n, n, target=0.8))))
        model = load_model(str(path))
        for alpha in (0.5, 0.9, 0.99, 1.0, 1.3, 3.0):
            code, out, err = run(["analyze", str(path), "--alpha", str(alpha)])
            assert code == 0, err
            report = json.loads(out)
            got, expected = report["stability"], check_stability(model, alpha)
            for name in ("crit_ii", "crit_iii", "crit_v_part1", "crit_v_part2",
                         "eig_clause", "verdict", "marginal"):
                assert got[name] == getattr(expected, name), (n, alpha, name)
            for name, radius in expected.spectral_radii.items():
                assert got["spectral_radii"][name] == (
                    None if radius is None else pytest.approx(radius, rel=1e-12, abs=0.0)
                ), (n, alpha, name)
            if expected.verdict == "not_stable":
                assert report["lyapunov"] is None
                continue
            L = solve_lyapunov(model, alpha, model.C.T @ model.C).L
            gap = np.abs(np.asarray(report["lyapunov"]["L"]) - L).max()
            assert gap <= 1e-13 * np.abs(L).max(), (n, alpha)

    def test_singular_capacitance_under_a_passing_verdict_exits_3(self, run, monkeypatch):
        smw_solve = solver._smw_solve

        def singular(model, alpha, C, *args):
            return None, smw_solve(model, alpha, C, *args)[1]

        # only a marginal verdict can pass without the witness of (iii)
        monkeypatch.setattr(stability, "_smw_solve", singular)
        monkeypatch.setattr(stability, "MARGINAL_TOL", 10.0)
        code, out, err = run(["analyze", N3_MODEL, "--alpha", "0.9"])
        assert (code, out) == (3, "")
        assert "singular" in err


class TestDetectabilitySearch:
    def test_search_warns_nothing(self, run, tmp_path):
        # Not stable at alpha = 0.9 with two outputs: the search runs past -A C^+.
        # A pole-placement gain printed a convergence UserWarning here on an exit-0 run.
        path = tmp_path / "n6.json"
        model = make_random_model(907550023, 6, target=1.9394404097101847, p=2)
        path.write_text(json.dumps(model_doc(model)))
        for action in ("error", "always"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                code, out, err = run(["analyze", str(path), "--alpha", "0.9"])
            assert (code, err, caught) == (0, "", []), action
            assert json.loads(out)["stability"]["verdict"] == "not_stable"


class TestSweep:
    def test_default_grid_takes_no_svec_eigensolve(self, run, models, monkeypatch):
        # two_dim has n = 2, so its svec representations are 3 x 3; the
        # radius bracket decides on it, so only A (2 x 2) is eigensolved.
        shapes = []
        eigvals = np.linalg.eigvals

        def counting(M):
            shapes.append(np.shape(M))
            return eigvals(M)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        code, _, _ = run(["sweep", models["two_dim"]])
        assert code == 0
        assert shapes == [(2, 2)]

    @pytest.mark.parametrize("model", ["scalar", "n3"])
    def test_rows_are_bit_identical_to_norm_at_the_same_alpha(self, run, models, model):
        path = N3_MODEL if model == "n3" else models["scalar"]
        code, out, _ = run(["sweep", path, "--alphas", "0.5,0.9,0.99,0.999,1.0,1.2"])
        assert code == 0
        rows = json.loads(out)["sweep"]
        reports = {}
        for row in rows:
            code, out, _ = run(["norm", path, "--alpha", repr(row["alpha"])])
            assert code == 0
            reports[row["alpha"]] = json.loads(out)["norms"]
        L1 = np.array(reports[1.0]["L"])
        for row in rows:
            report = reports[row["alpha"]]
            assert row["varpi_L"] == report["varpi_L"]
            assert row["h2_discounted"] == report["h2_discounted"]
            assert row["dist_to_L1"] == np.abs(np.array(report["L"]) - L1).max()

    def test_alias_stdout_is_identical(self, run, models):
        _, out_norm, _ = run(["norm", models["scalar"], "--sweep", "0.5,0.9,1.5"])
        _, out_alias, _ = run(["sweep", models["scalar"], "--alphas", "0.5,0.9,1.5"])
        assert out_alias == out_norm

    def test_default_grid(self, run, models, schema_validator):
        code, out, _ = run(["norm", models["scalar"], "--sweep"])
        assert code == 0
        report = json.loads(out)
        schema_validator("norm").validate(report)
        rows = report["sweep"]
        assert [r["alpha"] for r in rows] == [0.5, 0.9, 0.99, 0.999, 1.0, 1.05]
        assert all(r["status"] == "ok" for r in rows)
        # at alpha = 1/2 the discount factor alpha/(1-alpha) is exactly one
        assert rows[0]["h2_discounted"] == pytest.approx(rows[0]["varpi_L"])

    def test_not_stable_rows_carry_nulls(self, run, models, schema_validator):
        code, out, _ = run(["norm", models["scalar"], "--sweep", "0.9,3.0"])
        assert code == 0
        report = json.loads(out)
        schema_validator("norm").validate(report)
        ok_row, bad_row = report["sweep"]
        assert ok_row["status"] == "ok"
        assert bad_row["status"] == "not_stable"
        assert bad_row["spectral_radius"] == pytest.approx(3.0 * 0.34)
        for field in ("varpi_L", "h2_discounted", "abel_gap", "dist_to_L1"):
            assert bad_row[field] is None


class TestSimulateReport:
    def test_closed_form_attached_for_zero_start(self, run, models, schema_validator):
        code, out, _ = run(["simulate", models["scalar"], "--paths", "200",
                            "--horizon", "20", "--seed", "3", "--alpha", "0.9"])
        assert code == 0
        report = json.loads(out)
        schema_validator("simulate").validate(report)
        abel = report["estimates"]["abel"]
        assert abel["closed_form"] == pytest.approx(H2_SCALAR_09)
        # the z-score reads the closed form over the 20 simulated stages
        assert abel["closed_form_horizon"] < abel["closed_form"]
        assert abel["z_score"] == pytest.approx(
            (abel["value"] - abel["closed_form_horizon"]) / abel["std_error"]
        )
        # both noise channels active: the closed form undershoots the true energy
        assert 3.0 < abel["z_score"] < 10.0
        assert report["aborted_paths"] == 0
        assert report["abort_fraction"] == 0.0

    def test_closed_form_matches_exact_variant(self, run, models):
        code, out, _ = run(["simulate", models["no_sx"], "--paths", "2000",
                            "--horizon", "40", "--seed", "101", "--alpha", "0.9"])
        assert code == 0
        abel = json.loads(out)["estimates"]["abel"]
        assert abs(abel["z_score"]) < 3.0

    @pytest.mark.parametrize("name", ["no_sx", "no_sbar"])
    def test_closed_form_horizon_sums_the_exact_moments(self, run, models, name):
        # With one noise channel off the second-moment recursion closes.
        m = exact_second_moments(load_model(models[name]), 0.0, 20)
        argv = ["simulate", models[name], "--paths", "10", "--horizon", "20", "--seed", "3"]
        _, out, _ = run(argv + ["--alpha", "0.9"])
        abel = json.loads(out)["estimates"]["abel"]
        assert abel["closed_form_horizon"] == pytest.approx(0.9 ** np.arange(21) @ m, rel=1e-12)
        _, out, _ = run(argv + ["--alpha", "1.0"])
        cesaro = json.loads(out)["estimates"]["cesaro"]
        assert cesaro["closed_form_horizon"] == pytest.approx(m[:20].mean(), rel=1e-12)

    def test_cesaro_from_nonzero_start_has_no_z_score(self, run, models):
        # The start's transient has no closed form, so only the limit is shown.
        _, out, _ = run(["simulate", models["scalar"], "--paths", "100", "--horizon", "10",
                         "--seed", "3", "--alpha", "1.0", "--x0", "1.0"])
        cesaro = json.loads(out)["estimates"]["cesaro"]
        assert cesaro["closed_form"] == pytest.approx(POWER_SCALAR)
        assert "closed_form_horizon" not in cesaro
        assert "z_score" not in cesaro

    def test_no_closed_form_for_nonzero_start(self, run, models):
        _, out, _ = run(["simulate", models["scalar"], "--paths", "100",
                         "--horizon", "10", "--seed", "3", "--alpha", "0.9",
                         "--x0", "1.0"])
        abel = json.loads(out)["estimates"]["abel"]
        assert "closed_form" not in abel
        assert "z_score" not in abel

    def test_cesaro_block_only_at_alpha_one(self, run, models, schema_validator):
        code, out, _ = run(["simulate", models["scalar"], "--paths", "200",
                            "--horizon", "20", "--seed", "3", "--alpha", "1.0"])
        assert code == 0
        report = json.loads(out)
        schema_validator("simulate").validate(report)
        assert "closed_form" not in report["estimates"]["abel"]
        cesaro = report["estimates"]["cesaro"]
        assert cesaro["closed_form"] == pytest.approx(POWER_SCALAR)
        assert cesaro["z_score"] > 3.0

        _, out, _ = run(["simulate", models["scalar"], "--paths", "100",
                         "--horizon", "10", "--seed", "3", "--alpha", "0.9"])
        assert "cesaro" not in json.loads(out)["estimates"]

    def test_manifest_echoes_run_configuration(self, run, models):
        _, out, _ = run(["simulate", models["scalar"], "--paths", "50",
                         "--horizon", "5", "--seed", "3", "--alpha", "0.9",
                         "--noise", "uniform"])
        config = json.loads(out)["manifest"]["config"]
        assert config["paths"] == 50
        assert config["horizon"] == 5
        assert config["seed"] == 3
        assert config["alpha"] == 0.9
        assert config["noise_kind"] == "uniform"
        assert config["x0"] == [0.0]
        assert config["Q"] == "C^T C"

    def test_diagnostic_blocks(self, run, models, schema_validator):
        code, out, _ = run(["simulate", models["scalar"], "--paths", "400",
                            "--horizon", "15", "--seed", "19", "--alpha", "0.9",
                            "--x0", "1.0", "--validate-representation",
                            "--check-decay"])
        assert code == 0
        report = json.loads(out)
        schema_validator("simulate").validate(report)
        rep = report["representation"]
        assert set(rep) == {"lhs", "rhs", "gap", "std_error", "z", "n_paths",
                            "sign_noise_term", "corrected_gap",
                            "corrected_std_error"}
        decay = report["decay"]
        assert len(decay) == 16
        assert set(decay[0]) == {"k", "energy", "std_error", "level", "bound",
                                 "violated"}


class TestDeterminismAndThreads:
    SIM = ["--paths", "500", "--horizon", "15", "--seed", "11", "--alpha", "0.9"]

    def test_repeated_runs_are_byte_identical(self, run, models):
        _, first, _ = run(["simulate", models["scalar"], *self.SIM])
        _, second, _ = run(["simulate", models["scalar"], *self.SIM])
        assert second == first

    @pytest.mark.usefixtures("hang_guard")
    def test_thread_count_does_not_change_output(self, run, models):
        _, one, _ = run(["simulate", models["scalar"], *self.SIM, "--threads", "1"])
        _, three, _ = run(["simulate", models["scalar"], *self.SIM, "--threads", "3"])
        assert three == one

    def test_environment_does_not_waive_thread_validation(self, run, models,
                                                          monkeypatch):
        monkeypatch.setenv("CSVIU_THREADS", "4")
        code, out, err = run(["simulate", models["scalar"], *self.SIM,
                              "--threads", "0"])
        assert code == 2
        assert out == ""
        assert "threads" in err

    def test_thread_environment_variable_is_ignored(self, run, models, monkeypatch):
        _, baseline, _ = run(["simulate", models["scalar"], *self.SIM])
        monkeypatch.setenv("CSVIU_THREADS", "abc")
        code, out, _ = run(["simulate", models["scalar"], *self.SIM])
        assert code == 0
        assert out == baseline

    @pytest.mark.usefixtures("hang_guard")
    def test_dump_and_checks_are_byte_identical_at_1_2_3_threads(self, run, models, tmp_path,
                                                                cpus):
        # Three path blocks with aborts in each: at --threads 2 block 1 is
        # simulated, reduced and formatted in the child, at 3 blocks 1 and 2.
        cpus(3)
        outputs = {}
        for threads in ("1", "2", "3"):
            out_dir = tmp_path / threads
            code, out, err = run(["simulate", models["fast_explosive"],
                                  "--paths", str(2 * sim.PATH_BLOCK + 100), "--horizon", "27",
                                  "--seed", "3", "--alpha", "1e-13", "--dump",
                                  "--validate-representation", "--check-decay",
                                  "--threads", threads, "--output-dir", str(out_dir)])
            outputs[threads] = (code, out, err, (out_dir / "decay.csv").read_bytes(),
                                (out_dir / "trajectories.csv").read_bytes())
        assert outputs["2"] == outputs["1"]
        assert outputs["3"] == outputs["1"]
        code, out, _, _, dump = outputs["1"]
        report = json.loads(out)
        assert code == 3 and report["representation"]["n_paths"] > 0
        aborted = {int(row.split(b",")[0]) for row in dump.splitlines()[2:] if b"nan" in row}
        assert len(aborted) == report["aborted_paths"]
        assert {j // sim.PATH_BLOCK for j in aborted} == {0, 1, 2}

    @pytest.mark.usefixtures("hang_guard")
    def test_a_dead_child_exits_3_with_one_line(self, run, models, tmp_path, monkeypatch,
                                                cpus, forks):
        # the child's loop leaves at once, so waiting for block 1 finds it gone
        monkeypatch.setattr(sim, "_child", lambda results, fd: None)
        cpus(2)
        out_dir = tmp_path / "out"
        code, out, err = run(["simulate", models["scalar"], *self.SIM, "--threads", "2",
                              "--paths", str(2 * sim.PATH_BLOCK),
                              "--dump", "--output-dir", str(out_dir)])
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
        assert len(forks) == 1
        assert_no_children()
        assert not (out_dir / "trajectories.csv").exists()

    @pytest.mark.usefixtures("hang_guard")
    def test_a_child_killed_mid_run_exits_3_with_one_line(self, run, models, monkeypatch,
                                                          cpus, forks):
        # The child sends block 1 and dies in block 3, after the caller has
        # merged blocks 0 to 2.
        child = sim._child

        def dying(results, fd):
            def first_then_die():
                for i, result in enumerate(results):
                    if i:
                        os.kill(os.getpid(), signal.SIGKILL)
                    yield result

            child(first_then_die(), fd)

        monkeypatch.setattr(sim, "_child", dying)
        cpus(2)
        code, out, err = run(["simulate", models["scalar"], "--paths", str(4 * sim.PATH_BLOCK),
                              "--horizon", "15", "--seed", "11", "--alpha", "0.9",
                              "--threads", "2"])
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
        assert len(forks) == 1
        assert_no_children()

    def test_thread_flag_must_be_positive(self, run, models):
        code, _, err = run(["simulate", models["scalar"], *self.SIM,
                            "--threads", "0"])
        assert code == 2
        assert "threads" in err


class TestArtifacts:
    def test_analyze_writes_manifest_and_report(self, run, models, tmp_path):
        outdir = tmp_path / "analysis"
        _, out, _ = run(["analyze", models["scalar"], "--alpha", "0.9",
                         "--output-dir", str(outdir)])
        assert sorted(p.name for p in outdir.iterdir()) == [
            "manifest.json", "report.json",
        ]
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert set(manifest) == {"command", "model_path", "config",
                                 "tool_version", "output_dir", "timestamp"}
        assert manifest["command"] == "analyze"
        assert manifest["model_path"] == models["scalar"]
        common = json.loads((resources.files("csviu") / "schemas" / "common.schema.json")
                            .read_text())
        jsonschema.Draft202012Validator(
            {"$ref": "#/$defs/manifest", "$defs": common["$defs"]}).validate(manifest)
        assert set(manifest) == set(common["$defs"]["manifest"]["properties"])
        filed = json.loads((outdir / "report.json").read_text())
        printed = json.loads(out)
        assert filed.pop("manifest_file") == "manifest.json"
        assert filed == printed

    def test_sweep_csv_layout(self, run, models, tmp_path):
        outdir = tmp_path / "sweep"
        _, out, _ = run(["norm", models["scalar"], "--sweep", "0.5,0.9",
                         "--output-dir", str(outdir)])
        lines = (outdir / "sweep.csv").read_text().splitlines()
        assert lines[0] == "# manifest: manifest.json"
        assert lines[1] == ("alpha,status,spectral_radius,varpi_L,"
                            "h2_discounted,abel_gap,dist_to_L1")
        assert len(lines) == 2 + len(json.loads(out)["sweep"])

    def test_simulate_dump_and_decay_tables(self, run, models, tmp_path):
        outdir = tmp_path / "sim"
        code, _, _ = run(["simulate", models["scalar"], "--paths", "20",
                          "--horizon", "5", "--seed", "3", "--alpha", "0.9",
                          "--x0", "1.0", "--check-decay", "--dump",
                          "--output-dir", str(outdir)])
        assert code == 0
        assert sorted(p.name for p in outdir.iterdir()) == [
            "decay.csv", "manifest.json", "report.json", "trajectories.csv",
        ]
        traj = (outdir / "trajectories.csv").read_text().splitlines()
        assert traj[0] == "# manifest: manifest.json"
        assert traj[1] == "path,k,x0,y0"
        assert traj[2] == "0,0,1.0,1.0"
        # 20 paths, six stages each (k = 0..5), after the comment and header
        assert len(traj) == 2 + 20 * 6
        decay = (outdir / "decay.csv").read_text().splitlines()
        assert decay[0] == "# manifest: manifest.json"
        assert decay[1] == "k,energy,std_error,level,bound,violated"

    def test_failed_run_leaves_no_dump(self, run, models, tmp_path):
        # The Abel mean overflows after the pass that wrote the dump.
        outdir = tmp_path / "failed"
        code, out, err = run(["simulate", models["scalar"], "--paths", "10", "--horizon", "5",
                              "--seed", "1", "--alpha", "0.9", "--x0", "1.0",
                              "--Q", models["matrix_huge"], "--dump",
                              "--output-dir", str(outdir)])
        assert (code, out) == (2, "")
        assert "not a finite double" in err
        assert not outdir.exists()

    def test_vector_columns_and_start_broadcast(self, run, models, tmp_path):
        outdir = tmp_path / "two_dim"
        _, out, _ = run(["simulate", models["two_dim"], "--paths", "10",
                         "--horizon", "4", "--seed", "5", "--alpha", "0.9",
                         "--x0", "1.0", "--dump", "--output-dir", str(outdir)])
        assert json.loads(out)["manifest"]["config"]["x0"] == [1.0, 1.0]
        traj = (outdir / "trajectories.csv").read_text().splitlines()
        assert traj[1] == "path,k,x0,x1,y0"
        assert traj[2] == "0,0,1.0,1.0,2.0"


class TestCsvBytes:
    """The CSV files are written line by line without the csv module; their bytes are
    csv.writer's."""

    SPECIAL = [np.nan, -0.0, np.inf, -np.inf, 5e-324, 0.0, -1.5e-310, 1e300]

    @pytest.mark.parametrize("n, p", [(1, 1), (3, 2)])
    def test_dump_matches_csv_writer(self, tmp_path, n, p):
        rng = np.random.default_rng(n)
        C = rng.standard_normal((p, n))
        C[0, 0] = -1.0  # y = -x: a +0.0 state gives a -0.0 output
        model = CsviuModel(n=n, r=1, p=p, m=0, A=np.eye(n) / 2, sigma_x=np.zeros((n, n)),
                           sigma_bar_x=np.zeros((n, n)), sigma=np.ones((n, 1)), C=C)
        blocks = []
        for j0, paths in ((0, 3), (sim.PATH_BLOCK, 2)):
            X = rng.standard_normal((4, paths, n))
            X.flat[: len(self.SPECIAL)] = self.SPECIAL
            X[-1, -1] = np.nan  # an aborted path's stage
            blocks.append((j0, X))
        dump = cli._TrajectoryDump(str(tmp_path), model)
        with np.errstate(invalid="ignore"):
            for block in blocks:
                dump.merge(block)
        dump.close()

        expected = io.StringIO()
        expected.write("# manifest: manifest.json\n")
        writer = csv.writer(expected)
        writer.writerow(["path", "k"] + [f"x{i}" for i in range(n)] + [f"y{i}" for i in range(p)])
        for j0, X in blocks:
            with np.errstate(invalid="ignore"):
                Y = np.einsum("kpj,ij->kpi", X, C)
            for j in range(X.shape[1]):
                for k in range(X.shape[0]):
                    writer.writerow([j0 + j, k] + [repr(float(v)) for v in X[k, j]]
                                    + [repr(float(v)) for v in Y[k, j]])
        got = (tmp_path / "trajectories.csv").read_bytes()
        assert got == expected.getvalue().encode()
        for text in ("nan", "-0.0", "inf", "-inf", "5e-324"):
            assert f",{text},".encode() in got or f",{text}\r\n".encode() in got, text

    def test_tables_match_csv_dictwriter(self, tmp_path):
        columns = ["k", "status", "energy", "violated", "bound"]
        rows = [{"k": 0, "status": "ok", "energy": -0.0, "violated": False, "bound": None},
                {"k": 12, "status": "not_stable", "energy": float("nan"), "violated": True,
                 "bound": 5e-324, "extra": 1},
                {"k": 3, "energy": np.float64(float("inf"))}]
        cli._write_csv(tmp_path / "t.csv", "manifest.json", columns, rows)
        expected = io.StringIO()
        expected.write("# manifest: manifest.json\n")
        writer = csv.DictWriter(expected, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: cli._csv_cell(row.get(k)) for k in columns})
        assert (tmp_path / "t.csv").read_bytes() == expected.getvalue().encode()


def elementwise_jsonable(items):
    """The per-element conversion of a tolist(): non-finite floats become None."""
    if isinstance(items, list):
        return [elementwise_jsonable(v) for v in items]
    if isinstance(items, float):
        return items if np.isfinite(items) else None
    return items


class TestJsonable:
    ARRAYS = {
        "float": np.arange(12.0).reshape(3, 4) / 7.0,
        "float32": np.array([0.1, 2.5], dtype=np.float32),
        "int": np.array([[-3, 0], [2**62, 7]]),
        "uint": np.array([0, 2**64 - 1], dtype=np.uint64),
        "bool": np.array([[True, False], [False, True]]),
        "signed-zero": np.array([-0.0, 0.0, -0.0]),
        "nan": np.array([[1.0, np.nan], [-0.0, 2.0]]),
        "inf": np.array([np.inf, -1.0, -np.inf]),
        "empty": np.empty((0, 3)),
    }

    @pytest.mark.parametrize("name", list(ARRAYS))
    def test_arrays_convert_as_element_by_element(self, name):
        arr = self.ARRAYS[name]
        got = cli._jsonable(arr)
        expect = elementwise_jsonable(arr.tolist())
        # json.dumps tells -0.0 from 0.0, 1 from 1.0 and true from 1, and
        # writes NaN or Infinity for a non-finite float that slipped through.
        assert json.dumps(got) == json.dumps(expect)
        assert got == expect

    def test_non_finite_entries_become_null(self):
        assert cli._jsonable(self.ARRAYS["nan"]) == [[1.0, None], [-0.0, 2.0]]
        assert cli._jsonable(self.ARRAYS["inf"]) == [None, -1.0, None]
        assert json.dumps(cli._jsonable({"v": self.ARRAYS["inf"]})) == '{"v": [null, -1.0, null]}'
