"""Command-line interface: exit codes, report shapes, artifacts, determinism."""

import json
import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from referencing import Registry, Resource

from csviu import cli, load_model, norms, ops
from conftest import make_random_model
from test_sim import exact_second_moments

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
# sigma = 10 puts the noise trace above 1, so varpi(L) overflows where L does not
LOUD_DOC = dict(SCALAR_DOC, sigma=[[10.0]])
# a JSON boolean where a number belongs; numpy alone would read it as A = 1
BOOL_A_DOC = dict(SCALAR_DOC, A=[[True]])
# finite entries whose r_sigma(L_1) overflows a double
HUGE_SBAR_DOC = dict(SCALAR_DOC, sigma_bar_x=[[1e200]])
HUGE_A_DOC = dict(SCALAR_DOC, A=[[1e200]])
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
                      ("huge_sbar", HUGE_SBAR_DOC), ("huge_a", HUGE_A_DOC)):
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
                          ("true", [[True]]), ("bare_number", -0.5), ("flat_list", [-0.5])):
        path = base / f"matrix_{name}.json"
        path.write_text(json.dumps(content))
        paths[f"matrix_{name}"] = str(path)
    malformed = base / "malformed.json"
    malformed.write_text("{not json")
    paths["malformed"] = str(malformed)
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

    def test_input_errors_exit_two(self, run, models):
        cases = [
            (["analyze", models["scalar"], "--alpha", "-1.0"], "alpha must be"),
            (["simulate", models["scalar"], "--paths", "0", "--horizon", "10",
              "--seed", "3", "--alpha", "0.9"], "n_paths"),
            (["analyze", models["missing"], "--alpha", "0.9"], "No such file"),
            (["analyze", models["malformed"], "--alpha", "0.9"], "malformed JSON"),
            (["simulate", models["scalar"], "--paths", "10", "--horizon", "5",
              "--seed", "3", "--alpha", "0.9", "--dump"], "--dump"),
            (["norm", models["scalar"], "--alpha", "1.2", "--kappa", "5",
              "--x0", "1,2"], "x0"),
            (["analyze", models["scalar"], "--alpha", "nan"], "alpha must be"),
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
        # finite model entries whose r_sigma(L_1) overflows
        cases += [
            ([command, models[name], *flags], "scale down A or sigma_bar_x")
            for name in ("huge_sbar", "huge_a")
            for command, *flags in (["analyze", "--alpha", "0.9"], ["norm", "--alpha", "0.9"],
                                    ["norm", "--power"], ["sweep"])
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
        ],
        ids=["negative-alpha", "no-mode", "missing-alpha", "bad-noise", "unknown",
             "nan-alpha", "inf-alpha", "simulate-nan-alpha", "sweep-kappa"],
    )
    def test_usage_errors_raise_parser_exit(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


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

    @pytest.fixture
    def passes(self, monkeypatch):
        alpha_lists = []
        solve = norms._direct_solutions

        def counting(model, alphas, Qm):
            alpha_lists.append(list(alphas))
            return solve(model, alphas, Qm)

        monkeypatch.setattr(norms, "_direct_solutions", counting)
        return alpha_lists

    def test_default_sweep_solves_each_alpha_once(self, run, models, solves, passes):
        code, out, _ = run(["sweep", models["scalar"]])
        assert code == 0
        grid = [row["alpha"] for row in json.loads(out)["sweep"]]
        # one pass of the Stein-SMW core, none through solve_lyapunov
        assert solves == []
        assert len(passes) == 1
        assert sorted(passes[0]) == sorted(set(grid))


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
