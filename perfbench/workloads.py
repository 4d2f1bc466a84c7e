"""The four benchmark workloads: generated inputs, jobs and output checks.

Every workload writes its own model files from the seed, and the
program sees only those files and the argv.  A job is the list of CLI
commands one user runs on one instance; each command carries the exit
code it must return and a check of its stdout against the independent
oracle (oracle.py) or, for Monte Carlo output, a statistical test that
stays valid when the random number scheme changes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from oracle import SCALAR_MODEL, ModelOracle, close, random_model

HERE = os.path.dirname(os.path.abspath(__file__))

#: Monte Carlo estimates must lie within this many combined standard
#: errors of their target.
Z_LIMIT = 5.0


class CheckError(Exception):
    """A command's output disagrees with the oracle."""


def expect(condition, message):
    if not condition:
        raise CheckError(message)


@dataclass
class Command:
    kind: str
    argv: list
    expect_rc: int
    check: object
    path_steps: int = 0


@dataclass
class Workload:
    name: str
    jobs: list
    warmup: Command
    #: Model file on which a traced run compares 1 and 2 simulate threads.
    thread_model: str | None = None

    def job(self, i):
        return self.jobs[i % len(self.jobs)]


def _write_model(workdir, name, doc):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


# ---------------------------------------------------------------------------
# checks of the analysis commands


def check_analyze(o, alpha):
    def check(out):
        r = json.loads(out)
        stable = o.stable(alpha)
        stab = r["stability"]
        expect(
            stab["verdict"] == ("alpha_stable" if stable else "not_stable"),
            f"verdict {stab['verdict']} but alpha*r(L1) = {alpha * o.r_L1:.6g}",
        )
        expect(
            close(stab["spectral_radii"]["L_alpha"], alpha * o.r_L1, 1e-8),
            "r(L_alpha) differs from the oracle",
        )
        ab = o.alpha_bar()
        expect(close(r["alpha_bar"], ab, 1e-6, 1e-6), f"alpha_bar {r['alpha_bar']} != {ab}")
        det = r["detectability"]
        if det["detectable"]:
            G = np.asarray(det["G"], dtype=float)
            radius = alpha * o.r_L1 if not G.any() else o.closed_loop_radius(alpha, G)
            expect(radius < 1.0, "detectability witness G does not stabilise L_alpha")
        lyap = r["lyapunov"]
        if stable:
            expect(lyap is not None, "stable instance without a Lyapunov certificate")
            expect(lyap["residual"] <= 1e-9, f"residual {lyap['residual']} > 1e-9")
            expect(close(lyap["varpi_L"], o.varpi(alpha), 1e-7), "varpi_L differs from the oracle")
        else:
            expect(lyap is None, "unstable instance with a Lyapunov certificate")

    return check


def check_norm_alpha(o, alpha):
    def check(out):
        body = json.loads(out)["norms"]
        varpi = o.varpi(alpha)
        expect(close(body["varpi_L"], varpi, 1e-7), "varpi_L differs from the oracle")
        expect(
            close(body["h2_discounted"], alpha / (1.0 - alpha) * varpi, 1e-7),
            "h2_discounted differs from the oracle",
        )
        L = np.asarray(body["L"], dtype=float)
        Lo = o.solve(alpha)
        expect(
            np.abs(L - Lo).max() <= 1e-7 * max(1.0, np.abs(Lo).max()),
            "L differs from the oracle solve",
        )

    return check


def check_power(o):
    def check(out):
        if o.stable(1.0) and o.r_A < 1.0:
            value = json.loads(out)["power_norm"]
            expect(close(value, o.varpi(1.0), 1e-7), "power_norm differs from the oracle")
        else:
            expect(out == "", "norm --power printed a report for an unstable instance")

    return check


def check_sweep(o, alphas):
    def check(out):
        rows = json.loads(out)["sweep"]
        if alphas is None:
            ab = o.alpha_bar()
            want = [0.5, 0.9, 0.99, 0.999, 1.0, min(1.05, (1.0 + ab) / 2.0)]
        else:
            want = alphas
        expect(len(rows) == len(want), f"{len(rows)} sweep rows, expected {len(want)}")
        for row, a in zip(rows, want):
            alpha = row["alpha"]
            expect(close(alpha, a, 1e-6), f"sweep alpha {alpha} != {a}")
            if o.marginal(alpha):
                continue
            if o.stable(alpha):
                expect(row["status"] == "ok", f"alpha={alpha}: status {row['status']}")
                expect(close(row["varpi_L"], o.varpi(alpha), 1e-7), f"alpha={alpha}: varpi_L")
                expect(
                    close(row["spectral_radius"], alpha * o.r_L1, 1e-8),
                    f"alpha={alpha}: spectral_radius",
                )
            else:
                expect(row["status"] == "not_stable", f"alpha={alpha}: status {row['status']}")

    return check


def _analysis_job(o, path, sweep_alphas):
    grid = [] if sweep_alphas is None else ["--alphas", ",".join(repr(a) for a in sweep_alphas)]
    power_rc = 0 if o.stable(1.0) and o.r_A < 1.0 else 3
    return {
        "analyze": Command("analyze", ["analyze", path, "--alpha", "0.9"], 0, check_analyze(o, 0.9)),
        "norm_alpha": Command("norm", ["norm", path, "--alpha", "0.9"], 0, check_norm_alpha(o, 0.9)),
        "power": Command("norm", ["norm", path, "--power"], power_rc, check_power(o)),
        "sweep": Command("sweep", ["sweep", path] + grid, 0, check_sweep(o, sweep_alphas)),
    }


# ---------------------------------------------------------------------------
# workloads


def dense_n20(seed, workdir):
    """Random stable n = 20 models, p = n, r(L1) = 0.8; four analysis commands."""
    rng = np.random.default_rng([seed, 20])
    jobs = []
    for i in range(3):
        o = ModelOracle(random_model(rng, 20, 20, 0.8))
        path = _write_model(workdir, f"dense-{i}.json", o.doc)
        cmds = _analysis_job(o, path, None)
        jobs.append([cmds["analyze"], cmds["norm_alpha"], cmds["power"], cmds["sweep"]])
    return Workload("dense-n20", jobs, warmup=jobs[0][0])


#: State dimensions the many-small instances cycle through.
SMALL_NS = (1, 2, 3, 4, 6)
#: The fixed 64-point sweep grid of many-small.
SMALL_GRID = [float(a) for a in np.linspace(0.05, 1.25, 64)]
#: Distinct many-small instances per run (a run uses about 700): a large
#: pool keeps the cost mix of the search-heavy instances the same for
#: every seed.
SMALL_POOL = 800


def many_small(seed, workdir):
    """Small models; every other one has p = 1 and r(L1) = 1.3 (not stable)."""
    rng = np.random.default_rng([seed, 1])
    jobs = []
    for i in range(SMALL_POOL):
        n = SMALL_NS[i % len(SMALL_NS)]
        unstable = i % 2 == 1
        doc = random_model(rng, n, 1 if unstable else n, 1.3 if unstable else 0.8)
        o = ModelOracle(doc)
        path = _write_model(workdir, f"small-{i}.json", doc)
        cmds = _analysis_job(o, path, SMALL_GRID)
        jobs.append([cmds["analyze"], cmds["sweep"], cmds["power"]])
    # The first not-stable instance drives the detectability search, whose
    # first use imports scipy.signal: that belongs to set-up.
    return Workload("many-small", jobs, warmup=jobs[1][0])


SCALAR_PATHS, SCALAR_HORIZON = 100_000, 200


def _load_reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_scalar(o, reference):
    closed = 0.9 / (1.0 - 0.9) * o.varpi(0.9)

    def check(out):
        r = json.loads(out)
        abel = r["estimates"]["abel"]
        expect(r["aborted_paths"] == 0, f"{r['aborted_paths']} aborted paths")
        expect(abel["n_paths"] == SCALAR_PATHS, f"abel n_paths {abel['n_paths']}")
        se = math.hypot(abel["std_error"], reference["std_error"])
        z = (abel["value"] - reference["value"]) / se
        expect(abs(z) <= Z_LIMIT, f"Abel estimate {abel['value']} is {z:.2f} SE from the reference")
        expect(close(abel["closed_form"], closed, 1e-9), "Abel closed form differs from the oracle")

    return check


def _simulate_argv(path, paths, horizon, seed, extra):
    return [
        "simulate", path, "--paths", str(paths), "--horizon", str(horizon),
        "--seed", str(seed), "--alpha", "0.9",
    ] + extra


#: Jobs prepared per Monte Carlo run; a run uses the first few.
MC_JOBS = 64


def mc_scalar(seed, workdir):
    """The README scalar model, 100k paths x 200 stages, Gaussian noise."""
    o = ModelOracle(SCALAR_MODEL)
    path = _write_model(workdir, "scalar.json", SCALAR_MODEL)
    check = check_scalar(o, _load_reference())
    extra = ["--noise", "gaussian", "--threads", "2"]
    jobs = [
        [Command(
            "simulate",
            _simulate_argv(path, SCALAR_PATHS, SCALAR_HORIZON, seed * MC_JOBS + i, extra),
            0, check, SCALAR_PATHS * SCALAR_HORIZON,
        )]
        for i in range(MC_JOBS)
    ]
    warm = Command("simulate", _simulate_argv(path, 4096, SCALAR_HORIZON, seed, extra), 0, None)
    return Workload("mc-scalar", jobs, warmup=warm, thread_model=path)


CHECKS_PATHS, CHECKS_HORIZON = 10_000, 100


def check_mc_checks(out_dir):
    def check(out):
        r = json.loads(out)
        expect(r["aborted_paths"] == 0, f"{r['aborted_paths']} aborted paths")
        rep = r["representation"]
        z = rep["corrected_gap"] / rep["corrected_std_error"]
        expect(z <= Z_LIMIT, f"corrected representation gap is {z:.2f} SE")
        decay = r["decay"]
        expect(len(decay) == CHECKS_HORIZON + 1, f"{len(decay)} decay rows")
        expect(
            all(isinstance(d["energy"], float) and math.isfinite(d["energy"]) for d in decay),
            "non-finite decay energy",
        )
        for name in ("report.json", "manifest.json", "decay.csv"):
            expect(os.path.isfile(os.path.join(out_dir, name)), f"{name} not written")

    return check


def mc_checks(seed, workdir):
    """Random n = 10 models (r(L1) = 0.8), all simulate checks switched on."""
    rng = np.random.default_rng([seed, 10])
    paths = [
        _write_model(workdir, f"checks-{i}.json", random_model(rng, 10, 10, 0.8))
        for i in range(2)
    ]
    flags = ["--x0", "1.0", "--noise", "rademacher", "--validate-representation",
             "--check-decay", "--threads", "2", "--output-dir"]
    jobs = []
    for i in range(MC_JOBS):
        out_dir = os.path.join(workdir, f"out-{i}")
        argv = _simulate_argv(
            paths[i % 2], CHECKS_PATHS, CHECKS_HORIZON, seed * MC_JOBS + i, flags + [out_dir]
        )
        check = check_mc_checks(out_dir)
        jobs.append([Command("simulate", argv, 0, check, CHECKS_PATHS * CHECKS_HORIZON)])
    warm = _simulate_argv(
        paths[0], 1000, CHECKS_HORIZON, seed, flags + [os.path.join(workdir, "out-warm")]
    )
    return Workload("mc-checks", jobs, warmup=Command("simulate", warm, 0, None))


WORKLOADS = {
    "dense-n20": dense_n20,
    "many-small": many_small,
    "mc-scalar": mc_scalar,
    "mc-checks": mc_checks,
}
