"""csviu benchmark: four CLI workloads, checked outputs, traced layers.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One Python process drives ``csviu.cli.main(argv)`` in process as a
closed loop with a single caller: each command starts only after the
previous one returned.  ``--trace 0`` measures the end-to-end metrics
with the program unmodified; ``--trace 1`` alternates untraced jobs with
traced copies of the same jobs and reports per-layer metrics from the
spans (see spans.py).  Every command's stdout is checked; the last line
of stdout is the JSON result, the line before it a JSON ``detail``
object with the workload-specific figures.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout: model files, output dirs, traces.
WORK_ROOT = os.path.join(ROOT, ".perfbench")

#: Set-up samples per run, each in a fresh interpreter.
SETUP_SAMPLES = 3
#: Fewest jobs a run makes, whatever --seconds says.
MIN_JOBS = 3
#: A job time percentile is reported only with this many jobs beyond it.
TAIL_SAMPLES = 10
MB = 1e6

#: Functions whose spans the per-layer metrics are built from.
EXPECTED = (
    "model.load_model",
    "ops.operator_matrix", "ops.spectral_radius",
    "solver.solve_lyapunov", "solver.critical_alpha", "solver.backward_recursion",
    "stability.check_stability", "stability.search_detectability",
    "norms.norm_report", "norms.power_norm", "norms.vanishing_discount_sweep",
    "sim.simulate_paths", "sim.estimate_abel_energy", "sim.estimate_cesaro_power",
    "sim.per_stage_energy", "sim.validate_representation", "sim.check_decay",
    "cli.main", "cli.cmd_analyze", "cli.cmd_norm", "cli.cmd_simulate", "cli.cmd_sweep",
)

#: Per-layer metrics on the result line: the ones every workload has.
#: A function a run never called reads 0.
RESULT_LAYERS = {
    "model.load_model.self_s": "s/job",
    "ops.operator_matrix.calls": "1/job",
    "ops.operator_matrix.self_s": "s/job",
    "ops.spectral_radius.calls": "1/job",
    "ops.spectral_radius.self_s": "s/job",
    "solver.solve_lyapunov.calls": "1/job",
    "solver.solve_lyapunov.self_s": "s/job",
    "cli.self_s": "s/job",
    "sim.simulate_paths.calls": "1/job",
    "trace.overhead_frac": "ratio",
}


def configure_environment():
    """At most two compute threads: the simulate pool, one BLAS thread each."""
    os.environ.pop("CSVIU_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_cli():
    if not os.path.isfile(os.path.join(SRC, "csviu", "__init__.py")):
        raise RuntimeError(f"no csviu sources under {SRC}")
    sys.path.insert(0, SRC)
    import csviu
    import csviu.cli

    if not os.path.abspath(csviu.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported csviu from {csviu.__file__}, not from {SRC}")
    return csviu.cli


class Runner:
    """Runs commands, checks them and keeps the counts."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.kind_times = {}
        self.sim_time = 0.0
        self.sim_steps = 0
        self._verified = {}

    def run_command(self, cmd):
        out, err = io.StringIO(), io.StringIO()
        crash = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(cmd.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc, crash = None, traceback.format_exc()
        seconds = time.perf_counter() - t0
        self.attempted += 1
        problem = crash or self._verify(cmd, rc, out.getvalue(), err.getvalue())
        if problem:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{' '.join(cmd.argv)}: {problem}")
        return seconds, problem is None

    def _verify(self, cmd, rc, out, err):
        if rc != cmd.expect_rc:
            return f"exit {rc}, expected {cmd.expect_rc}: {err.strip()[:200]}"
        if cmd.check is None:
            return None
        key = tuple(cmd.argv)
        digest = hashlib.sha256(out.encode()).digest()
        if key in self._verified:
            # Same flags must give byte-identical stdout.
            return None if digest == self._verified[key] else "stdout differs from an earlier run"
        from workloads import CheckError

        try:
            cmd.check(out)
        except (CheckError, ArithmeticError, KeyError, TypeError, ValueError) as exc:
            return f"check failed: {type(exc).__name__}: {exc}"
        self._verified[key] = digest
        return None

    def run_job(self, job, record=True):
        total, ok = 0.0, True
        for cmd in job:
            seconds, good = self.run_command(cmd)
            total += seconds
            ok &= good
            if record and good:
                self.kind_times.setdefault(cmd.kind, []).append(seconds)
                if cmd.path_steps:
                    self.sim_time += seconds
                    self.sim_steps += cmd.path_steps
        return total, ok


def job_sequence(workload):
    """Job 0, job 0 again (byte-identity check), then jobs 1, 2, ..."""
    yield workload.job(0)
    i = 0
    while True:
        yield workload.job(i)
        i += 1


def timed_loop(seconds, step):
    """Call ``step`` until about ``seconds`` have passed; returns its results."""
    start = time.perf_counter()
    results = []
    while True:
        results.append(step(len(results)))
        typical = statistics.median(r[0] for r in results)
        if len(results) >= MIN_JOBS and time.perf_counter() - start + typical > seconds:
            return results


def setup_samples(workload, runner):
    probe = os.path.join(HERE, "probe.py")
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, probe, SRC, json.dumps(workload.warmup.argv)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        runner.attempted += 1
        try:
            sample = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            sample = {"rc": None, "seconds": None}
        if proc.returncode != 0 or sample["rc"] != workload.warmup.expect_rc:
            runner.failed += 1
            runner.problems.append(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
            continue
        samples.append(sample["seconds"])
    return samples


def percentile_tail(values):
    """Highest percentile with TAIL_SAMPLES values beyond it, or None."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_SAMPLES:
        return None
    return {"value": ordered[n - TAIL_SAMPLES - 1], "percentile": 100.0 * (n - TAIL_SAMPLES) / n, "jobs": n}


def src_lines():
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def run_untraced(workload, runner, seconds):
    setup = setup_samples(workload, runner)
    runner.run_job([workload.warmup], record=False)
    sequence = job_sequence(workload)
    results = timed_loop(seconds, lambda i: runner.run_job(next(sequence)))
    job_times = [t for t, _ in results]
    completed = sum(ok for _, ok in results)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB

    if not setup:
        raise RuntimeError(f"no set-up sample succeeded: {runner.problems}")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "models_per_s": (completed / sum(job_times), "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    detail = {
        "jobs": len(job_times),
        "job_p50_s": {"value": statistics.median(job_times), "unit": "s", "samples": len(job_times)},
        "measured_s": sum(job_times),
        "setup_samples_s": setup,
        "failed_frac": {"value": runner.failed / runner.attempted, "unit": "ratio",
                        "base": runner.attempted},
    }
    for kind, times in sorted(runner.kind_times.items()):
        detail[f"{kind}_p50_s"] = {"value": statistics.median(times), "unit": "s", "samples": len(times)}
    if runner.sim_steps:
        detail["path_steps_per_s"] = {"value": runner.sim_steps / runner.sim_time, "unit": "1/s",
                                      "simulate_s": runner.sim_time}
    tail = percentile_tail(job_times)
    if tail:
        detail["job_tail_s"] = dict(tail, unit="s")
    return metrics, detail


def run_traced(workload, runner, seconds, seed):
    from spans import Tracer

    tracer = Tracer(EXPECTED)
    runner.run_job([workload.warmup], record=False)
    untraced, traced = [], []

    def pair(i):
        job = workload.job(i)
        order = (False, True) if i % 2 == 0 else (True, False)
        times = {}
        for trace in order:
            if trace:
                tracer.job = i
                tracer.install()
            try:
                times[trace] = runner.run_job(job, record=False)[0]
            finally:
                tracer.uninstall()
        untraced.append(times[False])
        traced.append(times[True])
        return times[False] + times[True], None

    timed_loop(seconds, pair)
    os.makedirs(WORK_ROOT, exist_ok=True)
    tracer.write(os.path.join(WORK_ROOT, f"trace-{workload.name}.jsonl.gz"))
    detail = layer_metrics(tracer, len(traced))
    detail["trace.overhead_frac"] = {"value": sum(traced) / sum(untraced) - 1.0, "unit": "ratio",
                                     "base_untraced_s": sum(untraced), "jobs": len(traced)}
    detail["absent"] = tracer.absent
    if workload.thread_model:
        detail["sim.thread_speedup"] = thread_speedup(workload.thread_model, seed)
    layers = {name: (detail.get(name, {"value": 0.0})["value"], unit)
              for name, unit in RESULT_LAYERS.items()}
    return layers, detail


def layer_metrics(tracer, jobs):
    stats = tracer.stats()
    detail = {"traced_jobs": jobs, "spans": len(tracer)}
    for name in sorted(stats):
        entry = stats[name]
        detail[f"{name}.calls"] = {"value": entry["calls"] / jobs, "unit": "1/job"}
        detail[f"{name}.self_s"] = {"value": entry["self_s"] / jobs, "unit": "s/job"}
        detail[f"{name}.wall_s"] = {"value": entry["wall_s"] / jobs, "unit": "s/job"}

    searches = tracer.indices("stability.search_detectability")
    if searches:
        attempts = tracer.count_under("ops.spectral_radius", "stability.search_detectability")
        detail["stability.detect_attempts_per_search"] = {
            "value": attempts / len(searches), "unit": "ratio", "base_searches": len(searches)}
        detail["stability.detect_found_ratio"] = {
            "value": sum(bool(tracer.note.get(i)) for i in searches) / len(searches),
            "unit": "ratio", "base_searches": len(searches)}
    sweeps = tracer.indices("norms.vanishing_discount_sweep")
    if sweeps:
        points = sum(tracer.note.get(i, 0) for i in sweeps)
        solves = tracer.count_under("solver.solve_lyapunov", "norms.vanishing_discount_sweep")
        detail["norms.solves_per_sweep_alpha"] = {
            "value": solves / points, "unit": "ratio", "base_grid_points": points}
    sims = tracer.indices("sim.simulate_paths")
    if sims:
        wall = sum(tracer.duration(i) for i in sims)
        detail["sim.cpu_per_wall"] = {
            "value": sum(tracer.cpu[i] for i in sims) / wall, "unit": "ratio", "base_wall_s": wall}
        detail["sim.ensemble_mb"] = {
            "value": max(tracer.note.get(i, 0) for i in sims) / MB, "unit": "MB"}
    commands = len(tracer.indices("cli.cmd_simulate"))
    if commands:
        per = tracer.count_under("sim.simulate_paths", "cli.cmd_simulate")
        detail["sim.simulations_per_command"] = {
            "value": per / commands, "unit": "ratio", "base_commands": commands}

    cli_self = sum(entry["self_s"] for name, entry in stats.items() if name.startswith("cli."))
    detail["cli.self_s"] = {"value": cli_self / jobs, "unit": "s/job"}
    return detail


def thread_speedup(model_path, seed):
    """Serial over two-thread wall time of simulate_paths on the mc-scalar instance."""
    from workloads import SCALAR_HORIZON, SCALAR_PATHS

    try:
        from csviu.model import load_model
        from csviu.sim import SimConfig, simulate_paths

        model = load_model(model_path)
        cfg = SimConfig(n_paths=SCALAR_PATHS, horizon=SCALAR_HORIZON, seed=seed)
        walls = {}
        for threads in (1, 2):
            t0 = time.perf_counter()
            ensemble = simulate_paths(model, cfg, threads=threads)
            walls[threads] = time.perf_counter() - t0
            del ensemble
    except (ImportError, TypeError) as exc:
        return {"absent": f"{type(exc).__name__}: {exc}"}
    return {"value": walls[1] / walls[2], "unit": "ratio", "serial_s": walls[1], "threads2_s": walls[2]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    configure_environment()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    try:
        cli = import_cli()
    except (ImportError, RuntimeError) as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=WORK_ROOT)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        runner = Runner(cli)
        if args.trace:
            metrics, detail = run_traced(workload, runner, args.seconds, args.seed)
        else:
            metrics, detail = run_untraced(workload, runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail.update(workload=args.workload, seed=args.seed, src_lines=src_lines(),
                  problems=runner.problems)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
