"""Every analysis number against the independent Kronecker oracle.

The benchmark's oracle (perfbench/oracle.py) solves in the vec form on
all n x n matrices and imports nothing of csviu; its checks
(perfbench/workloads.py) test each verdict, radius, alpha_bar, witness
gain, varpi and L that analyze, norm --alpha, norm --power and sweep
print.  Here they run, unchanged, on seeded random models through
cli.main, so a one-entry error in the operator fails tier-1 and not only
the benchmark.
"""

import contextlib
import io
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from oracle import ModelOracle, random_model  # noqa: E402
from workloads import _analysis_job, _write_model  # noqa: E402

from csviu import cli  # noqa: E402

#: A short grid across the unit radius of both targets.
GRID = [0.3, 0.7, 0.9, 1.0, 1.2]
#: r_sigma(L_1) one part in 1e6 inside and outside the radius at which alpha = 0.9
#: reaches the stability boundary.
NEAR = (1.0 - 1e-6) / 0.9, (1.0 + 1e-6) / 0.9


def commands(workdir):
    """(name, Command) for every fenced run, on models drawn from one seed."""
    rng = np.random.default_rng(2021)
    for n in range(1, 7):
        for p in sorted({n, 1}):
            for target in (0.8, 1.3):
                o = ModelOracle(random_model(rng, n, p, target))
                name = f"n{n}-p{p}-{target}"
                cmds = _analysis_job(o, _write_model(workdir, f"{name}.json", o.doc),
                                     GRID if p == 1 else None)
                kinds = ["analyze", "power", "sweep"] + ["norm_alpha"] * o.stable(0.9)
                yield from ((f"{name} {kind}", cmds[kind]) for kind in kinds)
        # analyze is left out at the boundary: its absolute residual check
        # does not scale with ||L||, which grows like 1 / (1 - alpha r).
        for target in NEAR:
            o = ModelOracle(random_model(rng, n, n, target))
            name = f"n{n}-near-{target:.9f}"
            cmds = _analysis_job(o, _write_model(workdir, f"{name}.json", o.doc), None)
            kinds = ["power", "sweep"] + ["norm_alpha"] * o.stable(0.9)
            yield from ((f"{name} {kind}", cmds[kind]) for kind in kinds)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_analysis_commands_match_the_oracle(tmp_path):
    failures, count = [], 0
    for name, cmd in commands(tmp_path):
        count += 1
        code, out, err = run(cmd.argv)
        if code != cmd.expect_rc:
            failures.append(f"{name}: exit {code}, expected {cmd.expect_rc}: {err.strip()}")
            continue
        try:
            cmd.check(out)
        except Exception as exc:  # a CheckError, or a report missing a key the check reads
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
    assert count > 100
    assert not failures, f"{len(failures)} of {count} commands:\n" + "\n".join(failures)
