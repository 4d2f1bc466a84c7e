"""Command-line front end: analyze, norm, simulate, sweep.

Reports print to stdout as canonical JSON (sorted keys, two-space
indent, no timestamp, no thread count — identical flag sets give
byte-identical stdout).  With --output-dir the same report lands in
report.json next to manifest.json (which carries the UTC timestamp) and
CSV mirrors of the tabular blocks; every written file names the
manifest that produced it.

Exit codes: 0 = report computed (whatever the verdict); 2 = input error
(parse, dimensions, domain, bad flags); 3 = numerical failure (unstable
at the requested alpha where a closed form is required, no convergence,
singular operator) or an overflow-dominated ensemble (> 1% of paths
aborted).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import os
import reprlib
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    InternalInconsistencyError,
    NotStableError,
    ParseError,
    SingularOperatorError,
)
from .model import PSD_TOL, _as_float_array, as_weight, energy_weight, load_model
from .norms import (
    check_counter_domain,
    counter_discount_bound,
    norm_report,
    power_norm,
    vanishing_discount_sweep,
)
from .ops import op_varpi
from .sim import (
    NOISE_KINDS,
    AbelSums,
    CesaroMeans,
    PathFeed,
    RepresentationCheck,
    SimConfig,
    StageStats,
    decay_rows,
    simulate_paths,
)
from .solver import _require_finite, backward_recursion, critical_alpha
from .stability import _analysis, check_detectability_with_G, search_detectability

#: Fraction of aborted paths above which a simulate run exits 3.
ABORT_FRACTION_LIMIT = 0.01

_INPUT_ERRORS = (
    ParseError,
    DimensionError,
    DomainError,
    ValueError,
    FileNotFoundError,
    FileExistsError,
    IsADirectoryError,
    NotADirectoryError,
    PermissionError,
)
_NUMERICAL_ERRORS = (
    NotStableError,
    ConvergenceError,
    SingularOperatorError,
    InternalInconsistencyError,
    np.linalg.LinAlgError,
    ChildProcessError,
)

SWEEP_COLUMNS = [
    "alpha",
    "status",
    "spectral_radius",
    "varpi_L",
    "h2_discounted",
    "abel_gap",
    "dist_to_L1",
]
DECAY_COLUMNS = ["k", "energy", "std_error", "level", "bound", "violated"]

#: The manifest every file written under --output-dir names.
MANIFEST = "manifest.json"


def _jsonable(value):
    """Recursively convert report values to JSON-safe types.

    Non-finite floats become None: the canonical reports must be valid
    strict JSON.  An array with nothing to replace goes out through
    tolist() alone, which gives the same Python floats, ints and bools.
    """
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "biu" or (value.dtype.kind == "f" and np.isfinite(value).all()):
            return value.tolist()
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        f = float(value)
        return f if np.isfinite(f) else None
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    return value


def _parse_vector(text, n, what="x0"):
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated list of numbers") from None
    if not values:
        raise ValueError(f"{what} must be a comma-separated list of numbers")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} entries must be finite, got {text!r}")
    if len(values) == 1 and n > 1:
        return np.full(n, values[0])
    if len(values) != n:
        raise DimensionError(f"{what} must have {n} entries, got {len(values)}")
    return np.asarray(values)


def _check_alpha(alpha):
    if not (np.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    return alpha


def _parse_alpha_list(text):
    try:
        alphas = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError("alpha list must be comma-separated numbers") from None
    if not alphas:
        raise ValueError("alpha list must be comma-separated numbers")
    return [_check_alpha(a) for a in alphas]


def _load_matrix(path, flag):
    """The float array in a JSON file; content that is not one is a ParseError naming flag."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from None
    except ValueError:  # an integer beyond Python's limit on digits to convert
        raise ParseError(f"{flag}: an integer has too many digits in {path}") from None
    except RecursionError:
        raise ParseError(f"{flag}: JSON nested too deeply in {path}") from None
    return _as_float_array(data, flag)


def _load_weight(path, n):
    """Load a weight matrix Q from a JSON file and require PSD within PSD_TOL."""
    Q = as_weight(_load_matrix(path, "--Q"), n, "--Q")
    scale = max(1.0, float(np.abs(Q).max(initial=0.0)))
    if np.linalg.eigvalsh(Q)[0] < -PSD_TOL * scale:
        raise ValueError("--Q must be positive semidefinite")
    return Q


def _load_gain(path, n, p):
    G = _load_matrix(path, "--G")
    if G.shape != (n, p):
        raise DimensionError(f"--G must have shape ({n}, {p}), got {G.shape}")
    if not np.isfinite(G).all():
        raise ValueError("--G entries must be finite")
    return G


def _option_type(convert, what):
    """An argparse type: convert(text), or a one-line usage error that says the value
    is not what, echoing it through reprlib.repr as the model-file errors do."""
    def parse(text):
        try:
            return convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{reprlib.repr(text)} is not {what}") from None
    return parse


_integer = _option_type(int, "an integer")
_positive_alpha = _option_type(lambda text: _check_alpha(float(text)), "a finite positive alpha")


def _check_threads(args):
    """Validate --threads before anything is solved; no report depends on it."""
    if args.threads < 1:
        raise ValueError("threads must be a positive integer")


def _report(command, args, config, Q, **body):
    """The JSON-safe report: the command, its manifest (config plus the weight Q,
    or "C^T C" for the default) and the body's blocks."""
    manifest = {
        "command": command,
        "model_path": args.model,
        "config": dict(config, Q="C^T C" if Q is None else Q),
        "tool_version": __version__,
    }
    return _jsonable({"command": command, "manifest": manifest, **body})


def _write_csv(path, manifest_name, columns, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# manifest: {manifest_name}\n")
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _csv_cell(row.get(k)) for k in columns})


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value


class _TrajectoryDump:
    """Block sink that writes trajectories.csv, a path block at a time in block order."""

    def __init__(self, out_dir, model):
        self.made_dir = not os.path.isdir(out_dir)
        os.makedirs(out_dir, exist_ok=True)
        self.out_dir = out_dir
        self.path = os.path.join(out_dir, "trajectories.csv")
        self.C = model.C
        self.fh = open(self.path, "w", encoding="utf-8", newline="")
        self.fh.write(f"# manifest: {MANIFEST}\n")
        self.writer = csv.writer(self.fh)
        self.writer.writerow(
            ["path", "k"]
            + [f"x{i}" for i in range(model.n)]
            + [f"y{i}" for i in range(model.p)]
        )

    def add_block(self, j0, X, ok):
        """The block itself: its rows are written in merge."""
        return j0, X

    def merge(self, block):
        j0, X = block
        # The CLI simulates under the zero input, so y_k = C x_k.
        Y = np.einsum("kpj,ij->kpi", X, self.C)
        for j in range(X.shape[1]):
            for k in range(X.shape[0]):
                self.writer.writerow(
                    [j0 + j, k]
                    + [repr(float(v)) for v in X[k, j]]
                    + [repr(float(v)) for v in Y[k, j]]
                )

    def close(self):
        self.fh.close()

    def discard(self):
        """Remove the file, and the directory if it made it, for a run that fails."""
        self.fh.close()
        os.remove(self.path)
        if self.made_dir:
            os.rmdir(self.out_dir)


def _emit(report, args, tables=None):
    """Print the canonical report; mirror it to --output-dir when given."""
    out_dir = getattr(args, "output_dir", None)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        manifest_name = MANIFEST
        manifest = dict(report["manifest"])
        manifest["output_dir"] = out_dir
        manifest["timestamp"] = datetime.now(timezone.utc).isoformat()
        with open(os.path.join(out_dir, manifest_name), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        filed = dict(report)
        filed["manifest_file"] = manifest_name
        with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
            json.dump(filed, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for name, (columns, rows) in (tables or {}).items():
            _write_csv(os.path.join(out_dir, name), manifest_name, columns, rows)
    print(json.dumps(report, indent=2, sort_keys=True))


def cmd_analyze(args):
    model = load_model(args.model)
    Q = _load_weight(args.Q, model.n) if args.Q else None

    # One Stein-SMW step gives the verdict and, where it passes, L.
    Qm = energy_weight(model, Q)
    stability, solution = _analysis(model, args.alpha, Qm)
    if args.G:
        G = _load_gain(args.G, model.n, model.p)
        detect = check_detectability_with_G(model, args.alpha, G)
    else:
        detect = search_detectability(model, args.alpha)

    lyapunov = None
    if solution is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            varpi_L = op_varpi(model, solution.L)
        _require_finite(args.alpha, varpi_L)
        lyapunov = {
            "L": solution.L,
            "method": solution.method,
            "residual": solution.residual,
            "varpi_L": varpi_L,
        }

    report = _report("analyze", args, {"alpha": args.alpha}, Q, stability=stability,
                     detectability=detect, alpha_bar=critical_alpha(model), lyapunov=lyapunov)
    _emit(report, args)
    return 0


def cmd_norm(args):
    if args.alpha is None and (args.kappa is not None or args.x0 is not None):
        raise ValueError("--kappa and --x0 apply only with --alpha")
    if args.x0 is not None and args.kappa is None:
        raise ValueError("--x0 requires --kappa (the counter-discount bound)")
    model = load_model(args.model)
    Q = _load_weight(args.Q, model.n) if args.Q else None

    if args.sweep is not None:
        alphas = _parse_alpha_list(args.sweep) if args.sweep != "" else None
        rows = vanishing_discount_sweep(model, Q, alphas)
        report = _report("norm", args, {"sweep": [r["alpha"] for r in rows]}, Q, sweep=rows)
        _emit(report, args, tables={"sweep.csv": (SWEEP_COLUMNS, report["sweep"])})
        return 0

    if args.power:
        report = _report("norm", args, {"power": True}, Q, power_norm=power_norm(model, Q))
        _emit(report, args)
        return 0

    # The bound's input checks (x0, alpha >= 1, kappa >= 0) come before the solve.
    if args.kappa is not None:
        x0 = _parse_vector(args.x0, model.n) if args.x0 else np.zeros(model.n)
        check_counter_domain(args.alpha, args.kappa)
    norms = norm_report(model, args.alpha, Q)
    body = dict(vars(norms))
    if args.kappa is not None:
        body["counter_bound_value"] = counter_discount_bound(norms, x0, args.kappa)
    config = {"alpha": args.alpha, "x0": args.x0, "kappa": args.kappa}
    report = _report("norm", args, config, Q, norms=body)
    _emit(report, args)
    return 0


def _against_closed_form(estimate, closed, model, alpha, Q, cfg):
    """The estimate's report block, with its closed forms when they exist.

    ``closed`` is the infinite-horizon closed form.  From x0 = 0 the block
    also carries ``closed_form_horizon``, the closed form of what the
    kappa-stage simulation estimates, and the z-score against it: for
    alpha < 1 the Abel sum sum_{k<=kappa} alpha^k E||x_k||_Q^2, g_0 of the
    backward recursion over kappa + 1 stages; at alpha = 1 the Cesaro mean
    (1/kappa) sum_{k<kappa} E||x_k||_Q^2 = g_0 / kappa.  Like ``closed``,
    it leaves out the cross term of W_d.
    """
    block = dict(vars(estimate))
    if closed is None:
        return block
    block["closed_form"] = closed
    if not np.any(cfg.x0):
        kappa = cfg.horizon
        if alpha < 1.0:
            horizon = float(backward_recursion(model, alpha, Q, kappa + 1).g_seq[0])
        else:
            horizon = float(backward_recursion(model, 1.0, Q, kappa).g_seq[0]) / kappa
        se = estimate.std_error
        block["closed_form_horizon"] = horizon
        block["z_score"] = (estimate.value - horizon) / se if se > 0 else None
    return block


def cmd_simulate(args):
    if args.dump and not args.output_dir:
        raise ValueError("--dump requires --output-dir")
    model = load_model(args.model)
    Q = _load_weight(args.Q, model.n) if args.Q else None
    Qm = energy_weight(model, Q)
    x0 = _parse_vector(args.x0, model.n) if args.x0 else np.zeros(model.n)
    _check_threads(args)

    cfg = SimConfig(
        n_paths=args.paths,
        horizon=args.horizon,
        seed=args.seed,
        noise_kind=args.noise,
        x0=x0,
    )

    # One solve serves the closed forms and the decay check; only the check must have it.
    zero_start = args.alpha < 1.0 and not np.any(x0)
    norms = None
    if zero_start or args.alpha == 1.0 or args.check_decay:
        try:
            norms = norm_report(model, args.alpha, Qm)
        except NotStableError:
            if args.check_decay:
                raise

    # Every estimate reads the one pass over the path blocks.
    abel = AbelSums(args.alpha, cfg.horizon)
    cesaro = CesaroMeans(cfg.horizon) if args.alpha == 1.0 else None
    representation = (RepresentationCheck(model, cfg, args.alpha, Qm)
                      if args.validate_representation else None)
    stages = StageStats(cfg.horizon, cfg.x0, Qm) if args.check_decay else None
    feed = PathFeed(Qm, [r for r in (abel, cesaro, representation, stages) if r is not None])
    dump = _TrajectoryDump(args.output_dir, model) if args.dump else None
    try:
        ensemble = simulate_paths(model, cfg, [feed] if dump is None else [feed, dump],
                                  threads=args.threads)
        abort_fraction = len(ensemble.aborted) / cfg.n_paths

        abel_closed = norms.h2_discounted if norms is not None and zero_start else None
        estimates = {"abel": _against_closed_form(
            abel.result(), abel_closed, model, args.alpha, Qm, cfg)}
        if cesaro is not None:
            estimates["cesaro"] = _against_closed_form(
                cesaro.result(), norms.power_norm if norms is not None else None,
                model, 1.0, Qm, cfg)

        diagnostics = {}
        if representation is not None:
            diagnostics["representation"] = representation.result()
        if stages is not None:
            diagnostics["decay"] = decay_rows(norms, cfg.x0, *stages.result())
        config = {"alpha": args.alpha, "paths": cfg.n_paths, "horizon": cfg.horizon,
                  "seed": cfg.seed, "noise_kind": cfg.noise_kind, "x0": cfg.x0}
        report = _report("simulate", args, config, Q, estimates=estimates,
                         aborted_paths=len(ensemble.aborted), abort_fraction=abort_fraction,
                         **diagnostics)
        tables = {"decay.csv": (DECAY_COLUMNS, report["decay"])} if stages is not None else {}
    except BaseException:
        if dump is not None:
            dump.discard()
        raise

    _emit(report, args, tables=tables)
    if abort_fraction > ABORT_FRACTION_LIMIT:
        print(
            f"error: {len(ensemble.aborted)} of {cfg.n_paths} paths aborted "
            f"({100.0 * abort_fraction:.2f}% > {100.0 * ABORT_FRACTION_LIMIT:.0f}%)",
            file=sys.stderr,
        )
        return 3
    return 0


def _add_common(sub):
    sub.add_argument("model", help="path to a model JSON file")
    sub.add_argument("--Q", help="path to a JSON weight matrix (default: C^T C)")
    sub.add_argument(
        "--output-dir", help="directory for report.json, manifest.json, CSV mirrors"
    )


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are one line, like every other error."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def build_parser():
    parser = _Parser(
        prog="csviu",
        description=(
            "Stability verdicts, discounted/long-run quadratic norms, and "
            "seeded Monte Carlo validation for CSVIU stochastic systems."
        ),
    )
    parser.add_argument("--version", action="version", version=f"csviu {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    p_analyze = subparsers.add_parser(
        "analyze", help="stability criteria, verdict, and detectability"
    )
    _add_common(p_analyze)
    p_analyze.add_argument("--alpha", type=_positive_alpha, required=True)
    p_analyze.add_argument("--G", help="path to a JSON output-injection gain (n x p)")

    p_norm = subparsers.add_parser(
        "norm", help="closed-form norm quantities at one alpha, or a sweep"
    )
    _add_common(p_norm)
    mode = p_norm.add_mutually_exclusive_group(required=True)
    mode.add_argument("--alpha", type=_positive_alpha)
    mode.add_argument("--power", action="store_true", help="long-run power norm")
    mode.add_argument(
        "--sweep",
        nargs="?",
        const="",
        metavar="ALPHAS",
        help="vanishing-discount table over a comma-separated alpha list",
    )
    p_norm.add_argument("--x0", help="comma-separated initial state (counter bound)")
    p_norm.add_argument(
        "--kappa", type=_integer, help="horizon for the counter-discount bound"
    )

    p_sim = subparsers.add_parser(
        "simulate", help="seeded Monte Carlo estimates with closed-form comparators"
    )
    _add_common(p_sim)
    p_sim.add_argument("--paths", type=_integer, required=True)
    p_sim.add_argument("--horizon", type=_integer, required=True)
    p_sim.add_argument("--seed", type=_integer, required=True)
    p_sim.add_argument("--alpha", type=_positive_alpha, required=True)
    p_sim.add_argument("--x0", help="comma-separated initial state (default: 0)")
    p_sim.add_argument("--noise", choices=NOISE_KINDS, default="gaussian")
    p_sim.add_argument(
        "--threads",
        type=_integer,
        default=1,
        help="processes that simulate whole blocks of paths (default 1; at most "
             "one per CPU and one per block of 4096 paths); reports never depend on it",
    )
    p_sim.add_argument(
        "--validate-representation",
        action="store_true",
        help="Monte Carlo check of the backward-recursion identity",
    )
    p_sim.add_argument(
        "--check-decay",
        action="store_true",
        help="per-stage second-moment decay table",
    )
    p_sim.add_argument(
        "--dump",
        action="store_true",
        help="write trajectories.csv (requires --output-dir)",
    )

    p_sweep = subparsers.add_parser("sweep", help="alias of norm --sweep")
    _add_common(p_sweep)
    p_sweep.add_argument(
        "--alphas", dest="sweep", default="",
        help="comma-separated alpha grid (default: built-in grid)",
    )
    p_sweep.set_defaults(power=False, alpha=None, x0=None, kappa=None)
    return parser


@functools.cache
def _parser():
    """The process's one parser: building it costs more than most commands' parse."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    # Looked up at call time, so a command rebound on the module is the one run.
    command = {"analyze": cmd_analyze, "norm": cmd_norm, "sweep": cmd_norm,
               "simulate": cmd_simulate}[args.subcommand]
    try:
        return command(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
