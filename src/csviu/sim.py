"""Seeded Monte Carlo engine for CSVIU systems.

Trajectory sampling, energy/power estimators, pathwise evaluation of the
backward-recursion energy representation, overtaking comparison, and the
per-stage decay check.

Reproducibility contract: path j draws its noise from a Philox stream
keyed by (master seed, j), consumed in a stage-block partition that
depends only on the model dimensions and the horizon.  Each path block
re-keys one generator per path, which gives every path the stream of a
fresh Philox(key=(seed, j)).  Path blocks have a fixed size and
estimators reduce in fixed block order, so path j's trajectory does not
change when the ensemble grows.  Blocks run serially: the CLI accepts
and validates --threads, and no result depends on it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError
from .model import as_weight, energy_weight
from .norms import _decay_envelope, norm_report
from .ops import op_varpi, op_W_d
from .solver import backward_recursion

__all__ = [
    "SimConfig",
    "EnergyEstimate",
    "Ensemble",
    "InputPolicy",
    "ZeroInput",
    "ConstantInput",
    "StateFeedbackInput",
    "simulate_paths",
    "estimate_abel_energy",
    "estimate_cesaro_power",
    "per_stage_energy",
    "validate_representation",
    "compare_overtaking",
    "check_decay",
]

#: Paths per block (one generator, one noise buffer); fixed, so no result
#: depends on the ensemble size or on --threads.
PATH_BLOCK = 4096

#: Noise-buffer budget per path block, in array elements.
STAGE_BLOCK_ELEMENTS = 2**25

#: A path aborts once any state component exceeds this magnitude.
OVERFLOW_LIMIT = 1e150

NOISE_KINDS = ("gaussian", "rademacher", "uniform")

_SQRT3 = np.sqrt(3.0)


class InputPolicy:
    """Deterministic exogenous-input policy l_k for the input variant."""

    def inputs(self, k, x):
        """Inputs for stage k given states x of shape (paths, n); (paths, m) or None."""
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroInput(InputPolicy):
    def inputs(self, k, x):
        return None


@dataclass(frozen=True)
class ConstantInput(InputPolicy):
    ell: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.ell, dtype=float))
        arr.setflags(write=False)
        object.__setattr__(self, "ell", arr)

    def inputs(self, k, x):
        return np.broadcast_to(self.ell, (x.shape[0], self.ell.shape[0]))


@dataclass(frozen=True)
class StateFeedbackInput(InputPolicy):
    """Linear state feedback l_k = K x_k."""

    K: np.ndarray

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.K, dtype=float))
        arr.setflags(write=False)
        object.__setattr__(self, "K", arr)

    def inputs(self, k, x):
        return x @ self.K.T


@dataclass
class SimConfig:
    """Monte Carlo run parameters.

    noise_kind selects the common distribution of the (eps, w) draws;
    all three choices are zero-mean with identity joint covariance.
    """

    n_paths: int
    horizon: int
    seed: int
    noise_kind: str = "gaussian"
    x0: np.ndarray = field(default_factory=lambda: np.zeros(1))
    input_policy: InputPolicy = field(default_factory=ZeroInput)

    def __post_init__(self):
        self.n_paths = int(self.n_paths)
        if self.n_paths < 1:
            raise ValueError("n_paths must be a positive integer")
        self.horizon = int(self.horizon)
        if self.horizon < 1:
            raise ValueError("horizon must be a positive integer")
        self.seed = int(self.seed)
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.noise_kind not in NOISE_KINDS:
            raise ValueError(f"noise_kind must be one of {NOISE_KINDS}")
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if not np.all(np.isfinite(self.x0)):
            raise ValueError("x0 must be finite")
        if not isinstance(self.input_policy, InputPolicy):
            raise ValueError("input_policy must be an InputPolicy")


@dataclass(frozen=True)
class EnergyEstimate:
    """Monte Carlo estimator value with its ensemble standard error."""

    value: float
    std_error: float
    n_paths: int
    kind: str


@dataclass
class Ensemble:
    """Sampled trajectories plus abort diagnostics.

    X has shape (n_paths, horizon+1, n); aborted paths hold NaN from
    their abort stage onward and are excluded from every estimator.
    ``aborted`` lists (path index, stage) for each overflow, ordered by
    path block, then stage, then path.
    """

    model: object
    cfg: SimConfig
    X: np.ndarray
    ok: np.ndarray
    aborted: list

    @property
    def n_paths(self):
        return self.X.shape[0]

    @property
    def horizon(self):
        return self.X.shape[1] - 1

    @property
    def n_ok(self):
        return int(self.ok.sum())

    def inputs_at(self, k):
        """Stage-k inputs for all paths, or None under the zero policy."""
        return self.cfg.input_policy.inputs(k, self.X[:, k, :])

    def outputs(self):
        """Lazy outputs y_k = C x_k + D l_k with shape (n_paths, horizon+1, p)."""
        C, D = self.model.C, self.model.D
        Y = np.einsum("pkj,ij->pki", self.X, C)
        if D is not None:
            for k in range(self.X.shape[1]):
                ell = self.inputs_at(k)
                if ell is not None:
                    Y[:, k, :] += ell @ D.T
        return Y


def _draw(gen, kind, out):
    """Fill ``out`` with the next draws of ``gen`` in C order."""
    if kind == "gaussian":
        gen.standard_normal(out=out)
    elif kind == "rademacher":
        out[...] = gen.integers(0, 2, size=out.shape).astype(float) * 2.0 - 1.0
    else:
        out[...] = gen.uniform(-_SQRT3, _SQRT3, size=out.shape)


def _stage_block_size(horizon, width):
    # Depends only on (horizon, n + r): the draw partition is part of the
    # reproducibility contract and must not vary with ensemble size.
    return max(1, min(horizon, STAGE_BLOCK_ELEMENTS // (PATH_BLOCK * width)))


def _simulate_block(model, cfg, X, ok, aborted, j0, j1):
    """Simulate paths j0..j1-1 into the preallocated slice X[j0:j1]."""
    n = model.n
    A, B, sx, sbx, sg = model.A, model.B, model.sigma_x, model.sigma_bar_x, model.sigma
    policy = cfg.input_policy
    horizon = cfg.horizon
    width = n + model.r
    bp = j1 - j0

    # One generator re-keyed per path: a fresh Philox(key=(seed, j)) has
    # counter 0 and an empty output buffer, so path j's stream is unchanged.
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    fresh = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": [cfg.seed, 0]},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    key = fresh["state"]["key"]
    saved = [None] * bp

    x = np.tile(cfg.x0, (bp, 1))
    X[j0:j1, 0, :] = x
    alive = np.ones(bp, dtype=bool)
    all_alive = True

    sb = _stage_block_size(horizon, width)
    buf = np.empty((bp, sb, width))
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, horizon, sb):
            k1 = min(k0 + sb, horizon)
            for i in range(bp):
                if k0:
                    bitgen.state = saved[i]
                else:
                    key[1] = j0 + i
                    bitgen.state = fresh
                _draw(gen, cfg.noise_kind, buf[i, : k1 - k0])
                if k1 < horizon:
                    saved[i] = bitgen.state
            for k in range(k0, k1):
                eps = buf[:, k - k0, :n]
                om = buf[:, k - k0, n:]
                xn = x @ A.T
                if B is not None:
                    ell = policy.inputs(k, x)
                    if ell is not None:
                        xn = xn + ell @ B.T
                xn = xn + eps @ sx.T + (np.abs(x) * eps) @ sbx.T + om @ sg.T
                # NaN and inf both fail the comparison.
                bad = ~(np.abs(xn) <= OVERFLOW_LIMIT).all(axis=1)
                if not all_alive or bad.any():
                    bad &= alive
                    aborted.extend((j0 + int(i), k + 1) for i in np.flatnonzero(bad))
                    alive &= ~bad
                    all_alive = False
                    xn[~alive] = np.nan
                X[j0:j1, k + 1, :] = xn
                x = xn if all_alive else np.where(alive[:, None], xn, 0.0)
    ok[j0:j1] = alive


def simulate_paths(model, cfg):
    """Sample an ensemble of CSVIU trajectories.

    x_{k+1} = A x_k + B l_k + (sigma_x + sigma_bar_x diag(|x_k|)) eps_k
    + sigma w_k per path.  Identical (model, cfg) gives bit-identical
    ensembles.

    Parameters
    ----------
    model : CsviuModel
    cfg : SimConfig

    Raises
    ------
    ValueError
        If the ensemble and its noise buffer would not fit in physical
        memory (nothing is allocated).

    Returns
    -------
    Ensemble
        Paths whose state magnitude exceeds 1e150 (or goes non-finite)
        abort at the offending stage: the (path, stage) pair is recorded,
        the trajectory is NaN from there on, and estimators exclude it.
    """
    if cfg.x0.shape != (model.n,):
        raise DimensionError(f"x0 must have length n={model.n}, got {cfg.x0.shape}")
    if model.B is None and not isinstance(cfg.input_policy, ZeroInput):
        raise ValueError("input_policy requires a model with m > 0")

    n_paths, horizon = cfg.n_paths, cfg.horizon
    width = model.n + model.r
    # The ensemble X plus one path block's noise buffer.
    need = 8 * (n_paths * (horizon + 1) * model.n
                + min(n_paths, PATH_BLOCK) * _stage_block_size(horizon, width) * width)
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > physical:
        raise ValueError(f"the ensemble and its noise buffer need {need / 1e9:.3g} GB, "
                         f"more than the {physical / 1e9:.3g} GB of memory; "
                         "lower --paths or --horizon")
    X = np.empty((n_paths, horizon + 1, model.n))
    ok = np.ones(n_paths, dtype=bool)
    aborted = []
    for j0 in range(0, n_paths, PATH_BLOCK):
        _simulate_block(model, cfg, X, ok, aborted, j0, min(j0 + PATH_BLOCK, n_paths))
    return Ensemble(model=model, cfg=cfg, X=X, ok=ok, aborted=aborted)


def _quad_per_stage(X, Qm, mask, chunk=PATH_BLOCK):
    """Yield per-path, per-stage quadratic forms x^T Q x over valid paths."""
    idx = np.flatnonzero(mask)
    for c0 in range(0, idx.size, chunk):
        sel = idx[c0 : c0 + chunk]
        Xc = X[sel]
        yield np.einsum("pki,ij,pkj->pk", Xc, Qm, Xc)


def _require_finite_means(means):
    """The estimators run without overflow warnings; a mean that is not finite raises here."""
    if not np.isfinite(means).all():
        raise DomainError("a Monte Carlo mean is not a finite double; "
                          "scale down --Q, or lower --alpha or --horizon")


def _ensemble_stats(values):
    values = np.asarray(values, dtype=float)
    n = values.size
    # near the overflow guard the variance may round to inf; that is an
    # honest answer, not a warning condition
    with np.errstate(over="ignore"):
        mean = float(values.mean()) if n else float("nan")
        if n > 1:
            se = float(values.std(ddof=1) / np.sqrt(n))
        else:
            se = 0.0 if n == 1 else float("nan")
    if n:
        _require_finite_means(mean)
    return mean, se, n


@np.errstate(over="ignore", invalid="ignore")
def estimate_abel_energy(ensemble, Q, alpha):
    """Per-path discounted energy sum_{k=0}^{kappa} alpha^k ||x_k||_Q^2.

    Returns the ensemble mean and standard error over surviving paths.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    Qm = as_weight(Q, ensemble.model.n)
    kappa = ensemble.horizon
    w = float(alpha) ** np.arange(kappa + 1)
    sums = [q @ w for q in _quad_per_stage(ensemble.X, Qm, ensemble.ok)]
    values = np.concatenate(sums) if sums else np.empty(0)
    mean, se, n = _ensemble_stats(values)
    return EnergyEstimate(
        value=mean,
        std_error=se,
        n_paths=n,
        kind=f"abel(alpha={alpha}, kappa={kappa})",
    )


@np.errstate(over="ignore", invalid="ignore")
def estimate_cesaro_power(ensemble, Q):
    """Per-path long-run average (1/kappa) sum_{k<kappa} ||x_k||_Q^2."""
    Qm = as_weight(Q, ensemble.model.n)
    kappa = ensemble.horizon
    means = [q[:, :kappa].mean(axis=1) for q in _quad_per_stage(ensemble.X, Qm, ensemble.ok)]
    values = np.concatenate(means) if means else np.empty(0)
    mean, se, n = _ensemble_stats(values)
    return EnergyEstimate(
        value=mean, std_error=se, n_paths=n, kind=f"cesaro(kappa={kappa})"
    )


@np.errstate(over="ignore", invalid="ignore")
def per_stage_energy(ensemble, Q):
    """Stagewise ensemble means and standard errors of ||x_k||_Q^2.

    Returns
    -------
    (means, std_errors) : ndarray of shape (horizon+1,), each
    """
    Qm = as_weight(Q, ensemble.model.n)
    kappa = ensemble.horizon
    total = np.zeros(kappa + 1)
    sq_dev = np.zeros(kappa + 1)
    n = 0
    for q in _quad_per_stage(ensemble.X, Qm, ensemble.ok):
        m = q.shape[0]
        chunk_total = q.sum(axis=0)
        # Deviations from each chunk's own mean avoid the cancellation (and
        # inf - inf) of the textbook sum-of-squares shortcut; chunks merge by
        # the pairwise update of Chan, Golub & LeVeque (1979).
        sq_dev += ((q - chunk_total / m) ** 2).sum(axis=0)
        if n:
            sq_dev += (chunk_total / m - total / n) ** 2 * (n * m / (n + m))
        total += chunk_total
        n += m
    if n == 0:
        nan = np.full(kappa + 1, np.nan)
        return nan, nan
    means = total / n
    _require_finite_means(means)
    ses = np.sqrt(sq_dev / (n - 1) / n) if n > 1 else np.zeros(kappa + 1)
    return means, ses


@np.errstate(over="ignore", invalid="ignore")
def validate_representation(ensemble, alpha, Q, Phi=None, gamma=0.0):
    """Monte Carlo check of the backward-recursion energy representation.

    Evaluated on the paths of ``ensemble``, whose model and config it uses.

    lhs is the MC estimate of E[sum_{k<kappa} alpha^k ||x_k||_Q^2]; rhs is
    ||x0||_{P_0}^2 + <E[v_0], x0> + E[g_0] - alpha^kappa E[||x_kappa||_Phi^2
    + gamma], with v_0 and the input-dependent part of g_0 evaluated per
    path along the sampled sign sequence.

    The representation's derivation treats the sign sequence as
    uncorrelated with same-stage noise.  That cross term is generally
    nonzero when W_d(P) != 0, so the record also carries its pathwise
    estimate: ``sign_noise_term`` is the MC value of
    sum_{k<kappa} alpha^{k+1} <v_{k+1}, sigma(x_k) noise_k>, and
    ``corrected_gap`` is the gap after adding it to the rhs.  When
    W_d(P) = 0 (sigma_x = 0 or sigma_bar_x = 0) the term vanishes and
    gap and corrected_gap agree.

    Returns
    -------
    dict with keys lhs, rhs, gap, std_error, z, n_paths,
    sign_noise_term, corrected_gap, corrected_std_error.
    """
    model, cfg = ensemble.model, ensemble.cfg
    n = model.n
    kappa = cfg.horizon
    Qm = as_weight(Q, n)
    P = backward_recursion(model, alpha, Qm, kappa, Phi, gamma).P_seq

    okX = ensemble.X if ensemble.ok.all() else ensemble.X[ensemble.ok]
    n_ok = okX.shape[0]
    if n_ok == 0:
        raise ValueError("all paths aborted; representation check impossible")
    x0 = cfg.x0

    w = float(alpha) ** np.arange(kappa + 1)
    q = np.einsum("pki,ij,pkj->pk", okX, Qm, okX)
    S = q[:, :kappa] @ w[:kappa]

    A, B = model.A, model.B
    policy = cfg.input_policy
    v = np.zeros((n_ok, n))
    g = np.full(n_ok, float(gamma))
    corr = np.zeros(n_ok)
    for k in range(kappa - 1, -1, -1):
        Pk1 = P[k + 1]
        wd = op_W_d(model, Pk1)
        s_k = np.sign(okX[:, k, :])
        varpi_k1 = op_varpi(model, Pk1)
        if B is not None:
            ell = policy.inputs(k, okX[:, k, :])
        else:
            ell = None
        if ell is not None:
            Bl = ell @ B.T
            g = alpha * (
                g
                + varpi_k1
                + np.einsum("pi,ij,pj->p", Bl, Pk1, Bl)
                + (v * Bl).sum(axis=1)
            )
            noise = okX[:, k + 1, :] - okX[:, k, :] @ A.T - Bl
            corr += w[k] * alpha * (v * noise).sum(axis=1)
            v = alpha * ((v + 2.0 * (Bl @ Pk1)) @ A + wd * s_k)
        else:
            g = alpha * (g + varpi_k1)
            noise = okX[:, k + 1, :] - okX[:, k, :] @ A.T
            corr += w[k] * alpha * (v * noise).sum(axis=1)
            v = alpha * (v @ A + wd * s_k)

    terminal = np.einsum("pi,ij,pj->p", okX[:, kappa, :], P[kappa], okX[:, kappa, :]) + float(gamma)
    quad0 = float(x0 @ P[0] @ x0)
    R = v @ x0 + g - w[kappa] * terminal

    diffs = S - R
    gap_mean, gap_se, _ = _ensemble_stats(diffs)
    gap = abs(gap_mean - quad0)
    corrected = diffs - corr
    cgap_mean, cgap_se, _ = _ensemble_stats(corrected)
    lhs = float(S.mean())
    rhs = quad0 + float(R.mean())
    return {
        "lhs": lhs,
        "rhs": rhs,
        "gap": gap,
        "std_error": gap_se,
        "z": gap / gap_se if gap_se > 0 else float("inf") if gap > 0 else 0.0,
        "n_paths": n_ok,
        "sign_noise_term": float(corr.mean()),
        "corrected_gap": abs(cgap_mean - quad0),
        "corrected_std_error": cgap_se,
    }


def compare_overtaking(ensemble_a, ensemble_b, alpha, epsilon):
    """Finite-horizon overtaking comparison of two output signals.

    Evaluates the partial energies E(kappa) = sum_{k<=kappa} alpha^k
    E||y_k||^2 for both ensembles and finds the smallest kappa_0 after
    which E_a(kappa) <= E_b(kappa) + epsilon holds through the horizon.

    Returns
    -------
    dict with keys overtakes (bool), crossing_kappa (int or None), and
    margin (list of E_a(kappa) - E_b(kappa) - epsilon per kappa).
    """
    if ensemble_a.horizon != ensemble_b.horizon:
        raise ValueError("ensembles must share the horizon")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    kappa = ensemble_a.horizon
    w = float(alpha) ** np.arange(kappa + 1)

    def partial_energies(ens):
        Y = ens.outputs()[ens.ok]
        stage = np.einsum("pki,pki->pk", Y, Y).mean(axis=0)
        return np.cumsum(w * stage)

    margin = partial_energies(ensemble_a) - partial_energies(ensemble_b) - epsilon
    violations = np.flatnonzero(margin > 0)
    if violations.size == 0:
        return {"overtakes": True, "crossing_kappa": 0, "margin": margin.tolist()}
    last = int(violations[-1])
    if last >= kappa:
        return {"overtakes": False, "crossing_kappa": None, "margin": margin.tolist()}
    return {"overtakes": True, "crossing_kappa": last, "margin": margin.tolist()}


def check_decay(ensemble, alpha, Q=None, report=None):
    """Per-stage comparison of E||x_k||_Q^2 against the geometric envelope.

    Evaluated on the paths of ``ensemble``, whose model and config it uses.

    Each row carries the stage index, the MC mean and standard error,
    the bound 2 alpha^{-k} (||x0||_L^2 + <v_bar, |x0|>) around the level
    alpha varpi(L), both read from norm_report, and whether the mean
    exceeds level + bound by more than 3 standard errors.  Unlike
    decay_bound it also tabulates an alpha with r_sigma(alpha A) >= 1.
    ``report``, when given, must be norm_report(model, alpha, Q); the
    check then solves nothing.  An envelope that is not a finite double
    raises DomainError.

    Returns
    -------
    list of dict with keys k, energy, std_error, level, bound, violated.
    """
    model, cfg = ensemble.model, ensemble.cfg
    Qm = energy_weight(model, Q)
    if report is None:
        report = norm_report(model, alpha, Qm)
    level = alpha * report.varpi_L

    means, ses = per_stage_energy(ensemble, Qm)
    rows = []
    for k in range(cfg.horizon + 1):
        bound = _decay_envelope(report, cfg.x0, k)
        violated = bool(means[k] > level + bound + 3.0 * ses[k])
        rows.append(
            {
                "k": k,
                "energy": float(means[k]),
                "std_error": float(ses[k]),
                "level": level,
                "bound": bound,
                "violated": violated,
            }
        )
    return rows
