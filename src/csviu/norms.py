"""Closed-form H2-norm quantities from the perturbed Lyapunov solution.

All quantities here come from L, the solution of (I - L_alpha)(U) = Q:

  discounted mean energy (alpha < 1, x0 = 0):  alpha/(1-alpha) varpi(L)
  long-run mean power (alpha = 1):             varpi(L)
  v_bar envelope:   alpha r_sigma((I - alpha A^T)^{-1}) |W_d(L)|
  counter-discount bound (alpha >= 1):  c0 ||x0 - xi||^2 + kappa c1 alpha^kappa
  geometric decay bound:  2 alpha^{-k} (||x0||_L^2 + <v_bar, |x0|>)

norm_report solves for L once per (model, alpha, Q), and
vanishing_discount_sweep once per distinct solvable alpha of its grid,
each through solve_lyapunov; every other function here reads the
NormReport or the rows they return.

These formulas are exact for the second-moment recursion they are
derived from; see csviu.sim for the Monte Carlo oracle that measures how
well that recursion tracks the actual nonlinear dynamics (exactly, when
W(L) = 0; approximately otherwise — the README discusses the gap).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotStableError, SingularOperatorError
from .model import as_weight, energy_weight
from .ops import op_W_d, op_varpi, spectral_radius, unit_radius
from .solver import (
    _require_finite,
    critical_alpha,
    max_abs,
    radius_below_one,
    solve_lyapunov,
)

__all__ = [
    "NormReport",
    "VBarBound",
    "h2_discounted_norm",
    "power_norm",
    "v_bar_bound",
    "check_counter_domain",
    "counter_discount_bound",
    "decay_bound",
    "vanishing_discount_sweep",
    "norm_report",
    "default_sweep_grid",
]


@dataclass(frozen=True)
class VBarBound:
    """Envelope for the sign-dependent linear term of the energy.

    ``primary`` follows the scalar-multiplier formula
    alpha * r_sigma((I - alpha A^T)^{-1}) * |W_d(L)|; ``conservative``
    replaces the spectral radius with the matrix infinity-norm, which
    dominates it entrywise when the resolvent mixes components.
    """

    primary: np.ndarray
    conservative: np.ndarray


@dataclass(frozen=True)
class NormReport:
    """All closed-form norm quantities available at one alpha; L is read-only."""

    alpha: float
    L: np.ndarray
    varpi_L: float
    h2_discounted: float | None
    power_norm: float | None
    v_bar: np.ndarray
    v_bar_conservative: np.ndarray
    energy_offset_g0: float | None
    counter_bound: dict | None


def _require_alpha_A_stable(report, quantity):
    """Raise NotStableError unless r_sigma(alpha A) < 1 at the report's alpha.

    Every alpha >= 1 quantity needs it; norm_report keeps c0 and c1 there
    exactly when it holds.  Below one a solvable L_alpha implies it
    (alpha r_sigma(A)^2 <= r_sigma(L_alpha) < 1).
    """
    if report.alpha >= 1.0 and report.counter_bound is None:
        alpha = report.alpha
        raise NotStableError(f"{quantity} requires r_sigma(alpha A) < 1 at alpha = {alpha:.6g}")


def h2_discounted_norm(model, alpha, Q=None):
    """Discounted mean energy alpha/(1-alpha) * varpi(L) for x0 = 0.

    Parameters
    ----------
    model : CsviuModel
    alpha : float
        Must satisfy 0 < alpha < 1.
    Q : array_like, optional
        Energy weight; defaults to C^T C.

    Raises
    ------
    DomainError
        If alpha is outside (0, 1).
    NotStableError
        If the Lyapunov equation has no PSD solution at alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("h2_discounted_norm requires 0 < alpha < 1")
    return norm_report(model, alpha, Q).h2_discounted


def power_norm(model, Q=None):
    """Long-run mean power varpi(L) with L solving the alpha = 1 equation.

    Requires r_sigma(A) < 1 in addition to d-stability of L_1.
    """
    report = norm_report(model, 1.0, Q)
    _require_alpha_A_stable(report, "power norm")
    return report.power_norm


def v_bar_bound(model, alpha, L):
    """The computable envelope v_bar for the sign-dependent energy term.

    Parameters
    ----------
    model : CsviuModel
    alpha : float
    L : array_like
        Solution of the Lyapunov equation at alpha (or any PSD upper
        bound for the recursion sequence).

    Returns
    -------
    VBarBound
        Entrywise nonnegative ``primary`` and ``conservative`` vectors.

    Raises
    ------
    SingularOperatorError
        If I - alpha A^T is singular.
    """
    n = model.n
    Lm = as_weight(L, n, "L")
    T = np.eye(n) - alpha * model.A.T
    try:
        T_inv = np.linalg.inv(T)
    except np.linalg.LinAlgError:
        raise SingularOperatorError("I - alpha A^T is singular") from None
    w_abs = np.abs(op_W_d(model, Lm))
    primary = alpha * spectral_radius(T_inv) * w_abs
    conservative = alpha * float(np.linalg.norm(T_inv, np.inf)) * w_abs
    return VBarBound(primary=primary, conservative=conservative)


def check_counter_domain(alpha, kappa):
    """DomainError unless alpha >= 1 and kappa >= 0; needs no solve."""
    if alpha < 1.0:
        raise DomainError("counter_discount_bound requires alpha >= 1")
    if kappa < 0:
        raise DomainError(f"counter_discount_bound requires kappa >= 0, got {kappa}")


def counter_discount_bound(report, x0, kappa):
    """Growth bound c0 ||x0 - xi||^2 + kappa c1 alpha^kappa for alpha >= 1.

    Reads alpha, L, v_bar and (c0, c1) from ``report``, a NormReport:
    c0 = lambda_max(L); c1 = alpha varpi(L)/(alpha - 1) for alpha > 1 and
    c1 = varpi(L) at alpha = 1; xi = -1/2 L^{-1} v_bar.

    Raises
    ------
    DomainError
        If alpha < 1, kappa < 0, or the bound overflows a double.
    NotStableError
        If r_sigma(alpha A) >= 1.
    """
    alpha = report.alpha
    check_counter_domain(alpha, kappa)
    _require_alpha_A_stable(report, "counter-discount bound")
    Lm = report.L
    try:
        xi = -0.5 * np.linalg.solve(Lm, report.v_bar)
    except np.linalg.LinAlgError:
        raise SingularOperatorError(
            "L is singular; the bound center -1/2 L^{-1} v_bar is undefined"
        ) from None
    c0, c1 = report.counter_bound["c0"], report.counter_bound["c1"]
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = c0 * float(np.sum((x0 - xi) ** 2)) + kappa * c1 * alpha**kappa
    except OverflowError:
        value = float("inf")
    if not np.isfinite(value):
        raise DomainError("the counter-discount bound is not a finite double; "
                          "lower --kappa or --x0")
    return value


def _decay_envelope(report, x0, k):
    """decay_bound without its guard."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    quad = float(x0 @ report.L @ x0) + float(report.v_bar @ np.abs(x0))
    if quad == 0.0:
        return 0.0  # from x0 = 0 the envelope is 0 at every k, where alpha^-k may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        value = 2.0 * np.float64(report.alpha) ** (-k) * quad
    if not np.isfinite(value):
        raise DomainError(f"the decay envelope 2 alpha^-k (||x0||_L^2 + <v_bar, |x0|>) is "
                          f"not a finite double at k = {k}; lower --horizon or raise --alpha")
    return float(value)


def decay_bound(report, x0, k):
    """Geometric envelope 2 alpha^{-k} (||x0||_L^2 + <v_bar, |x0|>).

    Reads alpha, L and v_bar from ``report``, a NormReport.  Bounds
    |E||x_k||_Q^2 - alpha varpi(L)| in the second-moment recursion for
    every k > 0, provided 0 < alpha < alpha_bar.  Raises DomainError when
    the envelope is not a finite double.
    """
    if report.alpha <= 0:
        raise DomainError("decay_bound requires alpha > 0")
    _require_alpha_A_stable(report, "decay bound")
    return _decay_envelope(report, x0, k)


def default_sweep_grid(model):
    """The default alpha grid: {0.5, 0.9, 0.99, 0.999, 1.0, min(1.05, (1+alpha_bar)/2)}."""
    alpha_bar = critical_alpha(model)
    return [0.5, 0.9, 0.99, 0.999, 1.0, min(1.05, (1.0 + alpha_bar) / 2.0)]


@np.errstate(over="ignore", invalid="ignore")  # overflow ends in _require_finite instead
def vanishing_discount_sweep(model, Q=None, alphas=None):
    """Tabulate varpi(L_alpha) and the Abel gap across an alpha grid.

    For each alpha the row carries varpi(L_alpha), the discounted energy
    alpha/(1-alpha) varpi(L_alpha) when alpha < 1, the closed-form Abel
    gap (1-alpha)*[Abel sum] - varpi(L_1) = alpha varpi(L_alpha) -
    varpi(L_1), and the distance ||L_alpha - L_1||_inf.  Unsolvable
    entries are marked not_stable rather than aborting the sweep; a row
    that overflows a double raises DomainError.  Every distinct solvable
    alpha of the grid, and alpha = 1 for L_1, is solved once through
    solve_lyapunov.

    Returns
    -------
    list of dict
        One row per alpha with keys alpha, status, varpi_L,
        h2_discounted, abel_gap, dist_to_L1, spectral_radius.
    """
    if alphas is None:
        alphas = default_sweep_grid(model)
    unit = unit_radius(model)
    solvable = [alpha for alpha in dict.fromkeys([*alphas, 1.0])
                if radius_below_one(alpha * unit)]
    Qm = energy_weight(model, Q)
    solutions = {alpha: solve_lyapunov(model, alpha, Qm) for alpha in solvable}
    L1 = solutions[1.0].L if 1.0 in solutions else None
    varpi_L1 = None if L1 is None else op_varpi(model, L1)

    columns = ("varpi_L", "h2_discounted", "abel_gap", "dist_to_L1")
    rows = []
    for alpha in alphas:
        row = {"alpha": float(alpha), "status": "not_stable", "spectral_radius": alpha * unit,
               **dict.fromkeys(columns)}
        solution = solutions.get(alpha)
        if solution is not None:
            Lm = solution.L
            row.update(status="ok", varpi_L=op_varpi(model, Lm))
            if alpha < 1.0:
                row["h2_discounted"] = alpha / (1.0 - alpha) * row["varpi_L"]
            if varpi_L1 is not None:
                row["abel_gap"] = alpha * row["varpi_L"] - varpi_L1
                row["dist_to_L1"] = max_abs(Lm - L1)
            _require_finite(alpha, *(row[key] for key in columns))
        rows.append(row)
    return rows


@np.errstate(over="ignore", invalid="ignore")  # overflow ends in _require_finite instead
def norm_report(model, alpha, Q=None):
    """Solve (I - L_alpha)(U) = Q once and derive every closed form at alpha.

    The counter-discount record (c0, c1) is included for alpha >= 1 when
    r_sigma(alpha A) < 1; the discounted energy and offset g0 for
    alpha < 1; the power norm only at alpha = 1 (and r_sigma(A) < 1).
    Raises NotStableError if the equation has no PSD solution at alpha,
    and DomainError if L or a closed form is not a finite double.

    Parameters
    ----------
    model : CsviuModel
    alpha : float
    Q : array_like, optional
    """
    Lm = solve_lyapunov(model, alpha, energy_weight(model, Q)).L
    varpi_L = op_varpi(model, Lm)
    vb = v_bar_bound(model, alpha, Lm)

    # The zero-input offset g0 is the discounted energy itself.
    h2 = alpha / (1.0 - alpha) * varpi_L if alpha < 1.0 else None
    pw = counter = None
    if alpha >= 1.0 and radius_below_one(alpha * spectral_radius(model.A)):
        pw = varpi_L if alpha == 1.0 else None
        c0 = float(np.linalg.eigvalsh(Lm)[-1])
        c1 = alpha * varpi_L / (alpha - 1.0) if alpha > 1.0 else varpi_L
        counter = {"c0": c0, "c1": c1}
    _require_finite(alpha, varpi_L, h2, vb.primary, vb.conservative, *(counter or {}).values())

    return NormReport(
        alpha=float(alpha),
        L=Lm,
        varpi_L=varpi_L,
        h2_discounted=h2,
        power_norm=pw,
        v_bar=vb.primary,
        v_bar_conservative=vb.conservative,
        energy_offset_g0=h2,
        counter_bound=counter,
    )
