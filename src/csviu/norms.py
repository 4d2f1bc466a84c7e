"""Closed-form H2-norm quantities from the perturbed Lyapunov solution.

All quantities here come from L, the solution of (I - L_alpha)(U) = Q:

  discounted mean energy (alpha < 1, x0 = 0):  alpha/(1-alpha) varpi(L)
  long-run mean power (alpha = 1):             varpi(L)
  v_bar envelope:   alpha r_sigma((I - alpha A^T)^{-1}) |W_d(L)|
  counter-discount bound (alpha >= 1):  c0 ||x0 - xi||^2 + kappa c1 alpha^kappa
  geometric decay bound:  2 alpha^{-k} (||x0||_L^2 + <v_bar, |x0|>)

These formulas are exact for the second-moment recursion they are
derived from; see csviu.sim for the Monte Carlo oracle that measures how
well that recursion tracks the actual nonlinear dynamics (exactly, when
W(L) = 0; approximately otherwise — the README discusses the gap).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotStableError, SingularOperatorError
from .model import SymMatrix, as_weight, energy_weight
from .ops import op_W_d, op_varpi, spectral_radius
from .solver import backward_recursion, critical_alpha, max_abs, radius_below_one, solve_lyapunov

__all__ = [
    "NormReport",
    "VBarBound",
    "h2_discounted_norm",
    "power_norm",
    "v_bar_bound",
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
    """All closed-form norm quantities available at one alpha."""

    alpha: float
    L: SymMatrix
    varpi_L: float
    h2_discounted: float | None
    power_norm: float | None
    v_bar: np.ndarray
    v_bar_conservative: np.ndarray
    energy_offset_g0: float | None
    counter_bound: dict | None


def _solve(model, alpha, Q):
    return solve_lyapunov(model, alpha, energy_weight(model, Q), method="direct")


def h2_discounted_norm(model, alpha, Q=None):
    """Discounted mean energy alpha/(1-alpha) * varpi(L) for x0 = 0.

    Parameters
    ----------
    model : CsviuModel
    alpha : float
        Must satisfy 0 < alpha < 1.
    Q : SymMatrix or array_like, optional
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
    solution = _solve(model, alpha, Q)
    return alpha / (1.0 - alpha) * op_varpi(model, solution.L.entries)


def power_norm(model, Q=None):
    """Long-run mean power varpi(L) with L solving the alpha = 1 equation.

    Requires r_sigma(A) < 1 in addition to d-stability of L_1.
    """
    r_A = spectral_radius(model.A)
    if not radius_below_one(r_A):
        raise NotStableError(
            f"power norm requires r_sigma(A) < 1, got {r_A:.6g}",
            spectral_radius=r_A,
        )
    solution = _solve(model, 1.0, Q)
    return op_varpi(model, solution.L.entries)


def v_bar_bound(model, alpha, L):
    """The computable envelope v_bar for the sign-dependent energy term.

    Parameters
    ----------
    model : CsviuModel
    alpha : float
    L : SymMatrix or array_like
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
    Lm = as_weight(L, n)
    T = np.eye(n) - alpha * model.A.T
    try:
        T_inv = np.linalg.inv(T)
    except np.linalg.LinAlgError:
        raise SingularOperatorError("I - alpha A^T is singular") from None
    w_abs = np.abs(op_W_d(model, Lm))
    primary = alpha * spectral_radius(T_inv) * w_abs
    conservative = alpha * float(np.linalg.norm(T_inv, np.inf)) * w_abs
    return VBarBound(primary=primary, conservative=conservative)


def _bound_center(model, alpha, Lm):
    """xi = -1/2 L^{-1} v_bar, the computable center of the energy bound."""
    vb = v_bar_bound(model, alpha, Lm).primary
    try:
        return -0.5 * np.linalg.solve(Lm, vb)
    except np.linalg.LinAlgError:
        raise SingularOperatorError(
            "L is singular; the bound center -1/2 L^{-1} v_bar is undefined"
        ) from None


def counter_discount_bound(model, alpha, Q, x0, kappa):
    """Growth bound c0 ||x0 - xi||^2 + kappa c1 alpha^kappa for alpha >= 1.

    c0 = lambda_max(L); c1 = alpha varpi(L)/(alpha - 1) for alpha > 1 and
    c1 = varpi(L) at alpha = 1; xi = -1/2 L^{-1} v_bar.

    Raises
    ------
    DomainError
        If alpha < 1 or the horizon kappa is negative.
    NotStableError
        If the equation is unsolvable at alpha or r_sigma(alpha A) >= 1.
    """
    if alpha < 1.0:
        raise DomainError("counter_discount_bound requires alpha >= 1")
    if kappa < 0:
        raise DomainError(f"counter_discount_bound requires kappa >= 0, got {kappa}")
    r_A = spectral_radius(model.A)
    if not radius_below_one(alpha * r_A):
        raise NotStableError(
            f"counter-discount bound requires r_sigma(alpha A) < 1, "
            f"got {alpha * r_A:.6g}",
            spectral_radius=alpha * r_A,
        )
    solution = _solve(model, alpha, Q)
    Lm = solution.L.entries
    varpi_L = op_varpi(model, Lm)
    c0 = float(np.linalg.eigvalsh(Lm)[-1])
    c1 = alpha * varpi_L / (alpha - 1.0) if alpha > 1.0 else varpi_L
    xi = _bound_center(model, alpha, Lm)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    return c0 * float(np.sum((x0 - xi) ** 2)) + kappa * c1 * alpha**kappa


def decay_bound(model, alpha, Q, x0, k):
    """Geometric envelope 2 alpha^{-k} (||x0||_L^2 + <v_bar, |x0|>).

    Bounds |E||x_k||_Q^2 - alpha varpi(L)| in the second-moment
    recursion for every k > 0, provided 0 < alpha < alpha_bar.
    """
    if alpha <= 0:
        raise DomainError("decay_bound requires alpha > 0")
    r_A = spectral_radius(model.A)
    if not radius_below_one(alpha * r_A):
        raise NotStableError(
            f"decay bound requires alpha < alpha_bar; r_sigma(alpha A) = "
            f"{alpha * r_A:.6g}",
            spectral_radius=alpha * r_A,
        )
    solution = _solve(model, alpha, Q)
    Lm = solution.L.entries
    vb = v_bar_bound(model, alpha, Lm).primary
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    return 2.0 * alpha ** (-k) * (float(x0 @ Lm @ x0) + float(vb @ np.abs(x0)))


def default_sweep_grid(model):
    """The default alpha grid: {0.5, 0.9, 0.99, 0.999, 1.0, min(1.05, (1+alpha_bar)/2)}."""
    alpha_bar = critical_alpha(model)
    return [0.5, 0.9, 0.99, 0.999, 1.0, min(1.05, (1.0 + alpha_bar) / 2.0)]


def vanishing_discount_sweep(model, Q=None, alphas=None):
    """Tabulate varpi(L_alpha) and the Abel gap across an alpha grid.

    For each alpha the row carries varpi(L_alpha), the discounted energy
    alpha/(1-alpha) varpi(L_alpha) when alpha < 1, the closed-form Abel
    gap (1-alpha)*[Abel sum] - varpi(L_1) = alpha varpi(L_alpha) -
    varpi(L_1), and the distance ||L_alpha - L_1||_inf.  Unsolvable
    entries are marked not_stable rather than aborting the sweep.

    Returns
    -------
    list of dict
        One row per alpha with keys alpha, status, varpi_L,
        h2_discounted, abel_gap, dist_to_L1, spectral_radius.
    """
    if alphas is None:
        alphas = default_sweep_grid(model)
    varpi_L1 = None
    L1 = None
    try:
        sol1 = _solve(model, 1.0, Q)
        L1 = sol1.L.entries
        varpi_L1 = op_varpi(model, L1)
    except NotStableError:
        pass

    rows = []
    for alpha in alphas:
        row = {
            "alpha": float(alpha),
            "status": "ok",
            "varpi_L": None,
            "h2_discounted": None,
            "abel_gap": None,
            "dist_to_L1": None,
            "spectral_radius": None,
        }
        try:
            solution = _solve(model, alpha, Q)
        except NotStableError as exc:
            row["status"] = "not_stable"
            row["spectral_radius"] = exc.spectral_radius
            rows.append(row)
            continue
        Lm = solution.L.entries
        row["spectral_radius"] = solution.spectral_radius
        row["varpi_L"] = op_varpi(model, Lm)
        if alpha < 1.0:
            row["h2_discounted"] = alpha / (1.0 - alpha) * row["varpi_L"]
        if varpi_L1 is not None:
            row["abel_gap"] = alpha * row["varpi_L"] - varpi_L1
            row["dist_to_L1"] = max_abs(Lm - L1)
        rows.append(row)
    return rows


def norm_report(model, alpha, Q=None):
    """Assemble every closed-form quantity available at one alpha.

    The counter-discount record (c0, c1) is included for alpha >= 1 when
    r_sigma(alpha A) < 1; the discounted energy and offset g0 for
    alpha < 1; the power norm only at alpha = 1.

    Parameters
    ----------
    model : CsviuModel
    alpha : float
    Q : SymMatrix or array_like, optional
    """
    solution = _solve(model, alpha, Q)
    Lm = solution.L.entries
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

    return NormReport(
        alpha=float(alpha),
        L=solution.L,
        varpi_L=varpi_L,
        h2_discounted=h2,
        power_norm=pw,
        v_bar=vb.primary,
        v_bar_conservative=vb.conservative,
        energy_offset_g0=h2,
        counter_bound=counter,
    )
