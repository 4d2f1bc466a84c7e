"""Stochastic-stability verdicts and output-injection detectability.

Three computable criteria decide alpha-stochastic stability, and they
are provably equivalent:

  (ii)  r_sigma(L_alpha) < 1                        (d-stability)
  (iii) there is U > 0 with (I - L_alpha)(U) > 0    (Lyapunov witness)
  (v)   r_sigma(sqrt(alpha) A) < 1  and
        r_sigma((I - alpha A_conj)^{-1} Z) < 1/alpha

where A_conj(U) = A^T U A.  L_alpha = alpha L_1, so (ii) reads the one
radius r_sigma(L_1) of ops.unit_radius, a Collatz-Wielandt bracket on
n-by-n matrices.  (iii) and (v) part 2 come from one Stein-SMW step of
csviu.solver: (iii) is its solve with right-hand side I, and (v) part 2
reads r_sigma(K(alpha)), K_ij = (sigma_bar_x^T S_alpha(E_jj)
sigma_bar_x)_ii, which is Phi (I - alpha A_conj)^{-1} E for Z's rank-n
factor Z = E Phi (E's columns svec(E_ii), Phi's rows svec(s_i s_i^T)
for the columns s_i of sigma_bar_x).  Where (v) part 1 holds, Smith's
iteration sums the Stein series (I - alpha A_conj)^{-1}; where it fails,
the series diverges, the model is not stable, and one dense solve with
the svec matrix M_1 - E Phi of A_conj gives the sums instead.

For alpha >= 1 the verdict additionally requires all eigenvalues of
alpha*A inside the open unit disk.  Any disagreement among the criteria
beyond tolerance is an implementation bug and raises
InternalInconsistencyError rather than returning a silently wrong
report.

Detectability asks for a gain G with alpha r_sigma(L^G) < 1, where
L^G(U) = (A + G C)^T U (A + G C) + Z(U).  Both terms are positive and Z
does not depend on G, so alpha r_sigma(Z) = alpha r(sigma_bar_x o
sigma_bar_x) bounds alpha r_sigma(L^G) below for every G.  The search needs numpy
alone: its last gain comes from the dual Riccati value iteration (Costa,
Fragoso & Marques, Discrete-Time MJLS, 2005, ch. 3-5; Damm, LNCIS 297).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InternalInconsistencyError
from .ops import radius_from_bracket, smat, spectral_radius, svec, unit_matrix, unit_radius
from .solver import _smith_sums, _smw_solve, radius_below_one

__all__ = [
    "StabilityReport",
    "DetectabilityResult",
    "check_stability",
    "check_detectability_with_G",
    "search_detectability",
]

#: |radius - 1| below this marks the instance as marginal.
MARGINAL_TOL = 1e-6
#: The Riccati gain iteration stops at a relative step below RTOL, or where V passes HUGE.
RICCATI_RTOL, RICCATI_HUGE = 1e-12, 1e12


@dataclass(frozen=True)
class StabilityReport:
    """Per-criterion verdicts for one (model, alpha) pair.

    ``crit_v_part2`` is None when (I - alpha A_conj) is singular and the
    criterion is indeterminate.  ``marginal`` flags radii within 1e-6 of
    the stability boundary, where strict-inequality verdicts are not
    trustworthy.
    """

    alpha: float
    crit_ii: bool
    crit_iii: bool
    crit_v_part1: bool
    crit_v_part2: bool | None
    eig_clause: bool
    verdict: str
    spectral_radii: dict
    marginal: bool


@dataclass(frozen=True)
class DetectabilityResult:
    """Outcome of a detectability check or search.

    ``G`` is the witness gain when one was found (detectable=True), else
    None.  ``closed_loop_radius`` is the spectral radius of the
    closed-loop operator at the witness, or the best radius encountered
    during an unsuccessful search.
    """

    detectable: bool
    G: np.ndarray | None
    closed_loop_radius: float


def _dense_stein_sums(model, alpha, stack):
    """The Stein sums S_alpha of a stack from one solve on the svec matrix
    of alpha A_conj = alpha (M_1 - E Phi), or None where I - alpha A_conj is
    singular.  The stack ends in E_11, ..., E_nn, whose svecs are E's columns.
    """
    rhs, sbx_cols = svec(stack).T, model.sigma_bar_x.T
    Phi = svec(sbx_cols[:, :, None] * sbx_cols[:, None, :])
    A_conj = unit_matrix(model) - rhs[:, -model.n:] @ Phi
    try:
        X = np.linalg.solve(np.eye(len(rhs)) - alpha * A_conj, rhs)
    except np.linalg.LinAlgError:
        return None
    return smat(X.T, model.n)


def check_stability(model, alpha):
    """Evaluate the stability criteria and produce the verdict.

    Parameters
    ----------
    model : CsviuModel
    alpha : float
        Nonnegative parameter.

    Returns
    -------
    StabilityReport
        verdict is ``alpha_stable`` when the criteria hold and (alpha < 1
        or the alpha*A eigenvalue clause holds); at alpha = 1 a passing
        model is labeled ``stable``; otherwise ``not_stable``.

    Raises
    ------
    InternalInconsistencyError
        If the equivalent criteria disagree away from the marginal zone.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    r_L = alpha * unit_radius(model)
    r_A = spectral_radius(model.A)

    crit_ii = radius_below_one(r_L)
    r_sqrt_alpha_A = np.sqrt(alpha) * r_A
    crit_v_part1 = radius_below_one(r_sqrt_alpha_A)
    # Past sqrt(alpha) r_sigma(A) < 1 the Stein series diverges: sum it by the dense solve.
    stein_sums = _smith_sums if crit_v_part1 else _dense_stein_sums
    [(U, K)] = _smw_solve(model, [alpha], np.eye(model.n)[None], stein_sums)
    crit_iii = U is not None and float(np.linalg.eigvalsh(U[0])[0]) > 0.0
    resolvent_gain = None if K is None else spectral_radius(K)
    # r < 1/alpha, i.e. alpha * r strictly below one; alpha = 0 is trivially true.
    crit_v_part2 = None if resolvent_gain is None else radius_below_one(alpha * resolvent_gain)

    r_alpha_A = alpha * r_A
    eig_clause = radius_below_one(r_alpha_A)

    radii = {
        "L_alpha": r_L,
        "A": r_A,
        "sqrt_alpha_A": r_sqrt_alpha_A,
        "alpha_A": r_alpha_A,
        "resolvent_Z": resolvent_gain,
    }
    boundary_distances = [abs(r_L - 1.0), abs(r_sqrt_alpha_A - 1.0)]
    if alpha >= 1:
        boundary_distances.append(abs(r_alpha_A - 1.0))
    if resolvent_gain is not None:
        boundary_distances.append(abs(alpha * resolvent_gain - 1.0))
    marginal = min(boundary_distances) < MARGINAL_TOL

    crit_v = None if crit_v_part2 is None else (crit_v_part1 and crit_v_part2)
    if not marginal:
        agree = crit_ii == crit_iii and (crit_v is None or crit_v == crit_ii)
        if not agree:
            raise InternalInconsistencyError(
                f"equivalent criteria disagree: (ii)={crit_ii} (iii)={crit_iii} "
                f"(v)={crit_v} at alpha={alpha} with radii {radii}"
            )

    passing = crit_ii and (alpha < 1.0 or eig_clause)
    if not passing:
        verdict = "not_stable"
    elif alpha == 1.0:
        verdict = "stable"
    else:
        verdict = "alpha_stable"
    return StabilityReport(
        alpha=float(alpha),
        crit_ii=crit_ii,
        crit_iii=crit_iii,
        crit_v_part1=crit_v_part1,
        crit_v_part2=crit_v_part2,
        eig_clause=eig_clause,
        verdict=verdict,
        spectral_radii=radii,
        marginal=marginal,
    )


def _closed_loop_radius(model, alpha, G, floor=np.inf):
    """r_sigma(L_alpha) at the closed loop A + G C, or a lower bound once that reaches floor."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    # G = 0 leaves L_alpha itself, whose L_1 radius the model already holds.
    if not np.any(G):
        return alpha * unit_radius(model)
    closed = model.with_dynamics(model.A + G @ model.C)
    return alpha * radius_from_bracket(closed, floor / alpha if alpha > 0 else np.inf)


def check_detectability_with_G(model, alpha, G):
    """Test whether the gain G certifies (C, L_alpha)-detectability.

    Builds the closed-loop operator
    U -> alpha ((A + G C)^T U (A + G C) + Z(U)) and tests that its
    spectral radius is strictly below one.

    Parameters
    ----------
    model : CsviuModel
    alpha : float
    G : array_like
        n-by-p output-injection gain.

    Returns
    -------
    DetectabilityResult
    """
    G = np.asarray(G, dtype=float)
    if G.shape != (model.n, model.p):
        raise DimensionError(f"G must be {model.n}x{model.p}, got {G.shape}")
    radius = _closed_loop_radius(model, alpha, G)
    return DetectabilityResult(
        detectable=radius_below_one(radius),
        G=G,
        closed_loop_radius=radius,
    )


def _riccati_gain(model, alpha, steps):
    """G = -A V C^T (C V C^T + I)^{-1} after at most ``steps`` steps, from V = I, of
    V <- I + alpha ((A + G C) V (A + G C)^T + G G^T + Z*(V)), Z*(V) = sigma_bar_x Diag(V)
    sigma_bar_x^T.  V stays bounded exactly when some gain stabilises; G comes from a finite V.
    """
    A, C, sbx = model.A, model.C, model.sigma_bar_x
    I_n, I_p = np.eye(model.n), np.eye(model.p)
    V = I_n
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            VCt = V @ C.T
            G = -A @ np.linalg.solve(C @ VCt + I_p, VCt.T).T
            F = A + G @ C
            V_next = I_n + alpha * (F @ V @ F.T + G @ G.T + (sbx * np.diag(V)) @ sbx.T)
            size = np.abs(V_next).max()
            if not size < RICCATI_HUGE or np.abs(V_next - V).max() <= RICCATI_RTOL * size:
                break
            V = V_next
    return G


def search_detectability(model, alpha, budget=100):
    """Deterministic search for a detectability witness.

    Tries, in order: (a) G = 0; (b) G = -A C^+; (c) the exact bound: where
    alpha r(sigma_bar_x o sigma_bar_x) >= 1 - STRICT_RADIUS_MARGIN no gain
    passes, and the search stops; (d) the dual Riccati gain.  Each gain is
    judged by its closed-loop radius alone.

    ``detectable=False`` certifies undetectability when the bound (c)
    holds; otherwise it is undecided.

    Parameters
    ----------
    model : CsviuModel
    alpha : float
    budget : int
        Cap on the steps of the Riccati gain iteration in phase (d).

    Returns
    -------
    DetectabilityResult
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    best_radius = np.inf

    def attempt(G):
        nonlocal best_radius
        # A radius at or above the best so far, which failed, is neither a
        # witness nor a new best, so the bracket may stop once it gets there.
        radius = _closed_loop_radius(model, alpha, G, best_radius)
        best_radius = min(best_radius, radius)
        if radius_below_one(radius):
            return DetectabilityResult(True, np.asarray(G, dtype=float), radius)
        return None

    found = attempt(np.zeros((model.n, model.p))) or attempt(-model.A @ np.linalg.pinv(model.C))
    sbx = model.sigma_bar_x
    if not found and radius_below_one(alpha * spectral_radius(sbx * sbx)):
        found = attempt(_riccati_gain(model, alpha, budget))
    return found or DetectabilityResult(False, None, float(best_radius))
