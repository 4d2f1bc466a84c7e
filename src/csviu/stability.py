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
the svec matrix M_1 - E Phi of A_conj gives the sums instead.  Where
the verdict passes, the CLI's analyze puts its weight Q into the same
step, so one pass over [I, Q, E_11, ..., E_nn] gives (iii), (v) and the
Lyapunov solution L.

For alpha >= 1 the verdict additionally requires all eigenvalues of
alpha*A inside the open unit disk.  Any disagreement among the criteria
beyond tolerance is an implementation bug and raises
InternalInconsistencyError rather than returning a silently wrong
report.

Detectability asks for a gain G with alpha r_sigma(L^G) < 1, where
L^G(U) = (A + G C)^T U (A + G C) + Z(U).  search_detectability decides it
by one nonlinear power iteration on the dual map R(V) = min_G alpha L^G*(V),
which is monotone, concave and homogeneous on the PSD cone (Lemmens &
Nussbaum, Nonlinear Perron-Frobenius Theory, 2012; Costa, Fragoso & Marques,
Discrete-Time MJLS, 2005): each iterate gives a gain and a bound over all gains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import DimensionError, DomainError, InternalInconsistencyError, SingularOperatorError
from .ops import radius_from_bracket, smat, spectral_radius, svec, unit_radius
from .solver import (
    STRICT_RADIUS_MARGIN, _checked_solution, _smith_sums, _smw_solve, radius_below_one,
)

__all__ = [
    "StabilityReport",
    "DetectabilityResult",
    "check_stability",
    "check_detectability_with_G",
    "search_detectability",
]

#: |radius - 1| below this marks the instance as marginal.
MARGINAL_TOL = 1e-6
#: Steps after which the detectability power iteration stops, undecided.
DETECT_STEPS = 100


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
    None.  ``closed_loop_radius`` is alpha r_sigma(L^G) at the witness, or
    the least one over the gains an unsuccessful search tried (G = 0, -A C^+
    and any later G(V), see search_detectability); it bounds no other gain.
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
    A_conj = ops.operator_matrix(model, 1.0, "L_alpha") - rhs[:, -model.n:] @ Phi
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
    return _analysis(model, alpha)[0]


def _analysis(model, alpha, Qm=None):
    """The StabilityReport at alpha and, given a weight Qm, the LyapunovSolution
    of (I - L_alpha)(U) = Qm, both from one Stein-SMW step over [I, Qm, E_11..E_nn].

    Qm joins the step only where the verdict passes; elsewhere the solution
    is None.  A passing verdict with I - alpha K(alpha) singular raises
    SingularOperatorError.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    r_L = alpha * unit_radius(model)
    r_A = spectral_radius(model.A)

    crit_ii = radius_below_one(r_L)
    r_sqrt_alpha_A = np.sqrt(alpha) * r_A
    crit_v_part1 = radius_below_one(r_sqrt_alpha_A)
    r_alpha_A = alpha * r_A
    eig_clause = radius_below_one(r_alpha_A)
    passing = crit_ii and (alpha < 1.0 or eig_clause)
    # Past sqrt(alpha) r_sigma(A) < 1 the Stein series diverges: sum it by the dense solve.
    stein_sums = _smith_sums if crit_v_part1 else _dense_stein_sums
    solve_Q = Qm is not None and passing
    stack = np.stack([np.eye(model.n), Qm]) if solve_Q else np.eye(model.n)[None]
    U, K = _smw_solve(model, alpha, stack, stein_sums)
    crit_iii = U is not None and float(np.linalg.eigvalsh(U[0])[0]) > 0.0
    resolvent_gain = None if K is None else spectral_radius(K)
    # r < 1/alpha, i.e. alpha * r strictly below one; alpha = 0 is trivially true.
    crit_v_part2 = None if resolvent_gain is None else radius_below_one(alpha * resolvent_gain)

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

    if not passing:
        verdict = "not_stable"
    elif alpha == 1.0:
        verdict = "stable"
    else:
        verdict = "alpha_stable"
    report = StabilityReport(
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
    if not solve_Q:
        return report, None
    if U is None:
        raise SingularOperatorError(f"(I - L_alpha) is singular at alpha = {alpha:.6g}")
    return report, _checked_solution(model, alpha, Qm, U[1], "direct", 0, r_L)


def _closed_loop_radius(model, alpha, G):
    """r_sigma(L_alpha) at the closed loop A + G C."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    # G = 0 leaves L_alpha itself, whose L_1 radius the model already holds.
    if not np.any(G):
        return alpha * unit_radius(model)
    with np.errstate(over="ignore", invalid="ignore"):
        closed = model.with_dynamics(model.A + G @ model.C)
    try:
        return alpha * radius_from_bracket(closed)
    except DomainError:
        unit_radius(model)  # a model whose own r_sigma(L_1) overflows is named as such
        raise DomainError("r_sigma at the closed loop A + G C is not a finite double; "
                          "scale down the gain G (--G)") from None


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

    Raises DomainError naming the gain where the closed loop's r_sigma is
    not a finite double.
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


def search_detectability(model, alpha):
    """Decide detectability: a DetectabilityResult with a witness gain, or none.

    G = 0 is tried first, then the iterates from V = I of a damped power step,
    V <- (4 R(V) / tr R(V) + V) / 5 (undamped, it can circle a 2-cycle), on
    R(V) = alpha [min_G (A + G C) V (A + G C)^T + sigma_bar_x Diag(V) sigma_bar_x^T].
    The minimum is L^G*(V) at G(V) = -A F (C F)^+, V = F F^T on range(V); F = I
    first, so G(I) = -A C^+.  Every G has L^G*(V) >= R(V), and each iterate
    reads the pencil P = F^+ R(V) F^+^T on range(V):

    * witness: where V > 0, alpha r_sigma(L^G(V)) <= lambda_max(P).  G(V) is
      tried, by its closed-loop radius alone, where that is below one and at
      V = I;
    * certificate: R(V) >= t V, t = lambda_min(P), gives alpha r_sigma(L^G) >= t
      for every G.  Where t >= 1 + STRICT_RADIUS_MARGIN, the witness margin
      mirrored, R(V) >= (1 + STRICT_RADIUS_MARGIN) V is checked in full: that
      covers an unobservable mode off range(V), and leaves the slack
      (t - 1 - margin) V on range(V) for the rounding of t.

    Rounding: eigvalsh is backward stable, its eigenvalues of a symmetric M
    exact for some M + E, ||E||_2 of order n eps ||M||_2, so the full check
    passes down to -n eps (alpha tr R(V) + 1) (tr V = 1).  (C F)^+ scales
    pinv's cutoff 1e-15 sigma_max(C F) by ||C||_F / ||C F||_F: pinv's own at
    F = I, it later drops what C F cannot tell from zero.  Where V nears the
    PSD cone's boundary, the directions it leaves keep t low: after
    DETECT_STEPS iterates the certificate is tried at each V' = F' F'^T,
    F' V's factor on its m largest eigenvalues, as it is and projected onto
    null(C) (where R(V') = L^G*(V') for every G), by the same full check.
    Near the boundary both may stay open: detectable=False, undecided.  A
    negative alpha raises ValueError.
    """
    return _detect(model, alpha)[0]


def _detect(model, alpha):
    """search_detectability's result, and the pencil's t where it certified, else None."""
    zero = np.zeros((model.n, model.p))
    radius = _closed_loop_radius(model, alpha, zero)
    if radius_below_one(radius):
        return DetectabilityResult(True, zero, radius), None
    A, C, sbx = model.A, model.C, model.sigma_bar_x
    eps_n, cut = model.n * np.finfo(float).eps, 1e-15 * np.linalg.norm(C)
    edge = 1.0 + STRICT_RADIUS_MARGIN

    def read(V, F, F_pinv):  # G(V), R(V) / alpha and the pencil's alpha-scaled (lo, hi)
        AF, CF = (A, C) if F is None else (A @ F, C @ F)
        G = -AF @ np.linalg.pinv(CF, rcond=cut / (max(np.linalg.norm(CF), cut) or 1.0))
        W = np.hstack([AF + G @ CF, sbx * np.sqrt(np.diag(V))])
        R = W @ W.T
        pencil = R if F_pinv is None else F_pinv @ R @ F_pinv.T
        return (G, R, *alpha * np.linalg.eigvalsh(pencil)[[0, -1]])

    def certifies(V, R, lo):
        return lo >= edge and np.linalg.eigvalsh(alpha * R - edge * V)[0] >= -eps_n * (
            alpha * np.trace(R) + 1.0)

    def factor(V):  # V = F F^T on range(V), F's columns by ascending eigenvalue, and F^+
        w, Q = np.linalg.eigh(V)
        keep = w > eps_n * w[-1]  # range(V)
        return Q[:, keep] * np.sqrt(w[keep]), (Q[:, keep] / np.sqrt(w[keep])).T

    V, F, F_pinv = np.eye(model.n), None, None
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(DETECT_STEPS):
            G, R, lo, hi = read(V, F, F_pinv)
            trace = np.trace(R)
            if step == 0 or radius_below_one(hi):
                closed_radius = _closed_loop_radius(model, alpha, G)
                if radius_below_one(closed_radius):
                    return DetectabilityResult(True, G, closed_radius), None
                radius = min(radius, closed_radius)
            if certifies(V, R, lo):
                return DetectabilityResult(False, None, float(radius)), float(lo)
            if not 0.0 < trace < np.inf:
                break
            V = (4.0 * R / trace + V) / 5.0
            F, F_pinv = factor(V)
        else:
            # The read stalled on the directions V leaves: read V's dominant
            # eigenspaces, as they are and projected onto null(C), where no gain acts.
            P = np.eye(model.n) - np.linalg.pinv(C) @ C
            for m in range(F.shape[1]):
                for Fm in (F[:, m:], P @ F[:, m:]):
                    Vm = Fm @ Fm.T
                    if np.any(Vm):
                        _, R, lo, _ = read(Vm, *factor(Vm))
                        if certifies(Vm, R, lo):
                            return DetectabilityResult(False, None, float(radius)), float(lo)
    return DetectabilityResult(False, None, float(radius)), None
