"""Perturbed Lyapunov equation solvers and finite-horizon recursions.

The central equation is (I - L_alpha)(U) = Q on symmetric matrices,
where L_alpha(U) = alpha (A^T U A + Z(U)).  It has a PSD solution for
PSD Q exactly when the spectral radius of L_alpha is below one, and the
solution is the limit of the fixed-point iteration
U <- L_alpha(U) + Q as well as of the geometric series
sum_k (L_alpha)^k (Q).

The direct solve works on n-by-n matrices only.  L_alpha splits into
the Stein operator U -> alpha A^T U A and the rank-n part alpha Z, so
with S_alpha(C) = sum_k alpha^k (A^T)^k C A^k, the solution of the Stein
equation U - alpha A^T U A = C, the Sherman-Morrison-Woodbury identity
(Benner & Damm, SIAM J. Control Optim. 2011) gives

    U = S_alpha(Q) + alpha sum_j d_j S_alpha(E_jj),
    (I - alpha K(alpha)) d = diag(sigma_bar_x^T S_alpha(Q) sigma_bar_x),
    K(alpha)_ij = (sigma_bar_x^T S_alpha(E_jj) sigma_bar_x)_ii.

Smith's squared iteration (Smith, SIAM J. Appl. Math. 1968) sums the
Stein series, numpy matmuls alone, and one SMW step at one alpha gives
K(alpha) and U for a stack of right-hand sides.  That core has two
callers: solve_lyapunov, once per alpha, and csviu.stability, which
reads criteria (iii) and (v) from the same step (K(alpha) is the matrix
whose radius (v) tests) and, for the CLI's analyze at a passing verdict,
the solution L as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, NotStableError, SingularOperatorError
from .model import as_weight
from .ops import op_L_alpha, op_varpi, spectral_radius, unit_radius

__all__ = [
    "LyapunovSolution",
    "RecursionTriple",
    "solve_lyapunov",
    "critical_alpha",
    "backward_recursion",
    "STRICT_RADIUS_MARGIN",
]

#: A spectral radius counts as "< 1" only when <= 1 - STRICT_RADIUS_MARGIN.
STRICT_RADIUS_MARGIN = 1e-9
#: Smith's iteration stops once ||P||_1^2 <= SMITH_TOL, P = (sqrt(alpha) A)^(2^k).
SMITH_TOL = 2.0**-60
#: Doublings (2^64 terms of the Stein series) after which the iteration gives up.
SMITH_MAX_DOUBLINGS = 64
#: The fixed-point solve stops at an update below the TOL; it fails after MAX_ITER iterations.
FIXED_POINT_TOL, FIXED_POINT_MAX_ITER = 1e-12, 100000
#: critical_alpha's value where both radii are zero and the supremum is infinite.
ALPHA_BAR_CAP = 1e6


def radius_below_one(radius):
    """Strict-inequality test with the package-wide tolerance."""
    return radius <= 1.0 - STRICT_RADIUS_MARGIN


def max_abs(M):
    """Entrywise max-absolute norm used for residuals and agreement checks."""
    return float(np.abs(M).max(initial=0.0))


@dataclass(frozen=True)
class LyapunovSolution:
    """Solution of (I - L_alpha)(U) = Q with solve diagnostics; L is read-only.

    ``radius_bound`` is a certified upper bound on r_sigma(L_alpha), at
    most 1 - STRICT_RADIUS_MARGIN: alpha times the upper end of the
    Collatz-Wielandt bracket at the read that gave the verdict, or
    r_sigma(L_alpha) itself where the model already held its radius.
    """

    L: np.ndarray
    alpha: float
    method: str
    residual: float
    iterations: int
    radius_bound: float


@dataclass(frozen=True)
class RecursionTriple:
    """Backward sequences P_k and g_k on the horizon 0..kappa.

    P_seq[k] solves P_k = L_alpha(P_{k+1}) + Q down from P_kappa = 0.
    g_seq[k] is the zero-input constant term, g_k = alpha (g_{k+1} +
    varpi(P_{k+1})) down from g_kappa = 0.  The sign-dependent linear
    term v_k is trajectory-valued and is evaluated pathwise in csviu.sim.
    """

    P_seq: list
    g_seq: np.ndarray
    kappa: int
    alpha: float


def _require_finite(alpha, *values):
    """DomainError unless every value that is not None is finite."""
    if not all(np.isfinite(v).all() for v in values if v is not None):
        raise DomainError(f"the Lyapunov solution or a closed form at alpha = {alpha:.6g} is "
                          "not a finite double; scale down --Q or lower --alpha")


def _smith_sums(model, alpha, stack):
    """The Stein sums S_alpha of a stack by Smith's squared iteration.

    X <- X + P^T X P, then P <- P^2, from X = the stack and P = sqrt(alpha) A
    (alpha^(2^k) kept apart from A^(2^k) overflows while A^(2^k) underflows).
    It needs sqrt(alpha) r_sigma(A) < 1, which callers make sure of, and
    raises ConvergenceError after SMITH_MAX_DOUBLINGS doublings.
    """
    X, P = stack, np.sqrt(alpha) * model.A
    doublings = 0
    while not np.abs(P).sum(axis=0).max() ** 2 <= SMITH_TOL:  # a NaN P goes on to the cap
        if doublings == SMITH_MAX_DOUBLINGS:
            raise ConvergenceError(
                f"the Stein series at alpha = {alpha:.6g} did not converge in "
                f"{SMITH_MAX_DOUBLINGS} doublings"
            )
        X = X + P.T @ X @ P
        P = P @ P
        doublings += 1
    return X


@np.errstate(over="ignore", invalid="ignore")  # overflow ends in the callers' finiteness checks
def _smw_solve(model, alpha, C, stein_sums=_smith_sums):
    """Solve (I - L_alpha)(U) = C_i at one alpha for a stack of right-hand sides.

    The core of the direct solve (see the module docstring).
    ``stein_sums(model, alpha, stack)`` sums the Stein series over the
    stack [C_1, ..., C_m, E_11, ..., E_nn] at once, or gives None where
    I - alpha A_conj is singular; one SMW step then gives K(alpha) and U.
    Each C_i is divided by its largest absolute entry first and the
    result scaled back, so a right-hand side near the largest double does
    not overflow on the way.  In the stable case every term is PSD and
    d >= 0, so nothing cancels.

    Parameters
    ----------
    model : CsviuModel
    alpha : float
    C : ndarray
        Stack (m, n, n) of symmetric right-hand sides.
    stein_sums : callable
        :func:`_smith_sums` or csviu.stability's dense solve.

    Returns
    -------
    (ndarray or None, ndarray or None)
        The symmetric solutions (m, n, n), or None when I - alpha K(alpha)
        or I - alpha A_conj is singular, and K(alpha), or None when
        I - alpha A_conj is singular.
    """
    n, m, sbx = model.n, len(C), model.sigma_bar_x
    scale = np.abs(C).max(axis=(1, 2), initial=0.0)
    scale[scale == 0.0] = 1.0
    eye = np.eye(n)
    X = stein_sums(model, alpha, np.concatenate([C / scale[:, None, None],
                                                 eye[:, :, None] * eye[:, None, :]]))
    if X is None:
        return None, None
    S_C, S_E = X[:m], X[m:]
    # K_ij = (sbx^T S_E[j] sbx)_ii and b_ri = (sbx^T S_C[r] sbx)_ii
    K = np.einsum("ki,jki->ij", sbx, S_E @ sbx)
    b = np.einsum("ki,rki->ir", sbx, S_C @ sbx)
    try:
        d = np.linalg.solve(eye - alpha * K, b)
    except np.linalg.LinAlgError:
        return None, K
    U = S_C + alpha * np.tensordot(d.T, S_E, axes=1)
    return (U + U.transpose(0, 2, 1)) * (scale[:, None, None] / 2.0), K


@np.errstate(over="ignore", invalid="ignore")  # overflow ends in _require_finite instead
def _checked_solution(model, alpha, Qm, U, method, iterations, radius_bound):
    """The LyapunovSolution for U, once U and its residual are finite and small."""
    residual = max_abs(U - op_L_alpha(model, alpha, U) - Qm)
    _require_finite(alpha, U, residual)
    if residual > 1e-9 * max(1.0, max_abs(Qm)):
        raise ConvergenceError(
            f"solution residual {residual:.3g} exceeds tolerance "
            f"(r_sigma <= {radius_bound:.6g})"
        )
    U.setflags(write=False)
    return LyapunovSolution(
        L=U,
        alpha=float(alpha),
        method=method,
        residual=residual,
        iterations=iterations,
        radius_bound=radius_bound,
    )


@np.errstate(over="ignore", invalid="ignore")  # overflow ends in _require_finite instead
def solve_lyapunov(model, alpha, Q, method="direct"):
    """Solve the perturbed Lyapunov equation (I - L_alpha)(U) = Q.

    The verdict needs only an upper bound on r_sigma(L_alpha) at most
    1 - STRICT_RADIUS_MARGIN, so the bracket of
    :func:`csviu.ops.unit_radius` stops at its first read that gives one
    and keeps nothing on the model.  Where no read does, it runs on to
    closure and keeps r_sigma(L_1), and NotStableError carries the full
    radius, as it would on a model that already held it.

    Parameters
    ----------
    model : CsviuModel
    alpha : float
        Nonnegative discount/counter-discount parameter.
    Q : array_like
        PSD right-hand side.
    method : {"direct", "fixed_point"}
        ``direct`` is the Stein-SMW solve on n-by-n matrices (see the
        module docstring), run once the radius test has passed;
        ``fixed_point`` iterates U <- L_alpha(U) + Q from U = Q until
        the update falls below FIXED_POINT_TOL; it is the reference the
        direct solve is tested against.

    Returns
    -------
    LyapunovSolution

    Raises
    ------
    NotStableError
        If the spectral radius of L_alpha is not strictly below one
        (no PSD solution exists); carries the computed radius.
    ConvergenceError
        If the fixed point takes FIXED_POINT_MAX_ITER iterations, or
        the solution's residual exceeds 1e-9 max(1, max|Q|).
    DomainError
        If the solution or its residual is not a finite double.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    Qm = as_weight(Q, model.n)
    radius = alpha * unit_radius(model, lambda hi: radius_below_one(alpha * hi))
    if not radius_below_one(radius):
        raise NotStableError(
            f"(I - L_alpha) has no PSD solution: r_sigma(L_alpha) = {radius:.6g} >= 1",
            spectral_radius=radius,
        )

    if method == "direct":
        U, _ = _smw_solve(model, alpha, Qm[None])
        if U is None:
            raise SingularOperatorError(f"(I - L_alpha) is singular at alpha = {alpha:.6g}")
        U, iterations = U[0], 0
    elif method == "fixed_point":
        U, iterations = Qm, None
        for it in range(1, FIXED_POINT_MAX_ITER + 1):
            U, U_prev = op_L_alpha(model, alpha, U) + Qm, U
            if not max_abs(U - U_prev) > FIXED_POINT_TOL:  # a NaN step also ends the loop
                iterations = it
                break
        if iterations is None:
            raise ConvergenceError(
                f"fixed point did not converge in {FIXED_POINT_MAX_ITER} iterations "
                f"(r_sigma <= {radius:.6g})"
            )
    else:
        raise ValueError(f"unknown method {method!r}")
    return _checked_solution(model, alpha, Qm, U, method, iterations, radius)


def critical_alpha(model):
    """The supremum of alpha for which the analysis is well posed.

    Returns sup{alpha : r_sigma(L_alpha) < 1 and r_sigma(A) < 1/alpha}
    in closed form.  L_alpha = alpha * L_1 as operators, so both radii
    are alpha times an alpha-free radius, and under the package's strict
    test the supremum is (1 - STRICT_RADIUS_MARGIN) / max(r_sigma(L_1),
    r_sigma(A)).  r_sigma(L_1) is :func:`csviu.ops.unit_radius`, which
    builds the svec matrix M_1 only when its bracket cannot close.  The
    printed alpha_bar needs the radius itself, so the bracket runs to
    closure here, unlike solve_lyapunov's verdict-only read.  The
    result is at most ALPHA_BAR_CAP, which stands in for an infinite
    supremum when both radii are zero.

    alpha_bar is the supremum under the strict test, not an alpha known
    to solve: where r_sigma(L_1) binds, a solve exactly at alpha_bar
    passes the verdict but is conditioned like 1 / STRICT_RADIUS_MARGIN,
    and may raise ConvergenceError on the residual check (``norm
    tests/golden/models/n10.json --alpha 1.2499236661357207`` exits 3).
    """
    r = max(unit_radius(model), spectral_radius(model.A))
    return ALPHA_BAR_CAP if r == 0.0 else min(ALPHA_BAR_CAP, (1.0 - STRICT_RADIUS_MARGIN) / r)


def backward_recursion(model, alpha, Q, kappa):
    """Run the backward matrix/constant recursions over a finite horizon.

    P_kappa = 0; P_k = L_alpha(P_{k+1}) + Q.
    g_kappa = 0; g_k = alpha (g_{k+1} + varpi(P_{k+1}))  (zero-input
    form; input-dependent terms are handled pathwise in csviu.sim).

    Parameters
    ----------
    model : CsviuModel
    alpha : float
    Q : array_like
    kappa : int
        Horizon, >= 1.

    Returns
    -------
    RecursionTriple
    """
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    n = model.n
    Qm = as_weight(Q, n)
    P = [None] * (kappa + 1)
    g = np.zeros(kappa + 1)
    P[kappa] = np.zeros((n, n))
    for k in range(kappa - 1, -1, -1):
        P[k] = op_L_alpha(model, alpha, P[k + 1]) + Qm
        g[k] = alpha * (g[k + 1] + op_varpi(model, P[k + 1]))
    return RecursionTriple(
        P_seq=P,
        g_seq=g,
        kappa=int(kappa),
        alpha=float(alpha),
    )
