"""Linear operators on symmetric matrices for CSVIU analysis.

The second-moment dynamics of a CSVIU system are governed by four
operators built from the model matrices:

    Z(U)      = Diag(sigma_bar_x^T U sigma_bar_x)
    W(U)      = Diag(sigma_bar_x^T U sigma_x + sigma_x^T U sigma_bar_x)
    varpi(U)  = tr{U (sigma sigma^T + sigma_x sigma_x^T)}
    L_alpha(U) = alpha (A^T U A + Z(U))

Z and L_alpha are linear-positive (they map the PSD cone into itself);
W is not.  Z and L_alpha map one matrix (n, n) or each of a stack (k, n, n).  Matrix representations act on the symmetric-vectorization
(svec) of U, with off-diagonal entries weighted by sqrt(2) so the
representation preserves the Frobenius inner product and spectral radii
are basis-independent.

r_sigma(L_1) comes from a Collatz-Wielandt bracket, a power iteration on
n-by-n matrices (:func:`radius_bracket`), and the Lyapunov solve and
stability criteria (iii) and (v) from one Stein-SMW step (csviu.solver).
A caller that needs only the verdict r_sigma(L_alpha) <= 1 - margin, and
prints no radius, stops the bracket at its first read whose upper end
certifies it (:func:`unit_radius` with ``certifies``); the others close it.
The n(n+1)/2-square svec matrix M_1 of L_1 is built, and not kept, for
only the eigensolve the bracket falls back on, and the Stein sums of
criteria (iii) and (v) where sqrt(alpha) r_sigma(A) >= 1 (the model is
then not stable and the Stein series diverges), one dense solve on
M_1 - E Phi.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ConvergenceError, DimensionError, DomainError

__all__ = [
    "op_Z",
    "op_W",
    "op_W_d",
    "op_varpi",
    "op_L_alpha",
    "operator_matrix",
    "unit_radius",
    "spectral_radius",
    "svec",
    "smat",
    "sym_dim",
]

_SQRT2 = np.sqrt(2.0)

#: The Collatz-Wielandt bracket on r_sigma(L_1) closes at hi - lo <= RADIUS_RTOL * hi.
RADIUS_RTOL = 1e-12
#: Power steps after which an open bracket gives way to the dense eigensolve of M_1.
RADIUS_MAX_STEPS = 400
#: The bracket is read at U = I and then every BRACKET_EVERY power steps.
BRACKET_EVERY = 4
#: Reads over which the bracket's shrink rate is measured to foresee the cap.
STALL_WINDOW = 4
#: Upper bound on the arrays of the (dim, n, n) basis stack's size held at
#: once by operator_matrix and by the dense Stein solve on its M_1 after it:
#: tracemalloc measured 4.0 and 4.1-4.5 of them at n = 10-60.
BUILD_STACK_ARRAYS = 5


def sym_dim(n):
    """Dimension n(n+1)/2 of the space of symmetric n-by-n matrices."""
    return n * (n + 1) // 2


def svec(U):
    """Symmetric vectorization with sqrt(2)-weighted off-diagonal entries.

    Accepts one matrix (n, n) or a stack (..., n, n); entries follow the
    row-major lower triangle (0,0), (1,0), (1,1), (2,0), ...
    """
    U = np.asarray(U, dtype=float)
    rows, cols = np.tril_indices(U.shape[-1])
    out = U[..., rows, cols]
    out[..., rows != cols] *= _SQRT2
    return out


def smat(v, n):
    """Inverse of :func:`svec`: rebuild the symmetric matrix (or a stack of them)."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (sym_dim(n),):
        raise DimensionError(f"expected svec of length {sym_dim(n)}, got {v.shape}")
    rows, cols = np.tril_indices(n)
    U = np.zeros(v.shape[:-1] + (n, n))
    U[..., rows, cols] = U[..., cols, rows] = np.where(rows == cols, v, v / _SQRT2)
    return U


def _as_square(U, n, stack=False):
    arr = np.asarray(U, dtype=float)
    if arr.shape[-2:] != (n, n) or arr.ndim > 2 + stack:
        raise DimensionError(f"U must be {n}x{n}, got {arr.shape}")
    return arr


def op_Z(model, U):
    """Z(U) = Diag(sigma_bar_x^T U sigma_bar_x); PSD whenever U is PSD."""
    U = _as_square(U, model.n, stack=True)
    sbx = model.sigma_bar_x
    d = np.arange(model.n)
    diagonal = (sbx.T @ U @ sbx)[..., d, d]
    Z = np.zeros(U.shape)
    Z[..., d, d] = diagonal
    return Z


def op_W(model, U):
    """W(U) = Diag(sigma_bar_x^T U sigma_x + sigma_x^T U sigma_bar_x).

    Diagonal but possibly indefinite: W is the one operator of the
    family that is not positive.
    """
    U = _as_square(U, model.n)
    return np.diag(op_W_d(model, U))


def op_W_d(model, U):
    """The diagonal of W(U) as a length-n vector."""
    U = _as_square(U, model.n)
    sx, sbx = model.sigma_x, model.sigma_bar_x
    cross = sbx.T @ U @ sx
    return np.diag(cross + cross.T).copy()


def op_varpi(model, U):
    """varpi(U) = tr{U (sigma sigma^T + sigma_x sigma_x^T)}; >= 0 for PSD U."""
    U = _as_square(U, model.n)
    noise_cov = model.sigma @ model.sigma.T + model.sigma_x @ model.sigma_x.T
    return float(np.trace(U @ noise_cov))


def op_L_alpha(model, alpha, U):
    """L_alpha(U) = alpha (A^T U A + Z(U)), symmetrized as (X + X^T)/2.

    Linear-positive and monotone: U >= V (PSD order) implies
    L_alpha(U) >= L_alpha(V), for every alpha >= 0.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    U = _as_square(U, model.n, stack=True)
    A = model.A
    X = A.T @ U @ A + op_Z(model, U)
    X *= alpha
    return (X + X.swapaxes(-1, -2)) / 2.0


def operator_matrix(model, alpha, which):
    """Matrix representation of a model operator in the svec basis.

    The returned M satisfies ``M @ svec(U) == svec(op(U))`` for every
    symmetric U.  Column j of M is the svec of the image of basis matrix
    j under :func:`op_L_alpha` or :func:`op_Z`, which map the whole
    (dim, n, n) basis stack at once.

    Parameters
    ----------
    model : CsviuModel
    alpha : float
        Used only for ``which="L_alpha"``; Z is alpha-free.
    which : {"L_alpha", "Z"}

    Returns
    -------
    numpy.ndarray
        The read-only (dim, dim) matrix M, dim = n(n+1)/2.  Where
        BUILD_STACK_ARRAYS stacks would not fit in physical memory it
        raises ValueError instead, before it allocates.
    """
    if which not in ("L_alpha", "Z"):
        raise ValueError(f"unknown operator {which!r}")
    n = model.n
    need = 8 * BUILD_STACK_ARRAYS * sym_dim(n) * n * n
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > physical:
        raise ValueError(f"the svec matrix of {which} at n = {n} needs {need / 1e9:.3g} GB, "
                         f"more than the {physical / 1e9:.3g} GB of memory")
    basis = smat(np.eye(sym_dim(n)), n)  # the orthonormal basis, one matrix per svec entry
    images = op_L_alpha(model, alpha, basis) if which == "L_alpha" else op_Z(model, basis)
    M = np.ascontiguousarray(svec(images).T)
    M.setflags(write=False)
    return M


def radius_bracket(model, certifies=None):
    """A Collatz-Wielandt bracket (lo, hi) on r_sigma(L_1), or None if it does not close.

    L_1 maps the PSD cone into itself, so for every U > 0 with Cholesky
    factor U = C C^T the extreme eigenvalues of R = C^{-1} L_1(U) C^{-T}
    bound its spectral radius: lambda_min(R) <= r_sigma(L_1) <=
    lambda_max(R).  A power iteration U <- L_1(U) / tr L_1(U) from U = I
    tightens them; the bracket is read at U = I and then every
    BRACKET_EVERY steps, keeping the running max of the lower and min of
    the upper bounds.  It closes when hi - lo <= RADIUS_RTOL * hi.

    ``certifies``, a predicate on hi, ends the iteration at the first read
    whose hi satisfies it, closed or not: hi is a running minimum, so the
    closed bracket's hi would satisfy it too.  A verdict on one side of a
    line needs only that read (two reads on random n = 20 models, where
    closing takes 12 to 17).

    None means the power iteration cannot decide: U lost definiteness,
    L_1(U) has zero trace or is not finite, the bounds crossed, or the
    bracket will not close within RADIUS_MAX_STEPS (by its shrink over
    the last STALL_WINDOW reads).  That happens when the Perron
    eigenvector of L_1 is singular or defective (diagonal or nilpotent
    A, a Jordan block) or when subdominant eigenvalues lie close to it.
    """
    A, sbx = model.A, model.sigma_bar_x
    diag = np.diag_indices(model.n)
    lo, hi, widths = 0.0, np.inf, []
    U = np.eye(model.n)
    for step in range(RADIUS_MAX_STEPS + 1):
        X = A.T @ U @ A  # L_1(U); symmetrized only where the bracket reads it
        X[diag] += np.einsum("ij,ij->j", sbx, U @ sbx)
        if step % BRACKET_EVERY == 0:
            X = (X + X.T) / 2.0
            if not np.isfinite(X).all():
                return None
            try:
                C_inv = np.linalg.inv(np.linalg.cholesky(U))
                eigs = np.linalg.eigvalsh(C_inv @ X @ C_inv.T)
            except np.linalg.LinAlgError:
                return None
            lo, hi = max(lo, float(eigs[0])), min(hi, float(eigs[-1]))
            if abs(hi - lo) <= RADIUS_RTOL * hi or certifies is not None and certifies(hi):
                return lo, hi
            widths.append(hi - lo)
            if lo > hi or _misses_cap(widths, step, hi):
                return None
        trace = np.trace(X)
        if not 0.0 < trace < np.inf:
            return None
        U = X / trace
    return None


def _misses_cap(widths, step, hi):
    """Whether the shrink of the bracket widths over the last STALL_WINDOW reads,
    kept up, would leave it open at RADIUS_MAX_STEPS."""
    if len(widths) <= STALL_WINDOW:
        return False
    shrink = widths[-1] / widths[-1 - STALL_WINDOW]
    if shrink >= 1.0:
        return True
    reads_left = STALL_WINDOW * np.log(RADIUS_RTOL * hi / widths[-1]) / np.log(shrink)
    return step + BRACKET_EVERY * reads_left > RADIUS_MAX_STEPS


@np.errstate(over="ignore", invalid="ignore")  # an L_1 that overflows ends in the DomainError
def radius_from_bracket(model, certifies=None):
    """r_sigma(L_1): the upper end of :func:`radius_bracket`, or, when the
    bracket does not close, the dense eigensolve of M_1, the svec matrix
    of L_1, built here by :func:`operator_matrix` and dropped after.
    Given ``certifies``, the upper end of the bracket's first read that
    satisfies it, an upper bound on r_sigma(L_1), may come back instead.

    Raises DomainError where M_1 is not a finite double.
    """
    bracket = radius_bracket(model, certifies)
    if bracket is None:
        M1 = operator_matrix(model, 1.0, "L_alpha")
        if not np.isfinite(M1).all():
            raise DomainError("r_sigma(L_1) is not a finite double; scale down A or sigma_bar_x")
        return spectral_radius(M1)
    return bracket[1]


def unit_radius(model, certifies=None):
    """r_sigma(L_1), computed once per model and kept on the model object.

    L_alpha = alpha L_1 as operators, so r_sigma(L_alpha) = alpha *
    r_sigma(L_1) for every alpha.  See :func:`radius_from_bracket`.

    A caller that needs a verdict and prints no radius passes
    ``certifies``, a predicate on an upper bound of r_sigma(L_1).  A
    bound that satisfies it comes back from the bracket's first read
    that gives one and is not kept: it may be an open bracket's upper
    end.  Where no read satisfies it, the same iteration runs on, and
    r_sigma(L_1) is returned and kept as without ``certifies``; so the
    verdict is the one the kept radius gives, and no model pays for the
    bracket twice.  A radius already kept is returned as it is.
    """
    radius = vars(model).get("_unit_radius")
    if radius is None:
        radius = radius_from_bracket(model, certifies)
        if certifies is not None and certifies(radius):
            return radius
        object.__setattr__(model, "_unit_radius", radius)
    return radius


def spectral_radius(M):
    """Spectral radius max|eigenvalue| of a square matrix.

    Computed from a full eigendecomposition, O(dim^3).  For M_1, dim =
    n(n+1)/2, so r_sigma(L_1) comes from :func:`radius_bracket` and
    reaches this only as its fallback.
    """
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0
    try:
        eigs = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue computation failed: {exc}") from None
    return float(np.abs(eigs).max())
