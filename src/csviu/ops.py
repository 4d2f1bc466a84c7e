"""Linear operators on symmetric matrices for CSVIU analysis.

The second-moment dynamics of a CSVIU system are governed by four
operators built from the model matrices:

    Z(U)      = Diag(sigma_bar_x^T U sigma_bar_x)
    W(U)      = Diag(sigma_bar_x^T U sigma_x + sigma_x^T U sigma_bar_x)
    varpi(U)  = tr{U (sigma sigma^T + sigma_x sigma_x^T)}
    L_alpha(U) = alpha (A^T U A + Z(U))

Z and L_alpha are linear-positive (they map the PSD cone into itself);
W is not.  Matrix representations act on the symmetric-vectorization
(svec) of U, with off-diagonal entries weighted by sqrt(2) so the
representation preserves the Frobenius inner product and spectral radii
are basis-independent.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, DimensionError

__all__ = [
    "op_Z",
    "op_W",
    "op_W_d",
    "op_varpi",
    "op_L_alpha",
    "operator_matrix",
    "unit_operator",
    "spectral_radius",
    "svec",
    "smat",
    "sym_dim",
]

_SQRT2 = np.sqrt(2.0)


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


def _as_square(U, n, what="U"):
    arr = np.asarray(U, dtype=float)
    if arr.shape != (n, n):
        raise DimensionError(f"{what} must be {n}x{n}, got {arr.shape}")
    return arr


def op_Z(model, U):
    """Z(U) = Diag(sigma_bar_x^T U sigma_bar_x); PSD whenever U is PSD."""
    U = _as_square(U, model.n)
    sbx = model.sigma_bar_x
    return np.diag(np.diag(sbx.T @ U @ sbx))


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
    U = _as_square(U, model.n)
    A = model.A
    X = alpha * (A.T @ U @ A + op_Z(model, U))
    return (X + X.T) / 2.0


def operator_matrix(model, alpha, which):
    """Matrix representation of a model operator in the svec basis.

    The returned M satisfies ``M @ svec(U) == svec(op(U))`` for every
    symmetric U.  Column j of M is the svec of the image of basis matrix
    j; all dim images are computed at once on a (dim, n, n) stack, and
    L_alpha's are symmetrized as (X + X^T)/2, as :func:`op_L_alpha` does.

    Parameters
    ----------
    model : CsviuModel
    alpha : float
        Used only for ``which="L_alpha"``; Z is alpha-free.
    which : {"L_alpha", "Z"}

    Returns
    -------
    numpy.ndarray
        The read-only (dim, dim) matrix M, dim = n(n+1)/2.
    """
    if which not in ("L_alpha", "Z"):
        raise ValueError(f"unknown operator {which!r}")
    if which == "L_alpha" and alpha < 0:
        raise ValueError("alpha must be nonnegative")
    n = model.n
    A, sbx = model.A, model.sigma_bar_x
    basis = smat(np.eye(sym_dim(n)), n)  # the orthonormal basis, one matrix per svec entry
    d = np.arange(n)
    images = np.zeros_like(basis)
    images[:, d, d] = (sbx.T @ basis @ sbx)[:, d, d]
    if which == "L_alpha":
        X = alpha * (A.T @ basis @ A + images)
        images = (X + X.transpose(0, 2, 1)) / 2.0
    M = np.ascontiguousarray(svec(images).T)
    M.setflags(write=False)
    return M


def unit_operator(model):
    """(M_1, radius): L_1 in the svec basis and r_sigma(L_1), built once per model.

    L_alpha = alpha L_1 as operators, so every alpha shares this one
    matrix: L_alpha's matrix is alpha * M_1 and r_sigma(L_alpha)
    = alpha * r_sigma(L_1).  The pair is kept on the model object, whose
    arrays are read-only, so later calls with the same model reuse it.
    """
    unit = vars(model).get("_unit_operator")
    if unit is None:
        M1 = operator_matrix(model, 1.0, "L_alpha")
        unit = (M1, spectral_radius(M1))
        object.__setattr__(model, "_unit_operator", unit)
    return unit


def spectral_radius(M):
    """Spectral radius max|eigenvalue| of a square matrix.

    Computed from a full eigendecomposition.  At n = 20 (dim 210) this
    dense eigensolve dominates an analysis, so every L_alpha radius comes
    from the one L_1 eigensolve of :func:`unit_operator`.
    """
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0
    try:
        eigs = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue computation failed: {exc}") from None
    return float(np.abs(eigs).max())
