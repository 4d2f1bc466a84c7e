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

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError
from .model import SymMatrix

__all__ = [
    "OperatorRep",
    "op_Z",
    "op_W",
    "op_W_d",
    "op_varpi",
    "op_L_alpha",
    "operator_matrix",
    "spectral_radius",
    "svec",
    "smat",
    "sym_dim",
]

_SQRT2 = np.sqrt(2.0)


def sym_dim(n):
    """Dimension n(n+1)/2 of the space of symmetric n-by-n matrices."""
    return n * (n + 1) // 2


def _tril_indices(n):
    # Row-major lower triangle: (0,0), (1,0), (1,1), (2,0), ...
    return [(i, j) for i in range(n) for j in range(i + 1)]


def svec(U):
    """Symmetric vectorization with sqrt(2)-weighted off-diagonal entries."""
    U = np.asarray(U, dtype=float)
    n = U.shape[0]
    out = np.empty(sym_dim(n))
    for idx, (i, j) in enumerate(_tril_indices(n)):
        out[idx] = U[i, i] if i == j else _SQRT2 * U[i, j]
    return out


def smat(v, n):
    """Inverse of :func:`svec`: rebuild the symmetric matrix."""
    v = np.asarray(v, dtype=float)
    if v.shape != (sym_dim(n),):
        raise DimensionError(f"expected svec of length {sym_dim(n)}, got {v.shape}")
    U = np.zeros((n, n))
    for idx, (i, j) in enumerate(_tril_indices(n)):
        if i == j:
            U[i, i] = v[idx]
        else:
            U[i, j] = U[j, i] = v[idx] / _SQRT2
    return U


@dataclass(frozen=True)
class OperatorRep:
    """Matrix representation of a linear operator on symmetric matrices.

    ``M @ svec(U)`` equals ``svec(op(U))`` for every symmetric U.
    """

    n: int
    dim: int
    M: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.M, dtype=float)
        if self.dim != sym_dim(self.n):
            raise DimensionError(f"dim must be n(n+1)/2 = {sym_dim(self.n)}")
        if M.shape != (self.dim, self.dim):
            raise DimensionError(f"M must be {self.dim}x{self.dim}, got {M.shape}")
        M.setflags(write=False)
        object.__setattr__(self, "M", M)


def _as_square(U, n, what="U"):
    arr = np.asarray(U, dtype=float)
    if arr.shape != (n, n):
        raise DimensionError(f"{what} must be {n}x{n}, got {arr.shape}")
    return arr


def op_Z(model, U):
    """Z(U) = Diag(sigma_bar_x^T U sigma_bar_x); PSD whenever U is PSD."""
    U = _as_square(U, model.n)
    sbx = model.sigma_bar_x
    return SymMatrix(np.diag(np.diag(sbx.T @ U @ sbx)))


def op_W(model, U):
    """W(U) = Diag(sigma_bar_x^T U sigma_x + sigma_x^T U sigma_bar_x).

    Diagonal but possibly indefinite: W is the one operator of the
    family that is not positive.
    """
    U = _as_square(U, model.n)
    return SymMatrix(np.diag(op_W_d(model, U)))


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
    """L_alpha(U) = alpha (A^T U A + Z(U)).

    Linear-positive and monotone: U >= V (PSD order) implies
    L_alpha(U) >= L_alpha(V), for every alpha >= 0.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    U = _as_square(U, model.n)
    A = model.A
    return SymMatrix(alpha * (A.T @ U @ A + op_Z(model, U).entries))


def _basis_matrix(n, idx):
    # Orthonormal basis of symmetric matrices under the Frobenius product.
    e = np.zeros(sym_dim(n))
    e[idx] = 1.0
    return smat(e, n)


def operator_matrix(model, alpha, which):
    """Matrix representation of a model operator in the svec basis.

    Parameters
    ----------
    model : CsviuModel
    alpha : float
        Used only for ``which="L_alpha"``; the conjugation A_conj
        (U -> A^T U A) and Z are alpha-free.
    which : {"L_alpha", "A_conj", "Z"}

    Returns
    -------
    OperatorRep
    """
    n = model.n
    dim = sym_dim(n)
    if which == "L_alpha":
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        op = lambda U: op_L_alpha(model, alpha, U).entries
    elif which == "A_conj":
        op = lambda U: model.A.T @ U @ model.A
    elif which == "Z":
        op = lambda U: op_Z(model, U).entries
    else:
        raise ValueError(f"unknown operator {which!r}")
    M = np.empty((dim, dim))
    for idx in range(dim):
        M[:, idx] = svec(op(_basis_matrix(n, idx)))
    return OperatorRep(n=n, dim=dim, M=M)


def spectral_radius(rep):
    """Spectral radius max|eigenvalue| of an OperatorRep or square matrix.

    Computed from a full eigendecomposition; the representations at the
    intended scale (n <= ~20, dim <= ~210) make robustness cheap.
    """
    M = rep.M if isinstance(rep, OperatorRep) else np.asarray(rep, dtype=float)
    if M.size == 0:
        return 0.0
    try:
        eigs = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue computation failed: {exc}") from None
    return float(np.abs(eigs).max())
