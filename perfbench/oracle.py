"""Independent numpy oracle for the csviu benchmark.

Nothing here imports ``csviu`` or the test suite.  The operator
L_alpha(U) = alpha (A^T U A + Diag(sbx^T U sbx)) is represented in the
Kronecker (vec) form on all n x n matrices, not in the package's svec
basis, so a shared bug in the svec code cannot hide from the checks.
The antisymmetric subspace only carries eigenvalues lambda_i lambda_j of
A (A-conjugation), which never exceed the symmetric-subspace radius, so
the vec-form spectral radius equals the package's r_sigma(L_alpha).
"""

from __future__ import annotations

import math

import numpy as np

#: The README's scalar reference model.
SCALAR_MODEL = {
    "n": 1, "r": 1, "p": 1,
    "A": [[0.5]], "sigma_x": [[0.2]], "sigma_bar_x": [[0.3]],
    "sigma": [[0.1]], "C": [[1.0]],
}

#: Mirrors the package's strict "radius < 1" margin; sweep points whose
#: alpha * r_sigma(L_1) lies this close to 1 may carry either status.
MARGIN_BAND = 1e-6


def kron_L1(A, sbx):
    """Vec-form matrix of L_1 (column-major vec)."""
    n = A.shape[0]
    K = np.kron(A.T, A.T)
    for i in range(n):
        K[i + n * i, :] += np.kron(sbx[:, i], sbx[:, i])
    return K


def radius(M):
    M = np.asarray(M, dtype=float)
    return float(np.abs(np.linalg.eigvals(M)).max()) if M.size else 0.0


def random_model(rng, n, p, target):
    """Random CSVIU model rescaled so that r_sigma(L_1) equals ``target``.

    L_1 is jointly quadratic in (A, sigma_bar_x), so scaling both by c
    scales its spectral radius by c^2 exactly.
    """
    A = rng.standard_normal((n, n))
    sbx = rng.standard_normal((n, n))
    sx = 0.3 * rng.standard_normal((n, n))
    sg = 0.2 * rng.standard_normal((n, n))
    C = rng.standard_normal((p, n))
    c = math.sqrt(target / radius(kron_L1(A, sbx)))
    return {
        "n": n, "r": n, "p": p,
        "A": (c * A).tolist(), "sigma_x": sx.tolist(),
        "sigma_bar_x": (c * sbx).tolist(), "sigma": sg.tolist(),
        "C": C.tolist(),
    }


class ModelOracle:
    """Closed-form quantities of one model, computed in vec form."""

    def __init__(self, doc):
        self.doc = doc
        self.n = doc["n"]
        self.A = np.asarray(doc["A"], dtype=float)
        self.sx = np.asarray(doc["sigma_x"], dtype=float)
        self.sbx = np.asarray(doc["sigma_bar_x"], dtype=float)
        self.sg = np.asarray(doc["sigma"], dtype=float)
        self.C = np.asarray(doc["C"], dtype=float)
        self.K1 = kron_L1(self.A, self.sbx)
        self.r_L1 = radius(self.K1)
        self.r_A = radius(self.A)
        self.Q = self.C.T @ self.C
        self.noise_cov = self.sg @ self.sg.T + self.sx @ self.sx.T

    def stable(self, alpha):
        return alpha * self.r_L1 < 1.0

    def marginal(self, alpha):
        return abs(alpha * self.r_L1 - 1.0) < MARGIN_BAND

    def alpha_bar(self):
        return min(1.0 / self.r_L1, 1.0 / self.r_A, 1e6)

    def solve(self, alpha):
        """L solving (I - L_alpha)(L) = C^T C; requires stable(alpha)."""
        n = self.n
        lhs = np.eye(n * n) - alpha * self.K1
        L = np.linalg.solve(lhs, self.Q.reshape(-1, order="F")).reshape((n, n), order="F")
        return (L + L.T) / 2.0

    def varpi(self, alpha):
        return float(np.trace(self.solve(alpha) @ self.noise_cov))

    def closed_loop_radius(self, alpha, G):
        G = np.asarray(G, dtype=float).reshape(self.n, -1)
        return alpha * radius(kron_L1(self.A + G @ self.C, self.sbx))


def close(a, b, rtol, atol=1e-12):
    return a is not None and b is not None and abs(a - b) <= atol + rtol * abs(b)
