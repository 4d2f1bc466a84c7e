"""Model definitions, validation, and JSON serialization for CSVIU systems.

A CSVIU system evolves as

    x(k+1) = A x(k) + B l(k) + (sigma_x + sigma_bar_x diag(|x(k)|)) eps(k)
             + sigma w(k),
    y(k)   = C x(k) + D l(k),

with i.i.d. zero-mean noise (eps, w) of identity joint covariance.  The
intrinsic noise gain grows with the componentwise distance of the state
from the modeling point, which is the defining feature of the model
class.  ``m = 0`` means there is no exogenous input (B and D absent).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParseError

__all__ = [
    "SymMatrix",
    "CsviuModel",
    "load_model",
    "validate",
]

#: Relative eigenvalue tolerance for positive-semidefiniteness queries.
PSD_TOL = 1e-10


def _as_float_array(value, name):
    """Convert to a float ndarray, mapping conversion failures to ParseError."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{name} is not a numeric array: {exc}") from None
    return arr


class SymMatrix:
    """A real symmetric n-by-n matrix with positive-semidefiniteness queries.

    Construction repairs last-ulp asymmetry by averaging (U + U^T)/2
    rather than rejecting the input; user-supplied weights routinely
    carry rounding asymmetry.

    Parameters
    ----------
    entries : array_like
        Square 2-D real array.

    Raises
    ------
    DimensionError
        If the input is not a square 2-D array.
    ValueError
        If any entry is non-finite.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries):
        arr = np.asarray(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError(
                f"SymMatrix requires a square 2-D array, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("SymMatrix entries must be finite")
        sym = (arr + arr.T) / 2.0
        sym.setflags(write=False)
        self._entries = sym

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n))

    @classmethod
    def zeros(cls, n):
        return cls(np.zeros((n, n)))

    @property
    def n(self):
        return self._entries.shape[0]

    @property
    def entries(self):
        """The symmetric matrix as a read-only ndarray."""
        return self._entries

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self._entries.astype(dtype)
        return self._entries

    def min_eigenvalue(self):
        return float(np.linalg.eigvalsh(self._entries)[0])

    def is_psd(self, tol=PSD_TOL):
        """Whether the matrix is positive semidefinite.

        Agrees with the sign of the smallest eigenvalue within ``tol``
        scaled by the matrix magnitude.
        """
        scale = max(1.0, float(np.abs(self._entries).max(initial=0.0)))
        return self.min_eigenvalue() >= -tol * scale

    def is_positive_definite(self, tol=PSD_TOL):
        scale = max(1.0, float(np.abs(self._entries).max(initial=0.0)))
        return self.min_eigenvalue() > tol * scale

    def quad(self, x):
        """The quadratic form x^T U x."""
        x = np.asarray(x, dtype=float)
        return float(x @ self._entries @ x)

    def __repr__(self):
        return f"SymMatrix(n={self.n})"

    def __eq__(self, other):
        if isinstance(other, SymMatrix):
            return np.array_equal(self._entries, other._entries)
        return NotImplemented


def as_weight(Q, n):
    """Coerce Q (SymMatrix or array) to a symmetric (n, n) ndarray."""
    if isinstance(Q, SymMatrix):
        sym = Q.entries
    else:
        sym = SymMatrix(Q).entries
    if sym.shape != (n, n):
        raise DimensionError(f"weight must be {n}x{n}, got {sym.shape}")
    return sym


def energy_weight(model, Q=None):
    """The energy weight as a symmetric (n, n) ndarray: Q, or C^T C when Q is None."""
    return as_weight(Q, model.n) if Q is not None else model.C.T @ model.C


def _dimension(doc, key):
    """A JSON integer from the model document; booleans and fractions are rejected."""
    value = doc[key]
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{key} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class CsviuModel:
    """A CSVIU system: matrices (A, sigma_x, sigma_bar_x, sigma, C, B, D).

    ``m = 0`` means no exogenous input; in that case B and D are None.
    Construction only coerces entries to float arrays; use
    :func:`validate` for the full invariant check.  Models produced by
    :func:`load_model` are always fully validated.
    """

    n: int
    r: int
    p: int
    m: int
    A: np.ndarray
    sigma_x: np.ndarray
    sigma_bar_x: np.ndarray
    sigma: np.ndarray
    C: np.ndarray
    B: np.ndarray | None = None
    D: np.ndarray | None = None

    def __post_init__(self):
        for name in ("A", "sigma_x", "sigma_bar_x", "sigma", "C", "B", "D"):
            value = getattr(self, name)
            if value is None:
                continue
            # A private read-only copy, so results kept on the model stay valid.
            arr = np.array(value, dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        for name in ("n", "r", "p", "m"):
            object.__setattr__(self, name, int(getattr(self, name)))

    def with_dynamics(self, A):
        """A copy of the model with the dynamics matrix replaced."""
        from dataclasses import replace

        return replace(self, A=np.asarray(A, dtype=float))

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ParseError("model document must be a JSON object")
        required = ("n", "r", "p", "A", "sigma_x", "sigma_bar_x", "sigma", "C")
        missing = [key for key in required if key not in doc]
        if missing:
            raise ParseError(f"model document missing keys: {', '.join(missing)}")
        matrices = {}
        for key in ("A", "sigma_x", "sigma_bar_x", "sigma", "C", "B", "D"):
            if key in doc and doc[key] is not None:
                matrices[key] = _as_float_array(doc[key], key)
        n, r, p = (_dimension(doc, key) for key in ("n", "r", "p"))
        if "m" in doc and doc["m"] is not None:
            m = _dimension(doc, "m")
        elif "B" in matrices:
            # m is optional in the schema; infer it from B when absent.
            m = int(matrices["B"].shape[1]) if matrices["B"].ndim == 2 else 0
        else:
            m = 0
        return cls(
            n=n,
            r=r,
            p=p,
            m=m,
            A=matrices.get("A"),
            sigma_x=matrices.get("sigma_x"),
            sigma_bar_x=matrices.get("sigma_bar_x"),
            sigma=matrices.get("sigma"),
            C=matrices.get("C"),
            B=matrices.get("B"),
            D=matrices.get("D"),
        )


def validate(model):
    """Check every model invariant and return the list of violations.

    Total function: never raises, returns an empty list iff the model
    is valid.  Each violation names the offending field and rule.

    Parameters
    ----------
    model : CsviuModel

    Returns
    -------
    list of str
    """
    violations = []
    n, r, p, m = model.n, model.r, model.p, model.m
    if n < 1:
        violations.append("n must be a positive integer")
    if r < 1:
        violations.append("r must be a positive integer")
    if p < 1:
        violations.append("p must be a positive integer")
    if m < 0:
        violations.append("m must be nonnegative")

    expected = {
        "A": (n, n),
        "sigma_x": (n, n),
        "sigma_bar_x": (n, n),
        "sigma": (n, r),
        "C": (p, n),
    }
    for name, shape in expected.items():
        arr = getattr(model, name)
        if arr is None:
            violations.append(f"{name} is required")
            continue
        if arr.ndim != 2 or arr.shape != shape:
            label = "C row count != p" if name == "C" and arr.ndim == 2 and arr.shape[1] == n else None
            violations.append(
                label
                or f"{name} must be {shape[0]}x{shape[1]}, got "
                + "x".join(str(s) for s in arr.shape)
            )
            continue
        if not np.all(np.isfinite(arr)):
            violations.append(f"{name} has non-finite entries")

    if m > 0:
        if model.B is None:
            violations.append("B required when m>0")
        elif model.B.shape != (n, m):
            violations.append(f"B must be {n}x{m}, got {model.B.shape}")
        elif not np.all(np.isfinite(model.B)):
            violations.append("B has non-finite entries")
        if model.D is None:
            violations.append("D required when m>0")
        elif model.D.shape != (p, m):
            violations.append(f"D must be {p}x{m}, got {model.D.shape}")
        elif not np.all(np.isfinite(model.D)):
            violations.append("D has non-finite entries")
    else:
        if model.B is not None:
            violations.append("B present but m=0")
        if model.D is not None:
            violations.append("D present but m=0")
    return violations


def _raise_for_violations(violations):
    finiteness = [v for v in violations if "non-finite" in v]
    if finiteness:
        raise ValueError("; ".join(violations))
    raise DimensionError("; ".join(violations))


def load_model(path):
    """Load and validate a CSVIU model from a JSON file.

    Parameters
    ----------
    path : str or pathlib.Path
        File with top-level keys n, r, p, A, sigma_x, sigma_bar_x,
        sigma, C, and optional m, B, D; matrices are arrays of row
        arrays of finite doubles.

    Returns
    -------
    CsviuModel

    Raises
    ------
    ParseError
        Malformed JSON or missing/ill-typed keys.
    DimensionError
        Inconsistent matrix shapes.
    ValueError
        Non-finite entries.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: malformed JSON: {exc}") from None
    model = CsviuModel.from_dict(doc)
    violations = validate(model)
    if violations:
        _raise_for_violations(violations)
    return model
