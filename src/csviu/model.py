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
import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParseError

__all__ = [
    "CsviuModel",
    "load_model",
    "validate",
]

#: Relative eigenvalue tolerance for the positive-semidefiniteness test of --Q.
PSD_TOL = 1e-10


def _holds_bool(value):
    """Whether a JSON value is, or nests, a boolean; each list's types are scanned once,
    without recursion, so no nesting depth overflows the stack."""
    pending = [[value]]
    while pending:
        values = pending.pop()
        types = set(map(type, values))
        if bool in types:
            return True
        if list in types:
            pending.extend(v for v in values if isinstance(v, list))
    return False


def _as_float_array(value, name):
    """Convert to a float ndarray, mapping conversion failures to ParseError.

    Booleans are refused before numpy sees them, since np.asarray reads
    [[1.0, true]] as [[1.0, 1.0]].
    """
    if _holds_bool(value):
        raise ParseError(f"{name} holds a boolean where a number is expected")
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ParseError(f"{name} is not a numeric array of equal-length rows") from None
    return arr


def as_weight(Q, n, what="Q"):
    """Q as a read-only symmetric (n, n) ndarray: the one gate for outside matrices.

    Rounding asymmetry is repaired by averaging (Q + Q^T)/2.  Raises
    ParseError, DimensionError or ValueError naming the matrix ``what``.
    """
    arr = _as_float_array(Q, what)
    if arr.shape != (n, n):
        raise DimensionError(f"{what} must be {n}x{n}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} entries must be finite")
    sym = arr / 2.0 + arr.T / 2.0  # halved first: entries near the double limit stay finite
    sym.setflags(write=False)
    return sym


def energy_weight(model, Q=None):
    """The energy weight as a symmetric (n, n) ndarray: Q, or C^T C when Q is None.

    Raises ValueError naming C when C^T C is not a finite double.
    """
    if Q is not None:
        return as_weight(Q, model.n)
    with np.errstate(over="ignore", invalid="ignore"):
        CtC = model.C.T @ model.C
    if not np.isfinite(CtC).all():
        raise ValueError("the default weight C^T C is not a finite double; "
                         "scale down C or give --Q")
    return CtC


def _dimension(doc, key):
    """A JSON integer from the model document; booleans and fractions are rejected."""
    value = doc[key]
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{key} must be an integer, got {reprlib.repr(value)}")
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
    n, r, p, m = model.n, model.r, model.p, model.m
    # A shape rule is checked only where its dimensions are valid, so a
    # bad dimension is reported once, not as impossible shapes.
    bad = {d for d in "nrp" if getattr(model, d) < 1}
    violations = [f"{d} must be a positive integer" for d in "nrp" if d in bad]
    if m < 0:
        violations.append("m must be nonnegative")

    expected = {
        "A": ("nn", (n, n)),
        "sigma_x": ("nn", (n, n)),
        "sigma_bar_x": ("nn", (n, n)),
        "sigma": ("nr", (n, r)),
        "C": ("pn", (p, n)),
    }
    if m > 0:
        expected.update(B=("nm", (n, m)), D=("pm", (p, m)))
    for name, (dims, shape) in expected.items():
        arr = getattr(model, name)
        if arr is None:
            need = "required when m>0" if name in ("B", "D") else "is required"
            violations.append(f"{name} {need}")
            continue
        if bad.intersection(dims):
            continue
        if arr.shape != shape:
            label = "C row count != p" if name == "C" and arr.ndim == 2 and arr.shape[1] == n else None
            violations.append(label or f"{name} must be {_dims(shape)}, got {_shape_text(arr)}")
            continue
        if not np.all(np.isfinite(arr)):
            violations.append(f"{name} has non-finite entries")

    if m <= 0:
        violations += [f"{name} present but m=0" for name in ("B", "D")
                       if getattr(model, name) is not None]
    return violations


def _dims(shape):
    """An expected shape as "3x2", each dimension through a bounded repr."""
    return "x".join(map(reprlib.repr, shape))


def _shape_text(arr):
    """An array's shape as a violation names it: "3x2", "an empty array" or "a 1-D array"."""
    if arr.ndim == 2:
        return f"{arr.shape[0]}x{arr.shape[1]}"
    return "an empty array" if arr.size == 0 else f"a {arr.ndim}-D array"


def _raise_for_violations(violations):
    finiteness = [v for v in violations if "non-finite" in v]
    if finiteness:
        raise ValueError("; ".join(violations))
    raise DimensionError("; ".join(violations))


def _read_json(path, what):
    """The JSON document in the UTF-8 file at path: the one reader of outside files.

    Each way the content fails to be JSON is one ParseError naming what
    ("model", "--Q" or "--G") and the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} file {path}: malformed JSON: {exc}") from None
    except UnicodeDecodeError:  # a ValueError too, so caught first
        raise ParseError(f"{what} file {path}: not UTF-8 text") from None
    except ValueError:  # an integer beyond Python's limit on digits to convert
        raise ParseError(f"{what} file {path}: an integer has too many digits") from None
    except RecursionError:
        raise ParseError(f"{what} file {path}: JSON nested too deeply") from None


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
        A file that is not UTF-8 JSON, or missing/ill-typed keys.
    DimensionError
        Inconsistent matrix shapes.
    ValueError
        Non-finite entries.
    """
    doc = _read_json(path, "model")
    model = CsviuModel.from_dict(doc)
    violations = validate(model)
    if violations:
        _raise_for_violations(violations)
    return model
