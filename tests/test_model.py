"""Model construction, validation, and JSON round-trip behavior."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from csviu import (
    CsviuModel,
    DimensionError,
    ParseError,
    load_model,
    validate,
)
from csviu.model import as_weight

SCALAR_DOC = {
    "n": 1, "r": 1, "p": 1,
    "A": [[0.5]], "sigma_x": [[0.2]], "sigma_bar_x": [[0.3]],
    "sigma": [[0.1]], "C": [[1.0]],
}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return path


def model_doc(model):
    """The model as a JSON-ready dict, matrices as nested lists of floats."""
    doc = {"n": model.n, "r": model.r, "p": model.p, "m": model.m}
    for name in ("A", "sigma_x", "sigma_bar_x", "sigma", "C", "B", "D"):
        if getattr(model, name) is not None:
            doc[name] = getattr(model, name).tolist()
    return doc


class TestAsWeight:
    def test_symmetrizes_by_averaging(self):
        M = as_weight([[1.0, 2.0], [0.0, 3.0]], 2)
        assert np.array_equal(M, [[1.0, 1.0], [1.0, 3.0]])

    def test_result_is_read_only(self):
        M = as_weight(np.eye(2), 2)
        assert not M.flags.writeable
        with pytest.raises(ValueError):
            M[0, 0] = 5.0

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError, match="Q must be 1x1"):
            as_weight([[1.0, 2.0]], 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="entries must be finite"):
            as_weight([[1.0, bad], [bad, 1.0]], 2)

    def test_non_numeric_rejected(self):
        with pytest.raises(ParseError, match="W is not a numeric array"):
            as_weight([[1.0], [1.0, 2.0]], 2, "W")

    def test_entries_near_the_double_limit_stay_finite(self):
        # (Q + Q^T)/2 would overflow to inf here; the average itself is finite
        M = as_weight([[1.5e308, 1.0e308], [1.2e308, 1.5e308]], 2)
        assert np.array_equal(M, [[1.5e308, 1.1e308], [1.1e308, 1.5e308]])

    @given(st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_averaging_is_bit_identical_to_half_the_sum(self, n, seed):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((n, n))
        assert np.array_equal(as_weight(raw, n), (raw + raw.T) / 2.0)
        sym = (raw + raw.T) / 2
        assert np.array_equal(as_weight(sym, n), sym)

    def test_as_weight_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            as_weight(np.eye(2), 3)


class TestLoadSave:
    def test_scalar_file_loads(self, tmp_path):
        model = load_model(write_json(tmp_path / "m.json", SCALAR_DOC))
        assert (model.n, model.r, model.p, model.m) == (1, 1, 1, 0)
        assert model.A[0, 0] == 0.5
        assert model.B is None and model.D is None

    def test_save_load_roundtrip_bit_exact(self, tmp_path, scalar_model):
        path = write_json(tmp_path / "roundtrip.json", model_doc(scalar_model))
        again = load_model(path)
        for name in ("A", "sigma_x", "sigma_bar_x", "sigma", "C"):
            assert np.array_equal(getattr(again, name), getattr(scalar_model, name))

    def test_roundtrip_with_input_and_awkward_floats(self, tmp_path):
        doc = dict(SCALAR_DOC)
        doc.update({"m": 1, "B": [[0.1 + 0.2]], "D": [[1e-300]]})
        path = write_json(tmp_path / "ex.json", doc)
        model = load_model(path)
        again = load_model(write_json(path, model_doc(model)))
        assert again.B[0, 0] == 0.1 + 0.2  # bit-exact, not approx
        assert again.D[0, 0] == 1e-300

    def test_bad_shape_raises_dimension_error(self, tmp_path):
        doc = dict(SCALAR_DOC)
        doc["A"] = [[0.5, 0.1, 0.2], [0.0, 0.3, 0.1]]  # 2x3
        with pytest.raises(DimensionError):
            load_model(write_json(tmp_path / "m.json", doc))

    def test_nan_entry_raises_value_error(self, tmp_path):
        doc = dict(SCALAR_DOC)
        doc["sigma"] = [["NaN"]]
        with pytest.raises(ValueError):
            load_model(write_json(tmp_path / "m.json", doc))

    def test_malformed_json_raises_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_model(path)

    def test_missing_keys_raise_parse_error(self, tmp_path):
        doc = {"n": 1, "r": 1, "p": 1}
        with pytest.raises(ParseError, match="missing keys"):
            load_model(write_json(tmp_path / "m.json", doc))

    @pytest.mark.parametrize(
        "key, value",
        [("n", 1.7), ("r", True), ("p", "1"), ("m", 0.5), ("n", False)],
        ids=["n-fraction", "r-true", "p-string", "m-fraction", "n-false"],
    )
    def test_dimensions_must_be_json_integers(self, tmp_path, key, value):
        doc = dict(SCALAR_DOC, **{key: value})
        with pytest.raises(ParseError, match=f"{key} must be an integer"):
            load_model(write_json(tmp_path / "m.json", doc))

    def test_m_inferred_from_B_when_absent(self, tmp_path):
        doc = dict(SCALAR_DOC)
        doc["B"] = [[1.0, 2.0]]
        doc["D"] = [[0.0, 0.0]]
        model = load_model(write_json(tmp_path / "m.json", doc))
        assert model.m == 2


class TestCsviuModel:
    def test_keeps_private_read_only_copies(self):
        A = np.array([[0.5, 0.1], [0.0, 0.3]])
        view = A[:, :]
        model = CsviuModel(n=2, r=2, p=2, m=0, A=view, sigma_x=np.zeros((2, 2)),
                           sigma_bar_x=np.eye(2), sigma=np.eye(2), C=np.eye(2))
        A[0, 0] = 0.9
        assert model.A[0, 0] == 0.5
        assert view.flags.writeable
        with pytest.raises(ValueError):
            model.A[0, 0] = 0.7


class TestValidate:
    def test_valid_model_has_no_violations(self, scalar_model):
        assert validate(scalar_model) == []

    def test_missing_B_with_positive_m(self, scalar_model):
        broken = CsviuModel(
            n=1, r=1, p=1, m=1,
            A=scalar_model.A, sigma_x=scalar_model.sigma_x,
            sigma_bar_x=scalar_model.sigma_bar_x, sigma=scalar_model.sigma,
            C=scalar_model.C,
        )
        assert "B required when m>0" in validate(broken)

    def test_C_row_count_mismatch(self, scalar_model):
        broken = CsviuModel(
            n=1, r=1, p=1, m=0,
            A=scalar_model.A, sigma_x=scalar_model.sigma_x,
            sigma_bar_x=scalar_model.sigma_bar_x, sigma=scalar_model.sigma,
            C=[[1.0], [0.0]],  # two rows, declared p=1
        )
        assert "C row count != p" in validate(broken)

    def test_bad_dimension_is_named_once(self):
        # r = -1: no shape rule on sigma is checked, so none names "3x-1".
        broken = CsviuModel(n=3, r=-1, p=1, m=0, A=np.eye(3), sigma_x=np.eye(3),
                            sigma_bar_x=np.eye(3), sigma=np.eye(3), C=np.ones((1, 3)))
        assert validate(broken) == ["r must be a positive integer"]

    def test_empty_matrix_is_named_empty(self):
        broken = CsviuModel(n=4, r=1, p=1, m=0, A=np.eye(4), sigma_x=[],
                            sigma_bar_x=np.eye(4), sigma=np.ones((4, 1)), C=np.ones((1, 4)))
        assert validate(broken) == ["sigma_x must be 4x4, got an empty array"]

    def test_clean_validation_means_downstream_acceptance(self, random_model_factory):
        import csviu

        for seed in range(5):
            model = random_model_factory(seed, 3, target=0.5)
            assert validate(model) == []
            csviu.check_stability(model, 0.9)
            csviu.solve_lyapunov(model, 0.9, np.eye(3))
