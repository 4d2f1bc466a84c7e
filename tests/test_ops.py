"""Operator algebra: Z, W, varpi, L_alpha, sign vector, matrix representations."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from csviu import (
    CsviuModel,
    DimensionError,
    check_stability,
    op_L_alpha,
    op_varpi,
    op_W,
    op_W_d,
    op_Z,
    operator_matrix,
    smat,
    spectral_radius,
    svec,
)
from csviu import ops
from csviu.ops import RADIUS_RTOL, STALL_WINDOW, radius_bracket, unit_radius
from conftest import make_random_model, scalar_reference_model

SCALAR = scalar_reference_model()
U1 = np.array([[1.0]])
SQRT2 = np.sqrt(2.0)


def loop_svec(U):
    """Reference svec: one entry at a time over the row-major lower triangle."""
    n = U.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i + 1)]
    return np.array([U[i, i] if i == j else SQRT2 * U[i, j] for i, j in pairs])


def loop_smat(v, n):
    """Reference smat: the inverse of loop_svec."""
    U = np.zeros((n, n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1)]
    for idx, (i, j) in enumerate(pairs):
        if i == j:
            U[i, i] = v[idx]
        else:
            U[i, j] = U[j, i] = v[idx] / SQRT2
    return U


def loop_operator_matrix(model, alpha, which):
    """Reference representation: column j is svec(op(E_j)), one basis matrix at a time."""
    n = model.n
    dim = n * (n + 1) // 2
    op = {
        "L_alpha": lambda U: np.asarray(op_L_alpha(model, alpha, U)),
        "A_conj": lambda U: model.A.T @ U @ model.A,
        "Z": lambda U: np.asarray(op_Z(model, U)),
    }[which]
    M = np.empty((dim, dim))
    for idx in range(dim):
        e = np.zeros(dim)
        e[idx] = 1.0
        M[:, idx] = loop_svec(op(loop_smat(e, n)))
    return M


def random_psd(rng, n, scale=1.0):
    G = rng.standard_normal((n, n))
    return scale * (G @ G.T)


def min_eig(M):
    return float(np.linalg.eigvalsh(np.asarray(M)).min())


class TestOpZ:
    def test_scalar_value(self):
        assert np.asarray(op_Z(SCALAR, U1))[0, 0] == pytest.approx(0.09)

    def test_zero_input(self):
        assert np.allclose(np.asarray(op_Z(SCALAR, np.zeros((1, 1)))), 0.0)

    def test_identity_sigma_bar_extracts_diagonal(self):
        model = CsviuModel(
            n=2, r=2, p=2, m=0,
            A=np.zeros((2, 2)), sigma_x=np.zeros((2, 2)),
            sigma_bar_x=np.eye(2), sigma=np.zeros((2, 2)), C=np.eye(2),
        )
        U = np.array([[1.0, 2.0], [2.0, 5.0]])
        got = np.asarray(op_Z(model, U))
        direct = np.diag(np.diag(model.sigma_bar_x.T @ U @ model.sigma_bar_x))
        assert np.allclose(got, [[1.0, 0.0], [0.0, 5.0]])
        assert np.allclose(got, direct)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            op_Z(SCALAR, np.eye(2))


class TestOpW:
    def test_scalar_value(self):
        assert np.asarray(op_W(SCALAR, U1))[0, 0] == pytest.approx(0.12)

    def test_zero_input(self):
        assert np.allclose(np.asarray(op_W(SCALAR, np.zeros((1, 1)))), 0.0)

    def test_sign_flip_shows_non_positivity(self):
        flipped = CsviuModel(
            n=1, r=1, p=1, m=0,
            A=[[0.5]], sigma_x=[[-0.2]], sigma_bar_x=[[0.3]],
            sigma=[[0.1]], C=[[1.0]],
        )
        assert np.asarray(op_W(flipped, U1))[0, 0] == pytest.approx(-0.12)

    def test_w_d_vector_is_diagonal_of_w(self):
        rng = np.random.default_rng(7)
        model = make_random_model(3, 3, target=0.6)
        U = random_psd(rng, 3)
        assert np.allclose(op_W_d(model, U), np.diag(np.asarray(op_W(model, U))))


class TestOpVarpi:
    def test_scalar_value(self):
        assert op_varpi(SCALAR, U1) == pytest.approx(0.05)

    def test_zero(self):
        assert op_varpi(SCALAR, np.zeros((1, 1))) == 0.0

    def test_at_lyapunov_solution(self):
        L = np.array([[1.4409221902017293]])
        assert op_varpi(SCALAR, L) == pytest.approx(0.07204610951008648, abs=1e-15)

    def test_nonnegative_on_psd(self):
        rng = np.random.default_rng(11)
        for seed in range(20):
            model = make_random_model(seed, 3, target=0.7)
            assert op_varpi(model, random_psd(rng, 3)) >= 0.0


class TestOpLAlpha:
    def test_scalar_value(self):
        assert np.asarray(op_L_alpha(SCALAR, 0.9, U1))[0, 0] == pytest.approx(0.306)

    def test_alpha_zero(self):
        assert np.allclose(np.asarray(op_L_alpha(SCALAR, 0.0, U1)), 0.0)

    def test_reduces_to_conjugation_without_sigma_bar(self):
        rng = np.random.default_rng(5)
        model = make_random_model(9, 3, target=0.5, with_sigma_bar=False)
        U = random_psd(rng, 3)
        got = np.asarray(op_L_alpha(model, 0.8, U))
        assert np.allclose(got, 0.8 * model.A.T @ U @ model.A, atol=1e-12)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            op_L_alpha(SCALAR, -0.1, U1)


class TestSignVec:
    @given(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=6),
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=6),
    )
    def test_absolute_value_identity(self, r, x):
        # <r, |x|> = <S(x), r (.) x): the identity behind the v_k recursion
        size = min(len(r), len(x))
        r = np.asarray(r[:size])
        x = np.asarray(x[:size])
        s = np.sign(x)
        assert np.dot(r, np.abs(x)) == pytest.approx(np.dot(s, r * x), abs=1e-12)


class TestSvecBasis:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_equal_to_reference_loops(self, n):
        rng = np.random.default_rng(n)
        U = rng.standard_normal((n, n))
        assert np.array_equal(svec(U), loop_svec(U))
        v = rng.standard_normal(n * (n + 1) // 2)
        assert np.array_equal(smat(v, n), loop_smat(v, n))

    def test_svec_and_smat_of_a_stack(self):
        rng = np.random.default_rng(3)
        stack = rng.standard_normal((2, 4, 3, 3))
        vectors = svec(stack)
        matrices = smat(vectors, 3)
        assert vectors.shape == (2, 4, 6)
        assert matrices.shape == (2, 4, 3, 3)
        for idx in np.ndindex(2, 4):
            assert np.array_equal(vectors[idx], loop_svec(stack[idx]))
            assert np.array_equal(matrices[idx], loop_smat(vectors[idx], 3))

    @given(st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_roundtrip_preserves_frobenius_inner_product(self, n, seed):
        rng = np.random.default_rng(seed)
        U = random_psd(rng, n)
        V = random_psd(rng, n)
        assert np.allclose(smat(svec(U), n), U, atol=1e-12)
        assert np.dot(svec(U), svec(V)) == pytest.approx(
            np.trace(U @ V), rel=1e-10, abs=1e-10
        )


class TestOperatorMatrix:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("which", ["L_alpha", "Z"])
    def test_batched_build_equals_basis_loop(self, n, which):
        for seed in range(3):
            model = make_random_model(100 + seed, n, target=0.8)
            for alpha in (0.0, 0.9, 1.3):
                assert np.array_equal(
                    operator_matrix(model, alpha, which),
                    loop_operator_matrix(model, alpha, which),
                )

    def test_scalar_L_alpha_rep(self):
        M = operator_matrix(SCALAR, 0.9, "L_alpha")
        assert M.shape == (1, 1)
        assert M[0, 0] == pytest.approx(0.306)

    def test_Z_rep_zero_when_no_sigma_bar(self):
        model = make_random_model(2, 3, target=0.5, with_sigma_bar=False)
        assert np.allclose(operator_matrix(model, 1.0, "Z"), 0.0)

    def test_rep_matches_operator_on_random_U(self):
        model = make_random_model(21, 2, target=0.8)
        rng = np.random.default_rng(0)
        for which, op in (
            ("L_alpha", lambda U: np.asarray(op_L_alpha(model, 0.9, U))),
            ("Z", lambda U: np.asarray(op_Z(model, U))),
        ):
            M = operator_matrix(model, 0.9, which)
            for _ in range(20):
                U = random_psd(rng, 2)
                assert np.max(np.abs(M @ svec(U) - svec(op(U)))) <= 1e-10

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            operator_matrix(SCALAR, 0.9, "bogus")

    def test_a_stack_maps_as_its_matrices_bit_for_bit(self):
        # Signed zeros and non-finite entries included; Z's off-diagonal reads +0.
        model = make_random_model(7, 3, target=0.8)
        sbx = model.sigma_bar_x
        stack = np.random.default_rng(1).standard_normal((4, 3, 3))
        stack[1] = -0.0
        stack[2, 0, 1] = np.nan
        stack[3, 2, 2] = np.inf
        with np.errstate(invalid="ignore"):
            for op in (lambda U: op_Z(model, U), lambda U: op_L_alpha(model, 0.9, U)):
                for U, image in zip(stack, op(stack)):
                    assert np.array_equal(image.view(np.uint64), op(U).view(np.uint64))
            for U in stack:
                diag = np.diag(np.diag(sbx.T @ U @ sbx))
                assert np.array_equal(op_Z(model, U).view(np.uint64), diag.view(np.uint64))

    @pytest.mark.parametrize("n", [10, 20])
    def test_dense_stein_solve_peaks_below_the_memory_check(self, n, monkeypatch):
        # sqrt(5) r(A) = 1.34 takes the verdict to the dense solve on M_1: what
        # the build and the solve hold at their peak stays below what
        # operator_matrix counts before it allocates.  With physical memory
        # set to that peak, the build is refused.
        A = np.random.default_rng(n).standard_normal((n, n))
        model = plain_model(0.6 * A / spectral_radius(A), 0.1 * np.eye(n))
        unit_radius(model)
        tracemalloc.start()
        try:
            report = check_stability(model, 5.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not report.crit_v_part1
        assert peak < 8 * ops.BUILD_STACK_ARRAYS * ops.sym_dim(n) * n * n
        monkeypatch.setattr(ops.os, "sysconf",
                            {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": peak}.__getitem__)
        with pytest.raises(ValueError, match=f"at n = {n} needs"):
            operator_matrix(model, 1.0, "L_alpha")


class TestSpectralRadius:
    def test_scalar_L(self):
        assert spectral_radius(operator_matrix(SCALAR, 0.9, "L_alpha")) == pytest.approx(0.306)

    def test_zero_operator(self):
        model = CsviuModel(
            n=2, r=2, p=2, m=0,
            A=np.zeros((2, 2)), sigma_x=np.zeros((2, 2)),
            sigma_bar_x=np.zeros((2, 2)), sigma=np.zeros((2, 2)), C=np.eye(2),
        )
        assert spectral_radius(operator_matrix(model, 1.0, "L_alpha")) == 0.0

    def test_diagonal_conjugation(self):
        model = CsviuModel(
            n=2, r=2, p=2, m=0,
            A=np.diag([0.5, 0.8]), sigma_x=np.zeros((2, 2)),
            sigma_bar_x=np.zeros((2, 2)), sigma=np.zeros((2, 2)), C=np.eye(2),
        )
        M = operator_matrix(model, 1.0, "L_alpha")
        assert spectral_radius(M) == pytest.approx(0.64, abs=1e-12)

    def test_accepts_plain_matrices(self):
        assert spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(0.9)


def plain_model(A, sigma_bar_x=None):
    """A model with only dynamics and state-proportional noise, for L_1's spectrum."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    zeros = np.zeros((n, n))
    return CsviuModel(
        n=n, r=n, p=n, m=0, A=A, sigma_x=zeros,
        sigma_bar_x=zeros if sigma_bar_x is None else sigma_bar_x,
        sigma=zeros, C=np.eye(n),
    )


ROTATION = np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]])

#: Models whose Perron eigenvector is singular or defective, and two that are not;
#: True marks the ones on which the bracket gives way to the dense eigensolve.
HARD_CASES = {
    "diagonal": (plain_model(np.diag([0.9, 0.5, 0.3])), True),
    "diagonal_with_sigma_bar": (plain_model(np.diag([0.9, 0.5, 0.3]), 0.2 * np.eye(3)), True),
    "jordan_block": (plain_model([[0.9, 1.0], [0.0, 0.9]]), True),
    "nilpotent": (plain_model([[0.0, 1.0], [0.0, 0.0]]), True),
    "rotation": (plain_model(0.9 * ROTATION), False),
    "scaled_permutation": (plain_model(0.8 * np.eye(3)[[1, 2, 0]]), False),
}


class TestRadiusBracket:
    @pytest.mark.parametrize("alpha", [0.5, 0.9, 1.0, 1.2])
    def test_contains_the_kronecker_radius(self, alpha):
        rng = np.random.default_rng(int(10 * alpha))
        for trial in range(40):
            n = int(rng.integers(1, 8))
            model = make_random_model(int(rng.integers(2**31)), n,
                                      target=float(rng.uniform(0.3, 1.3)), alpha=alpha)
            exact = spectral_radius(loop_operator_matrix(model, alpha, "L_alpha"))
            bracket = radius_bracket(model)
            assert bracket is not None, (trial, n)
            lo, hi = alpha * bracket[0], alpha * bracket[1]
            assert hi - lo <= RADIUS_RTOL * hi
            assert lo * (1.0 - 1e-12) <= exact <= hi * (1.0 + 1e-12), (trial, n)

    @pytest.mark.parametrize("case", sorted(HARD_CASES))
    def test_hard_case_equals_the_dense_radius(self, case):
        model, falls_back = HARD_CASES[case]
        dense = spectral_radius(operator_matrix(model, 1.0, "L_alpha"))
        assert unit_radius(model) == pytest.approx(dense, rel=1e-12)
        assert (radius_bracket(model) is None) == falls_back

    @pytest.mark.parametrize("case, expected_reads", [
        ("rotation", 1), ("scaled_permutation", 1),  # U = I is already the Perron vector
        ("nilpotent", 1),  # L_1(L_1(I)) = 0: the trace vanishes before the second read
        # a stalled bracket gives way once its shrink has been measured, not at the cap
        ("diagonal", STALL_WINDOW + 1), ("jordan_block", STALL_WINDOW + 1),
    ])
    def test_reads_before_deciding(self, case, expected_reads, monkeypatch):
        reads = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda R: reads.append(R) or eigvalsh(R))
        radius_bracket(HARD_CASES[case][0])
        assert len(reads) == expected_reads

    @pytest.mark.parametrize("case, dense_builds", [("rotation", 0), ("jordan_block", 1)])
    def test_dense_eigensolve_only_as_the_fallback(self, case, dense_builds, monkeypatch):
        builds = []
        build = ops.operator_matrix
        monkeypatch.setattr(ops, "operator_matrix",
                            lambda *args: builds.append(args) or build(*args))
        model, _ = HARD_CASES[case]
        model = model.with_dynamics(model.A)  # a fresh copy holds no kept radius
        unit_radius(model)
        unit_radius(model)
        assert len(builds) == dense_builds

    def test_zero_operator_closes_at_zero(self):
        assert radius_bracket(plain_model(np.zeros((2, 2)))) == (0.0, 0.0)

    @pytest.mark.parametrize("n", [3, 20])
    def test_a_certificate_ends_the_bracket_at_its_first_read(self, n):
        model = make_random_model(n, n, target=0.8)
        open_reads, certifying = [], []
        closed = radius_bracket(model, lambda hi: open_reads.append(hi) or False)
        lo, hi = radius_bracket(model, lambda hi: certifying.append(hi) or 0.9 * hi <= 0.95)
        # the first read whose running upper end gives 0.9 r_sigma(L_1) <= 0.95 ends it
        assert hi == certifying[-1] and 0.9 * hi <= 0.95
        assert all(0.9 * h > 0.95 for h in certifying[:-1])
        assert certifying == open_reads[: len(certifying)]
        assert len(certifying) <= 2 < len(open_reads)
        assert closed[1] <= hi and lo <= closed[0]


class TestOperatorInvariants:
    def test_positivity_on_200_random_psd(self):
        rng = np.random.default_rng(2024)
        for trial in range(200):
            n = int(rng.integers(1, 5))
            model = make_random_model(int(rng.integers(2**31)), n, target=0.8)
            U = random_psd(rng, n)
            assert min_eig(op_Z(model, U)) >= -1e-10
            assert min_eig(op_L_alpha(model, 0.9, U)) >= -1e-10

    def test_monotonicity(self):
        rng = np.random.default_rng(77)
        for trial in range(50):
            n = int(rng.integers(1, 5))
            model = make_random_model(int(rng.integers(2**31)), n, target=0.8)
            V = random_psd(rng, n)
            U = V + random_psd(rng, n)  # U >= V in the PSD order
            diff = np.asarray(op_L_alpha(model, 1.1, U)) - np.asarray(
                op_L_alpha(model, 1.1, V)
            )
            assert min_eig(diff) >= -1e-10

    @given(
        st.integers(0, 2**32 - 1),
        st.floats(-3, 3, allow_nan=False),
        st.floats(-3, 3, allow_nan=False),
    )
    def test_linearity(self, seed, a, b):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        model = make_random_model(int(rng.integers(2**31)), n, target=0.7)
        U = random_psd(rng, n)
        V = random_psd(rng, n)
        for op in (
            lambda W: np.asarray(op_Z(model, W)),
            lambda W: np.asarray(op_W(model, W)),
            lambda W: np.asarray(op_L_alpha(model, 0.9, W)),
        ):
            lhs = op(a * U + b * V)
            rhs = a * op(U) + b * op(V)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))
        assert op_varpi(model, a * U + b * V) == pytest.approx(
            a * op_varpi(model, U) + b * op_varpi(model, V), abs=1e-10, rel=1e-10
        )

    def test_alpha_monotonicity(self):
        rng = np.random.default_rng(13)
        for trial in range(50):
            n = int(rng.integers(1, 5))
            model = make_random_model(int(rng.integers(2**31)), n, target=0.8)
            U = random_psd(rng, n)
            a1, a2 = sorted(rng.uniform(0.0, 2.0, size=2))
            diff = np.asarray(op_L_alpha(model, a2, U)) - np.asarray(
                op_L_alpha(model, a1, U)
            )
            assert min_eig(diff) >= -1e-10
