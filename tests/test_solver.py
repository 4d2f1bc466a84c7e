"""Perturbed Lyapunov solves, the critical parameter, and backward recursions."""

import numpy as np
import pytest

from csviu import (
    ConvergenceError,
    CsviuModel,
    NotStableError,
    SingularOperatorError,
    backward_recursion,
    check_stability,
    critical_alpha,
    op_L_alpha,
    operator_matrix,
    solve_lyapunov,
    spectral_radius,
)
from csviu import ops, solver
from csviu.solver import (
    SMITH_MAX_DOUBLINGS,
    STRICT_RADIUS_MARGIN,
    _smw_solve,
    radius_below_one,
)
from conftest import make_random_model
from test_ops import loop_operator_matrix, loop_smat, loop_svec, plain_model, random_psd

Q1 = np.array([[1.0]])


def diag_model(diag, n=2):
    return CsviuModel(
        n=n, r=n, p=n, m=0,
        A=np.diag(diag), sigma_x=np.zeros((n, n)),
        sigma_bar_x=np.zeros((n, n)), sigma=np.zeros((n, n)), C=np.eye(n),
    )


def min_eig(M):
    return float(np.linalg.eigvalsh(np.asarray(M)).min())


class TestSolveLyapunov:
    def test_scalar_geometric_series(self, scalar_model):
        sol = solve_lyapunov(scalar_model, 0.9, Q1)
        assert np.asarray(sol.L)[0, 0] == pytest.approx(1.0 / (1.0 - 0.306), abs=1e-12)
        assert sol.method == "direct"
        assert sol.iterations == 0
        assert sol.radius_bound == pytest.approx(0.306)

    def test_alpha_zero_returns_Q(self, scalar_model):
        rng = np.random.default_rng(3)
        G = rng.standard_normal((1, 1))
        Q = G @ G.T
        sol = solve_lyapunov(scalar_model, 0.0, Q)
        assert np.allclose(np.asarray(sol.L), Q)

    def test_decoupled_diagonal_case(self):
        sol = solve_lyapunov(diag_model([0.5, 0.8]), 1.0, np.eye(2))
        assert np.allclose(
            np.asarray(sol.L), np.diag([1 / (1 - 0.25), 1 / (1 - 0.64)]), atol=1e-12
        )

    def test_not_stable_reports_radius(self, scalar_model):
        with pytest.raises(NotStableError) as info:
            solve_lyapunov(scalar_model, 3.0, Q1)
        assert info.value.spectral_radius == pytest.approx(3.0 * 0.34)

    def test_residual_invariant_and_psd(self):
        rng = np.random.default_rng(12)
        for seed in range(20):
            n = int(rng.integers(1, 7))
            alpha = float(rng.choice([0.5, 0.9, 1.0]))
            model = make_random_model(seed, n, target=float(rng.uniform(0.2, 0.94)), alpha=alpha)
            G = rng.standard_normal((n, n))
            Q = G @ G.T
            sol = solve_lyapunov(model, alpha, Q)
            assert sol.residual <= 1e-9 * max(1.0, np.max(np.abs(Q)))
            assert min_eig(sol.L) >= -1e-10

    def test_methods_agree(self):
        for seed in range(20):
            model = make_random_model(seed, 3, target=0.6, alpha=0.9)
            d = solve_lyapunov(model, 0.9, np.eye(3), method="direct")
            f = solve_lyapunov(model, 0.9, np.eye(3), method="fixed_point")
            assert np.max(np.abs(np.asarray(d.L) - np.asarray(f.L))) <= 1e-9
            assert f.iterations > 0

    def test_fixed_point_convergence_error_on_tiny_budget(self, scalar_model, monkeypatch):
        monkeypatch.setattr(solver, "FIXED_POINT_MAX_ITER", 2)
        with pytest.raises(ConvergenceError, match="in 2 iterations"):
            solve_lyapunov(scalar_model, 0.9, Q1, method="fixed_point")

    def test_singular_smw_step_is_an_error(self, scalar_model, monkeypatch):
        # I - L_alpha is invertible below radius one, so only rounding makes the step singular.
        monkeypatch.setattr(solver, "_smw_solve", lambda model, alpha, C: (None, None))
        with pytest.raises(SingularOperatorError, match="singular at alpha = 0.9"):
            solve_lyapunov(scalar_model, 0.9, Q1)

    def test_unknown_method_rejected(self, scalar_model):
        with pytest.raises(ValueError):
            solve_lyapunov(scalar_model, 0.9, Q1, method="magic")

    def test_series_representation_matches(self):
        model = make_random_model(99, 3, target=0.5, alpha=0.9)
        rep = operator_matrix(model, 0.9, "L_alpha")
        r = spectral_radius(rep)
        K = int(np.ceil(np.log(1e-12) / np.log(r))) + 1
        Q = np.eye(3)
        term = Q.copy()
        total = Q.copy()
        for _ in range(K):
            term = np.asarray(op_L_alpha(model, 0.9, term))
            total += term
        sol = solve_lyapunov(model, 0.9, Q)
        assert np.max(np.abs(total - np.asarray(sol.L))) <= 1e-9


def dense_solution(model, alpha, C):
    """Oracle: solve (I - L_alpha)(U) = C on the svec matrix built one basis matrix at a time."""
    n = model.n
    lhs = np.eye(n * (n + 1) // 2) - loop_operator_matrix(model, alpha, "L_alpha")
    return loop_smat(np.linalg.solve(lhs, loop_svec(C)), n)


def dense_capacitance(model, alpha):
    """Oracle for K(alpha): Phi (I - alpha A_conj)^{-1} E with Z = E Phi, from the basis loops."""
    n = model.n
    lhs = np.eye(n * (n + 1) // 2) - alpha * loop_operator_matrix(model, alpha, "A_conj")
    eye, sbx = np.eye(n), model.sigma_bar_x
    E = np.array([loop_svec(np.outer(eye[j], eye[j])) for j in range(n)]).T
    Phi = np.array([loop_svec(np.outer(sbx[:, i], sbx[:, i])) for i in range(n)])
    return Phi @ np.linalg.solve(lhs, E)


def rel_gap(got, expected):
    return float(np.abs(got - expected).max() / np.abs(expected).max())


#: Models whose A is defective, nilpotent, diagonal or zero, or whose sigma_bar_x is zero.
HARD_MODELS = {
    "jordan_block": plain_model([[0.9, 1.0], [0.0, 0.9]], 0.2 * np.eye(2)),
    "nilpotent": plain_model([[0.0, 1.0], [0.0, 0.0]], 0.3 * np.ones((2, 2))),
    "diagonal": plain_model(np.diag([0.9, 0.5, 0.3]), 0.2 * np.eye(3)),
    "zero_A": plain_model(np.zeros((3, 3)), 0.4 * np.eye(3)[[1, 2, 0]]),
    "zero_sigma_bar": make_random_model(4, 4, target=0.8, with_sigma_bar=False),
}
#: A quarter turn: r(A) = 1 and ||A^k||_1 = 1 for every k.
ROTATION_2 = np.array([[0.0, -1.0], [1.0, 0.0]])


class TestSteinSMWCore:
    """The Smith-SMW core against the dense svec solve, the oracle built by basis loops."""

    @pytest.mark.parametrize("alpha", [0.5, 0.9, 1.0, 1.2])
    def test_random_models_match_the_dense_oracle(self, alpha):
        rng = np.random.default_rng(int(100 * alpha))
        checked = 0
        for trial in range(40):
            n = int(rng.integers(1, 9))
            # 1.3 is not stable; the core still solves there while sqrt(alpha) r(A) < 1
            target = float(rng.choice([0.4, 0.8, 0.95, 1.3]))
            model = make_random_model(int(rng.integers(2**31)), n, target=target, alpha=alpha)
            C = random_psd(rng, n)
            if not radius_below_one(np.sqrt(alpha) * spectral_radius(model.A)):
                continue
            U, K = _smw_solve(model, alpha, C[None])
            assert rel_gap(U[0], dense_solution(model, alpha, C)) <= 1e-11, (trial, n)
            assert rel_gap(K, dense_capacitance(model, alpha)) <= 1e-11, (trial, n)
            assert np.array_equal(U[0], U[0].T)
            checked += 1
        assert checked >= 30

    @pytest.mark.parametrize("case", sorted(HARD_MODELS))
    @pytest.mark.parametrize("alpha", [0.5, 0.9, 1.0])
    def test_hard_cases_match_the_dense_oracle_and_the_fixed_point(self, case, alpha):
        model = HARD_MODELS[case]
        C = random_psd(np.random.default_rng(1), model.n)
        U, K = _smw_solve(model, alpha, C[None])
        assert rel_gap(U[0], dense_solution(model, alpha, C)) <= 1e-14
        assert np.allclose(K, dense_capacitance(model, alpha), rtol=1e-14, atol=1e-15)
        # the fixed point stops at an update of 1e-12, some r/(1 - r) above its own error
        fixed = solve_lyapunov(model, alpha, C, method="fixed_point").L
        assert rel_gap(U[0], fixed) <= 1e-11

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_many_small_grid_is_finite_and_matches_the_oracle(self, n):
        # alpha^(2^k) kept apart from A^(2^k) overflows while A^(2^k) underflows
        # on this grid; sqrt(alpha) inside P keeps every solve finite.
        model = make_random_model(50 + n, n, target=0.8)
        grid = [float(a) for a in np.linspace(0.05, 1.25, 64)]
        solvable = [a for a in grid if radius_below_one(0.8 * a)]
        assert len(solvable) == 63
        Q = model.C.T @ model.C
        for alpha in solvable:
            L = solve_lyapunov(model, alpha, Q).L
            assert np.isfinite(L).all()
            assert rel_gap(L, dense_solution(model, alpha, Q)) <= 1e-11, alpha

    def test_right_hand_side_near_the_double_limit_stays_finite(self, scalar_model):
        U, _ = _smw_solve(scalar_model, 0.9, np.array([[[8.9e307]]]))
        assert U[0, 0, 0] == pytest.approx(8.9e307 / (1.0 - 0.9 * 0.34), rel=1e-14)

    def test_zero_right_hand_side_gives_zero(self):
        model = make_random_model(3, 3, target=0.8)
        U, _ = _smw_solve(model, 0.9, np.zeros((1, 3, 3)))
        assert not U.any()

    @pytest.mark.parametrize("radius", [1.0, 1.5])
    def test_divergent_series_raises_at_the_doubling_cap(self, radius):
        model = plain_model(radius * ROTATION_2)
        with pytest.raises(ConvergenceError, match=f"{SMITH_MAX_DOUBLINGS} doublings"):
            _smw_solve(model, 1.0, np.eye(2)[None])


class TestCriticalAlpha:
    def test_scalar_value(self, scalar_model):
        # max(r_sigma(L_1), r_sigma(A)) = max(0.34, 0.5)
        expect = (1.0 - STRICT_RADIUS_MARGIN) / 0.5
        assert critical_alpha(scalar_model) == pytest.approx(expect, rel=1e-12)

    def test_cap_when_unbounded(self, monkeypatch):
        model = diag_model([0.0, 0.0])
        assert critical_alpha(model) == 1e6
        monkeypatch.setattr(solver, "ALPHA_BAR_CAP", 123.0)
        assert critical_alpha(model) == 123.0

    def test_spectral_radius_clause_binds(self):
        model = diag_model([0.9, 0.0])
        # L_alpha stable iff alpha * 0.81 < 1 (alpha < 1.2346); the
        # r_sigma(A) < 1/alpha clause gives the tighter 1/0.9.
        expect = (1.0 - STRICT_RADIUS_MARGIN) / 0.9
        assert critical_alpha(model) == pytest.approx(expect, rel=1e-12)

    def test_monotone_predicate_consistency(self):
        for seed in range(10):
            model = make_random_model(seed, 2, target=0.7)
            bar = critical_alpha(model)
            r1 = spectral_radius(operator_matrix(model, 1.0, "L_alpha"))
            r_A = spectral_radius(model.A)
            expect = (1.0 - STRICT_RADIUS_MARGIN) / max(r1, r_A)
            assert bar == pytest.approx(expect, rel=1e-12)

    def test_is_the_supremum_of_the_strict_test(self):
        for seed in range(10):
            model = make_random_model(seed, 3, target=0.7)
            bar = critical_alpha(model)
            r = max(spectral_radius(operator_matrix(model, 1.0, "L_alpha")),
                    spectral_radius(model.A))
            assert radius_below_one(bar * (1.0 - 1e-12) * r)
            assert not radius_below_one(bar * (1.0 + 1e-12) * r)


class TestAlphaRadius:
    def test_alpha_times_unit_radius_matches_direct_representation(self):
        for seed in range(12):
            n = 1 + seed % 4
            model = make_random_model(seed, n, target=0.8)
            for alpha in (0.5, 0.9, 1.2):
                direct = spectral_radius(operator_matrix(model, alpha, "L_alpha"))
                # solved first, the verdict rests on an upper bound that certifies it
                fresh = solve_lyapunov(model.with_dynamics(model.A), alpha, np.eye(n))
                assert direct * (1.0 - 1e-12) <= fresh.radius_bound
                assert radius_below_one(fresh.radius_bound)
                stability = check_stability(model, alpha)
                # check_stability kept r_sigma(L_1) on the model: the bound is the radius
                assert "_unit_radius" in vars(model)
                solution = solve_lyapunov(model, alpha, np.eye(n))
                assert stability.spectral_radii["L_alpha"] == pytest.approx(direct, rel=1e-12)
                assert solution.radius_bound == pytest.approx(direct, rel=1e-12)


class TestCertifiedVerdict:
    """solve_lyapunov's verdict from the bracket's first certifying read is the one
    the closed bracket gives: same NotStableError and message, or the same L bits."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(29)
        for seed in range(36):
            n = 1 + seed % 6
            r1 = float(rng.uniform(0.3, 1.6))
            model = make_random_model(seed, n, target=r1)
            kept = model.with_dynamics(model.A)
            r1 = ops.unit_radius(kept)  # the closed bracket, kept on this copy alone
            edge = (1.0 - STRICT_RADIUS_MARGIN) / r1
            # about the margin: at 1 - margin, inside it, and 1e-6 either side
            for alpha in (0.5, 0.9, 1.0, 1.2, edge, (1.0 - STRICT_RADIUS_MARGIN / 2) / r1,
                          edge * (1 - 1e-6), edge * (1 + 1e-6)):
                yield model.with_dynamics(model.A), kept, alpha

    @staticmethod
    def outcome(model, alpha, Q):
        try:
            return solve_lyapunov(model, alpha, Q)
        except (NotStableError, ConvergenceError) as exc:
            return exc

    def test_fresh_and_kept_radius_give_the_same_verdict(self):
        stable = not_stable = 0
        for fresh, kept, alpha in self.cases():
            Q = np.eye(fresh.n)
            got, want = self.outcome(fresh, alpha, Q), self.outcome(kept, alpha, Q)
            assert type(got) is type(want), (fresh.n, alpha)
            if isinstance(want, NotStableError):
                not_stable += 1
                assert str(got) == str(want)
                assert got.spectral_radius == want.spectral_radius
                # no read certified: the bracket ran on and kept its radius
                assert vars(fresh)["_unit_radius"] == vars(kept)["_unit_radius"]
            elif isinstance(want, ConvergenceError):
                # on the edge itself the solve's residual may miss its tolerance, alike
                # on both; the message ends in the bound, "(r_sigma <= ...)"
                assert str(got).split(" (r_sigma")[0] == str(want).split(" (r_sigma")[0]
            else:
                stable += 1
                assert np.array_equal(got.L.view(np.uint64), want.L.view(np.uint64))
                assert want.radius_bound <= got.radius_bound
                assert "_unit_radius" not in vars(fresh)  # a certificate is not kept
                assert radius_below_one(got.radius_bound)
        assert stable > 50 and not_stable > 50


class TestBackwardRecursion:
    def test_two_step_scalar(self, scalar_model):
        tri = backward_recursion(scalar_model, 0.9, Q1, kappa=2)
        p = [np.asarray(P)[0, 0] for P in tri.P_seq]
        assert p[2] == 0.0
        assert p[1] == pytest.approx(1.0)
        assert p[0] == pytest.approx(1.306)

    def test_single_step_returns_Q(self):
        model = make_random_model(4, 3, target=0.9)
        Q = np.eye(3)
        tri = backward_recursion(model, 1.1, Q, kappa=1)
        assert np.allclose(np.asarray(tri.P_seq[0]), Q)

    def test_long_horizon_matches_lyapunov(self, scalar_model):
        tri = backward_recursion(scalar_model, 0.9, Q1, kappa=200)
        sol = solve_lyapunov(scalar_model, 0.9, Q1)
        assert abs(np.asarray(tri.P_seq[0])[0, 0] - np.asarray(sol.L)[0, 0]) <= 1e-9

    def test_recursion_residual_and_psd_chain(self):
        model = make_random_model(8, 2, target=0.8)
        Q = np.eye(2)
        tri = backward_recursion(model, 1.2, Q, kappa=15)
        for k in range(15):
            step = np.asarray(op_L_alpha(model, 1.2, tri.P_seq[k + 1])) + Q
            assert np.max(np.abs(np.asarray(tri.P_seq[k]) - step)) <= 1e-10
            assert min_eig(tri.P_seq[k]) >= -1e-10

    def test_monotone_horizon_growth(self, scalar_model):
        previous = None
        for kappa in (1, 2, 5, 10, 40):
            P0 = np.asarray(backward_recursion(scalar_model, 0.9, Q1, kappa).P_seq[0])
            if previous is not None:
                assert min_eig(P0 - previous) >= -1e-12
            previous = P0

    def test_g_sequence_accumulates_varpi(self, scalar_model):
        tri = backward_recursion(scalar_model, 0.9, Q1, kappa=3)
        # g_k = alpha (g_{k+1} + varpi(P_{k+1})) with g_kappa = 0
        from csviu import op_varpi

        g = np.zeros(4)
        for k in range(2, -1, -1):
            g[k] = 0.9 * (g[k + 1] + op_varpi(scalar_model, np.asarray(tri.P_seq[k + 1])))
        assert np.allclose(tri.g_seq, g, atol=1e-14)

    def test_alpha_limit_monotone_convergence(self, scalar_model):
        sol1 = np.asarray(solve_lyapunov(scalar_model, 1.0, Q1).L)
        dists = []
        for alpha in (0.9, 0.99, 0.999):
            La = np.asarray(solve_lyapunov(scalar_model, alpha, Q1).L)
            dists.append(np.max(np.abs(La - sol1)))
            # monotone alpha-ordering: L^alpha <= L^1 for alpha < 1
            assert min_eig(sol1 - La) >= -1e-12
        assert dists[0] > dists[1] > dists[2]
