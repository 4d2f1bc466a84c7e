"""Stability verdicts, criterion equivalence, and detectability checks."""

from pathlib import Path

import numpy as np
import pytest

from csviu import (
    CsviuModel,
    DimensionError,
    check_detectability_with_G,
    check_stability,
    load_model,
    operator_matrix,
    search_detectability,
    solve_lyapunov,
    spectral_radius,
    NotStableError,
)
from csviu import ops, stability
from csviu.solver import STRICT_RADIUS_MARGIN
from conftest import make_random_model
from test_ops import loop_operator_matrix
from test_solver import dense_capacitance, dense_solution

GOLDEN_MODELS = Path(__file__).resolve().parent / "golden" / "models"
N3_MODEL = GOLDEN_MODELS / "n3.json"


def diverging_stein_cases():
    """(model, alpha) pairs with sqrt(alpha) r(A) >= 1, where the Stein series diverges:
    both golden models at alpha = 5 and random models with n = 1..6."""
    cases = [(load_model(GOLDEN_MODELS / f"{name}.json"), 5.0) for name in ("scalar", "n3")]
    rng = np.random.default_rng(2024)
    while len(cases) < 40:
        n = int(rng.integers(1, 7))
        alpha = float(rng.choice([1.0, 1.2, 5.0]))
        target = float(rng.choice([1.3, 2.0, 4.0]))
        model = make_random_model(int(rng.integers(2**31)), n, target=target, alpha=alpha)
        if np.sqrt(alpha) * spectral_radius(model.A) >= 1.0:
            cases.append((model, alpha))
    return cases


class TestCheckStability:
    def test_scalar_alpha_stable(self, scalar_model):
        report = check_stability(scalar_model, 0.9)
        assert report.verdict == "alpha_stable"
        assert report.spectral_radii["L_alpha"] == pytest.approx(0.306)
        assert report.crit_ii and report.crit_iii
        assert report.crit_v_part1 and report.crit_v_part2
        assert not report.marginal

    def test_scalar_near_critical_still_stable(self, scalar_model):
        report = check_stability(scalar_model, 1.9)
        assert report.verdict == "alpha_stable"
        assert report.spectral_radii["L_alpha"] == pytest.approx(1.9 * 0.34)
        assert report.spectral_radii["alpha_A"] == pytest.approx(0.95)

    def test_scalar_past_critical_fails_eig_clause(self, scalar_model):
        report = check_stability(scalar_model, 2.1)
        assert report.verdict == "not_stable"
        assert report.crit_ii  # the operator radius alone is still fine
        assert not report.eig_clause
        assert report.spectral_radii["alpha_A"] == pytest.approx(1.05)

    def test_zero_dynamics_stable_at_any_alpha(self):
        model = CsviuModel(
            n=2, r=2, p=2, m=0,
            A=np.zeros((2, 2)), sigma_x=0.1 * np.eye(2),
            sigma_bar_x=np.zeros((2, 2)), sigma=np.eye(2), C=np.eye(2),
        )
        for alpha in (0.5, 1.0, 7.0, 500.0):
            report = check_stability(model, alpha)
            assert report.verdict in ("alpha_stable", "stable")

    def test_alpha_one_labeled_stable(self, scalar_model):
        assert check_stability(scalar_model, 1.0).verdict == "stable"

    def test_negative_alpha_rejected(self, scalar_model):
        with pytest.raises(ValueError):
            check_stability(scalar_model, -0.5)

    def test_singular_resolvent_marks_criterion_indeterminate(self):
        model = CsviuModel(
            n=2, r=2, p=2, m=0,
            A=np.diag([1.0, 0.0]), sigma_x=np.zeros((2, 2)),
            sigma_bar_x=np.zeros((2, 2)), sigma=np.eye(2), C=np.eye(2),
        )
        report = check_stability(model, 1.0)
        assert report.crit_v_part2 is None
        assert report.marginal  # r_sigma(L_1) sits exactly on the boundary

    def test_criteria_equivalence_random_instances(self):
        rng = np.random.default_rng(515)
        for trial in range(60):
            n = int(rng.integers(1, 7))
            alpha = float(rng.choice([0.5, 0.9, 1.0, 1.2]))
            target = float(rng.choice([0.4, 0.8, 1.3, 2.0]))
            model = make_random_model(int(rng.integers(2**31)), n, target=target, alpha=alpha)
            report = check_stability(model, alpha)  # raises on disagreement
            if not report.marginal and report.crit_v_part2 is not None:
                crit_v = report.crit_v_part1 and report.crit_v_part2
                assert report.crit_ii == report.crit_iii == crit_v

    @pytest.mark.parametrize("alpha", [0.5, 0.9, 1.0, 1.2])
    def test_resolvent_radius_matches_dense_oracle(self, alpha):
        # (v) reads Z's rank-n factor; the oracle solves the full svec system.
        rng = np.random.default_rng(77)
        for trial in range(40):
            n = int(rng.integers(1, 8))
            target = float(rng.choice([0.4, 0.8, 1.3]))
            model = make_random_model(int(rng.integers(2**31)), n, target=target, alpha=alpha)
            dim = n * (n + 1) // 2
            resolvent = np.linalg.solve(
                np.eye(dim) - alpha * loop_operator_matrix(model, alpha, "A_conj"),
                loop_operator_matrix(model, alpha, "Z"),
            )
            expected = float(np.abs(np.linalg.eigvals(resolvent)).max())
            got = check_stability(model, alpha).spectral_radii["resolvent_Z"]
            assert got == pytest.approx(expected, rel=1e-10, abs=0.0), (n, alpha)

    def test_diverging_stein_series_takes_one_svec_solve(self, monkeypatch):
        solves = []
        solve = np.linalg.solve

        def recording(a, b):
            solves.append((np.shape(a), np.shape(b)))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording)
        for model, alpha in diverging_stein_cases():
            solves.clear()
            check_stability(model, alpha)
            n, dim = model.n, model.n * (model.n + 1) // 2
            # one LU of the svec matrix for the stack [I, E_11..E_nn], then the
            # n-by-n capacitance solve of the SMW step
            assert solves == [((dim, dim), (dim, n + 1)), ((n, n), (n, 1))], (n, alpha)

    def test_diverging_stein_series_matches_dense_oracle(self):
        for model, alpha in diverging_stein_cases():
            report = check_stability(model, alpha)
            witness = dense_solution(model, alpha, np.eye(model.n))
            assert report.crit_iii == (float(np.linalg.eigvalsh(witness)[0]) > 0.0)
            expected = spectral_radius(dense_capacitance(model, alpha))
            got = report.spectral_radii["resolvent_Z"]
            assert got == pytest.approx(expected, rel=1e-10, abs=0.0), (model.n, alpha)

    def test_no_svec_sized_eigensolve(self, monkeypatch):
        model = load_model(N3_MODEL)
        shapes = []
        eigvals = np.linalg.eigvals

        def counting(M):
            shapes.append(np.shape(M))
            return eigvals(M)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        check_stability(model, 0.9)
        # r_sigma(L_1) comes from the radius bracket, so no 6x6 eigensolve
        # runs; only A and the resolvent, both 3x3, are eigensolved.
        assert shapes == [(3, 3), (3, 3)]

    def test_solution_plus_witness_implies_stable(self):
        rng = np.random.default_rng(8)
        checked = 0
        for trial in range(40):
            n = int(rng.integers(1, 5))
            alpha = float(rng.choice([0.5, 0.9, 1.2]))
            model = make_random_model(
                int(rng.integers(2**31)), n, target=float(rng.uniform(0.3, 0.9)), alpha=alpha
            )
            try:
                solve_lyapunov(model, alpha, model.C.T @ model.C)
            except NotStableError:
                continue
            witness = search_detectability(model, alpha)
            report = check_stability(model, alpha)
            if witness.detectable and (alpha < 1 or report.eig_clause):
                assert report.verdict in ("alpha_stable", "stable")
                checked += 1
        assert checked > 0


class TestDetectabilityWithG:
    def test_full_observation_cancels_dynamics(self):
        for seed in (1, 2, 3):
            base = make_random_model(seed, 3, target=1.4)  # unstable open loop
            model = CsviuModel(
                n=3, r=3, p=3, m=0, A=base.A, sigma_x=base.sigma_x,
                sigma_bar_x=base.sigma_bar_x, sigma=base.sigma, C=np.eye(3),
            )
            alpha = 0.9
            result = check_detectability_with_G(model, alpha, -model.A)
            z_radius = alpha * spectral_radius(operator_matrix(model, alpha, "Z"))
            assert result.detectable == (z_radius < 1.0 - 1e-9)
            assert result.closed_loop_radius == pytest.approx(z_radius, abs=1e-10)

    def test_scalar_witness_radius(self, scalar_model):
        result = check_detectability_with_G(scalar_model, 0.9, [[-0.5]])
        assert result.detectable
        assert result.closed_loop_radius == pytest.approx(0.9 * 0.09, abs=1e-12)

    def test_zero_gain_reduces_to_open_loop(self):
        for seed, target in ((5, 0.7), (6, 1.5)):
            model = make_random_model(seed, 2, target=target)
            result = check_detectability_with_G(model, 1.0, np.zeros((2, 2)))
            assert result.detectable == check_stability(model, 1.0).crit_ii

    def test_shape_mismatch_rejected(self, scalar_model):
        with pytest.raises(DimensionError):
            check_detectability_with_G(scalar_model, 0.9, np.zeros((2, 1)))

    def test_negative_alpha_rejected(self, scalar_model):
        with pytest.raises(ValueError, match="nonnegative"):
            check_detectability_with_G(scalar_model, -0.5, np.zeros((1, 1)))
        with pytest.raises(ValueError, match="nonnegative"):
            search_detectability(scalar_model, -0.5)


class TestSearchDetectability:
    def test_stable_model_found_at_zero_gain(self, scalar_model):
        result = search_detectability(scalar_model, 0.9)
        assert result.detectable
        assert np.allclose(result.G, 0.0)

    def test_unstable_full_observation_found_deterministically(self):
        rng = np.random.default_rng(31)
        model = CsviuModel(
            n=3, r=3, p=3, m=0,
            A=1.5 * rng.standard_normal((3, 3)), sigma_x=0.1 * np.eye(3),
            sigma_bar_x=0.05 * np.eye(3), sigma=0.1 * np.eye(3), C=np.eye(3),
        )
        assert not check_stability(model, 0.9).crit_ii
        result = search_detectability(model, 0.9)
        assert result.detectable
        assert result.closed_loop_radius < 1.0

    def test_blind_model_not_found(self):
        model = CsviuModel(
            n=1, r=1, p=1, m=0,
            A=[[2.0]], sigma_x=[[0.1]], sigma_bar_x=[[0.0]],
            sigma=[[0.1]], C=[[0.0]],
        )
        result = search_detectability(model, 1.0)
        assert not result.detectable
        assert result.closed_loop_radius >= 1.0

    def test_attempts_build_no_svec_matrix(self, monkeypatch):
        # G = 0 fails here, so the search goes on to its power iterates, from G(I) = -A C^+.
        model = make_random_model(5, 3, target=1.3)
        builds = []
        build = ops.operator_matrix
        monkeypatch.setattr(ops, "operator_matrix",
                            lambda *args: builds.append(args) or build(*args))
        assert not check_detectability_with_G(model, 0.9, np.zeros((3, 3))).detectable
        result = search_detectability(model, 0.9)
        assert result.detectable
        assert builds == []

    def test_hadamard_bound_holds_for_every_gain(self):
        # L^G = (A + G C)^T U (A + G C) + Z(U) with both terms positive, so
        # r_sigma(L^G) >= r_sigma(Z) = r(sigma_bar_x o sigma_bar_x) for every G.
        rng = np.random.default_rng(61)
        for trial in range(30):
            n = int(rng.integers(1, 6))
            p = int(rng.integers(1, n + 1))
            alpha = float(rng.choice([0.5, 0.9, 1.3]))
            model = make_random_model(int(rng.integers(2**31)), n,
                                      target=float(rng.uniform(0.5, 4.0)), p=p)
            sbx = model.sigma_bar_x
            bound = alpha * spectral_radius(sbx * sbx)
            assert spectral_radius(operator_matrix(model, alpha, "Z")) == pytest.approx(
                spectral_radius(sbx * sbx), rel=1e-12)
            for scale in (0.1, 1.0, 10.0):
                G = scale * rng.standard_normal((n, p))
                closed = model.with_dynamics(model.A + G @ model.C)
                radius = spectral_radius(operator_matrix(closed, alpha, "L_alpha"))
                assert radius >= bound * (1.0 - 1e-12)

    def test_bound_certifies_without_a_riccati_gain(self):
        # n3 at alpha = 5: the power iteration certifies that no gain passes, and
        # the result keeps the radius of -A C^+, the better of the two gains tried.
        model = load_model(N3_MODEL)
        result, bound = stability._detect(model, 5.0)
        assert bound is not None and bound >= 1.0
        assert result.closed_loop_radius == 2.3379720823191086
        assert search_detectability(model, 5.0) == result

    def test_monotone_in_alpha_with_same_witness(self):
        rng = np.random.default_rng(99)
        confirmed = 0
        for trial in range(20):
            n = int(rng.integers(1, 5))
            model = make_random_model(int(rng.integers(2**31)), n, target=1.3)
            result = search_detectability(model, 1.1)
            if not result.detectable:
                continue
            for smaller in (0.9, 0.5, 0.25):
                again = check_detectability_with_G(model, smaller, result.G)
                assert again.detectable
            confirmed += 1
        assert confirmed > 0

    def test_search_is_reproducible(self):
        model = make_random_model(44, 2, target=1.8, sigma_x_scale=0.6)
        a = search_detectability(model, 0.8)
        b = search_detectability(model, 0.8)
        assert a.detectable == b.detectable
        if a.G is not None:
            assert np.array_equal(a.G, b.G)


#: The witness fence: case k is model k // 3 of fence_models() at FENCE_ALPHAS[k % 3].
FENCE_ALPHAS = (0.5, 0.9, 1.3)
#: The fence cases where the search of pole placement and seeded random gains found a witness.
FENCE_WITNESSES = [
    0, 1, 2, 3, 9, 12, 13, 14, 15, 18, 19, 20, 21, 24, 25, 26, 27, 30, 33, 34, 35, 36, 37,
    38, 39, 42, 51, 52, 60, 61, 62, 63, 66, 67, 68, 69, 70, 71, 72, 75, 78, 79, 80, 81, 84,
    87, 90, 93, 94, 96, 97, 98, 99, 102, 103, 104, 105, 108, 109, 110, 111, 114, 126, 127,
    129, 130, 138, 141, 142, 144, 147, 150, 151, 156, 157, 158, 159, 162, 163, 164, 165,
    166, 171, 177, 180, 183, 184, 185, 186, 187, 189, 190, 192, 193, 195, 198, 201, 204,
    207, 208, 210, 211, 212, 213, 214, 215, 219, 222, 223, 225, 228, 231, 232, 233, 234,
    235, 236, 237, 238, 240, 241, 243, 244, 245, 246, 249, 250, 251, 252, 253, 254, 255,
    256, 258, 259, 261, 262, 264, 265, 266, 267, 270, 271, 272, 273, 274, 279, 280, 281,
    282, 285, 286, 288, 291, 292, 293, 294, 300, 301, 303, 304, 306, 309, 310, 312, 313,
    315, 316, 317, 318, 324, 325, 327, 330, 331, 332, 333, 339, 342, 345, 348, 349, 351,
    354, 357, 358
]


def fence_models():
    """120 random models: n = 1..6, p = 1..n outputs, r_sigma(L_1) uniform in [0.5, 4]."""
    rng = np.random.default_rng(2016)
    models = []
    for _ in range(120):
        n = int(rng.integers(1, 7))
        p = int(rng.integers(1, n + 1))
        target = float(rng.uniform(0.5, 4.0))
        models.append(make_random_model(int(rng.integers(2**31)), n, target=target, p=p))
    return models


def dense_closed_loop_radius(model, alpha, G):
    """The dense oracle: r_sigma of the svec matrix of the closed-loop L_alpha."""
    closed = model.with_dynamics(model.A + G @ model.C)
    return spectral_radius(operator_matrix(closed, alpha, "L_alpha"))


class TestWitnessFence:
    @pytest.mark.filterwarnings("error")
    def test_search_keeps_every_witness(self):
        found, undecided = [], []
        for i, model in enumerate(fence_models()):
            for j, alpha in enumerate(FENCE_ALPHAS):
                result, bound = stability._detect(model, alpha)
                if result.detectable:
                    assert dense_closed_loop_radius(model, alpha, result.G) < 1.0
                    found.append(3 * i + j)
                elif bound is None:
                    undecided.append(3 * i + j)
                else:
                    # No gain beats the certified bound, the two the search tried included.
                    for G in (np.zeros((model.n, model.p)), -model.A @ np.linalg.pinv(model.C)):
                        assert dense_closed_loop_radius(model, alpha, G) >= bound * (1 - 1e-12)
        assert sorted(set(FENCE_WITNESSES) - set(found)) == []
        assert undecided == []


def structured_model(A, C, sigma_bar_x=None):
    """A one-output model with the given A, C and sigma_bar_x (zero if omitted)."""
    n = len(A)
    sbx = np.zeros((n, n)) if sigma_bar_x is None else sigma_bar_x
    return CsviuModel(n=n, r=n, p=1, m=0, A=A, sigma_x=np.zeros((n, n)), sigma_bar_x=sbx,
                      sigma=0.1 * np.eye(n), C=C)


#: name: (A, C, sigma_bar_x, alpha, the certified bound, or None for a witness)
STRUCTURED_CASES = {
    "unobservable-unstable-mode": ([[2.0, 0.0], [0.0, 0.5]], [[0.0, 1.0]], None, 1.0, 4.0),
    "unobservable-stable-mode": ([[0.5, 0.0], [0.0, 2.0]], [[0.0, 1.0]], None, 1.0, None),
    "jordan-observed-on-first": ([[1.2, 1.0], [0.0, 1.2]], [[1.0, 0.0]], None, 1.0, None),
    "jordan-observed-on-second": ([[1.2, 1.0], [0.0, 1.2]], [[0.0, 1.0]], None, 1.0, 1.44),
    "noise-on-unobserved-state": ([[0.8, 0.0], [0.0, 2.0]], [[0.0, 1.0]],
                                  [[0.8, 0.0], [0.0, 0.0]], 1.0, 1.28),
    # R maps e2 e2^T to a multiple of u u^T, u = (1.2, -1), and that back: a 2-cycle,
    # which an undamped power step circles without deciding
    "period-two-cycle": ([[0.0, 1.2], [-1.0, -1.0]], [[1.0, 0.0]],
                         [[0.0, 0.0], [0.5, 0.0]], 1.0, None),
    # V tends to e1 e1^T, where C F is rounding alone: inverting it hides the mode
    "unobserved-mode-at-rounding": ([[1.0, 0.0], [0.0, 0.0]], [[0.0, -1.0]],
                                    [[0.0, 0.5], [0.0, 0.5]], 1.5, 1.5),
    # V tends to e2 e2^T, the unobserved mode, too slowly for the pencil's lower read on
    # range(V) to pass 0.96 in DETECT_STEPS; read on null(C) it certifies 1.5 (0.25 + 0.64)
    "stalled-read-on-unobserved-mode": ([[1.2, 0.0], [0.0, -0.5]], [[1.0, 0.0]],
                                        [[0.8, 0.0], [-0.3, 0.8]], 1.5, 1.335),
    # the pencil reads t about 1e-9 high here, so R(V) >= t V fails by rounding alone
    "t-read-high": ([[1.2, 0.0, 0.8], [0.0, 0.0, 0.0], [0.0, 0.0, 0.8]], [[0.0, 1.0, 0.0]],
                    [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -0.3]], 1.0, 1.44),
}


class TestDecidedDetectability:
    @pytest.mark.parametrize("name", sorted(STRUCTURED_CASES))
    def test_structured_case_is_decided(self, name):
        A, C, sbx, alpha, expected = STRUCTURED_CASES[name]
        model = structured_model(A, C, sbx)
        result, bound = stability._detect(model, alpha)
        if expected is None:
            assert result.detectable and bound is None
            assert dense_closed_loop_radius(model, alpha, result.G) < 1.0
            return
        assert not result.detectable
        assert bound >= 1.0 + STRICT_RADIUS_MARGIN
        assert bound == pytest.approx(expected, rel=1e-8)
        rng = np.random.default_rng(17)
        n = model.n
        gains = [scale * rng.standard_normal((n, 1)) for scale in (0.1, 1, 10) for _ in range(4)]
        for G in [np.zeros((n, 1)), -model.A @ np.linalg.pinv(model.C), *gains]:
            assert dense_closed_loop_radius(model, alpha, G) >= expected * (1 - 1e-12)

    def test_verdict_is_monotone_in_alpha(self):
        alphas = (0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0, 3.0)
        switched = 0
        for seed in range(12):
            model = make_random_model(600 + seed, 1 + seed % 5, target=1.3, p=1)
            verdicts = [stability._detect(model, alpha) for alpha in alphas]
            flags = [result.detectable for result, _ in verdicts]
            assert flags == sorted(flags, reverse=True), seed
            assert all(bound is not None for result, bound in verdicts if not result.detectable)
            switched += flags[0] != flags[-1]
        assert switched > 0
