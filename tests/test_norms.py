"""Closed-form norm quantities: discounted/long-run energies and bounds."""

from pathlib import Path

import numpy as np
import pytest

from csviu import (
    CsviuModel,
    DomainError,
    NotStableError,
    backward_recursion,
    counter_discount_bound,
    decay_bound,
    h2_discounted_norm,
    load_model,
    norm_report,
    op_varpi,
    power_norm,
    solve_lyapunov,
    v_bar_bound,
    vanishing_discount_sweep,
)
from csviu.solver import max_abs
from conftest import make_random_model

GOLDEN_MODELS = Path(__file__).parent / "golden" / "models"

Q1 = np.array([[1.0]])
SCALAR_H2_09 = 0.6484149855907785
SCALAR_POWER = 0.05 / (1.0 - 0.34)


def noiseless(model):
    return CsviuModel(
        n=model.n, r=model.r, p=model.p, m=model.m,
        A=model.A, sigma_x=np.zeros_like(model.sigma_x),
        sigma_bar_x=model.sigma_bar_x, sigma=np.zeros_like(model.sigma),
        C=model.C, B=model.B, D=model.D,
    )


class TestH2Discounted:
    def test_scalar_closed_form(self, scalar_model):
        assert h2_discounted_norm(scalar_model, 0.9) == pytest.approx(
            SCALAR_H2_09, abs=1e-15
        )

    def test_zero_without_noise_injection(self, scalar_model):
        assert h2_discounted_norm(noiseless(scalar_model), 0.9) == 0.0

    def test_vanishes_as_alpha_to_zero(self, scalar_model):
        values = [h2_discounted_norm(scalar_model, a) for a in (0.5, 0.1, 0.01, 0.001)]
        assert all(v > 0 for v in values)
        assert values == sorted(values, reverse=True)
        assert values[-1] < 1e-2

    def test_domain_error_at_and_above_one(self, scalar_model):
        for alpha in (1.0, 1.2):
            with pytest.raises(DomainError):
                h2_discounted_norm(scalar_model, alpha)

    def test_matches_varpi_scaling_exactly(self):
        model = make_random_model(10, 3, target=0.7, alpha=0.9)
        sol = solve_lyapunov(model, 0.9, model.C.T @ model.C)
        expect = 0.9 / 0.1 * op_varpi(model, np.asarray(sol.L))
        assert h2_discounted_norm(model, 0.9) == pytest.approx(expect, rel=1e-12)

    def test_cross_check_against_backward_series(self, scalar_model):
        # g_0 over a long horizon reproduces the closed form within 1e-8
        tri = backward_recursion(scalar_model, 0.9, Q1, kappa=250)
        assert abs(tri.g_seq[0] - SCALAR_H2_09) <= 1e-8

    def test_cross_check_on_random_instance(self):
        model = make_random_model(6, 2, target=0.55, alpha=0.9)
        Q = model.C.T @ model.C
        tri = backward_recursion(model, 0.9, Q, kappa=300)
        assert abs(tri.g_seq[0] - h2_discounted_norm(model, 0.9)) <= 1e-8


class TestPowerNorm:
    def test_scalar_closed_form(self, scalar_model):
        assert power_norm(scalar_model) == pytest.approx(SCALAR_POWER, abs=1e-15)

    def test_zero_without_noise_injection(self, scalar_model):
        assert power_norm(noiseless(scalar_model)) == 0.0

    def test_decoupled_two_dimensional(self):
        model = CsviuModel(
            n=2, r=2, p=2, m=0,
            A=np.diag([0.5, 0.8]), sigma_x=np.zeros((2, 2)),
            sigma_bar_x=np.zeros((2, 2)), sigma=np.eye(2), C=np.eye(2),
        )
        assert power_norm(model) == pytest.approx(4.0 / 3.0 + 25.0 / 9.0, abs=1e-12)

    def test_requires_A_radius_below_one(self):
        model = CsviuModel(
            n=1, r=1, p=1, m=0,
            A=[[1.0]], sigma_x=[[0.1]], sigma_bar_x=[[0.0]],
            sigma=[[0.1]], C=[[1.0]],
        )
        with pytest.raises(NotStableError):
            power_norm(model)


class TestVBar:
    def test_scalar_value(self, scalar_model):
        L = solve_lyapunov(scalar_model, 0.9, Q1).L
        vb = v_bar_bound(scalar_model, 0.9, L)
        assert vb.primary[0] == pytest.approx(0.28294472098506684, abs=5e-6)
        assert vb.primary[0] == pytest.approx(
            0.9 * (1.0 / (1.0 - 0.45)) * 0.12 * np.asarray(L)[0, 0], abs=1e-15
        )
        # scalar resolvent: spectral radius and infinity norm coincide
        assert vb.conservative[0] == pytest.approx(vb.primary[0], abs=1e-15)

    def test_zero_when_cross_term_vanishes(self, scalar_model_no_sigma_x):
        L = solve_lyapunov(scalar_model_no_sigma_x, 0.9, Q1).L
        assert np.allclose(v_bar_bound(scalar_model_no_sigma_x, 0.9, L).primary, 0.0)

    def test_zero_at_alpha_zero(self, scalar_model):
        assert np.allclose(v_bar_bound(scalar_model, 0.0, Q1).primary, 0.0)

    def test_entrywise_nonnegative(self):
        for seed in range(10):
            model = make_random_model(seed, 3, target=0.8)
            L = solve_lyapunov(model, 0.9, np.eye(3)).L
            vb = v_bar_bound(model, 0.9, L)
            assert np.all(vb.primary >= 0.0)
            assert np.all(vb.conservative >= 0.0)


class TestCounterDiscountBound:
    def test_scalar_reconstruction(self, scalar_model):
        alpha, kappa = 1.5, 10
        sol = solve_lyapunov(scalar_model, alpha, Q1)
        Lv = np.asarray(sol.L)[0, 0]
        assert Lv == pytest.approx(1.0 / (1.0 - 0.51), abs=1e-12)
        c0 = Lv
        c1 = alpha * op_varpi(scalar_model, np.asarray(sol.L)) / (alpha - 1.0)
        vb = v_bar_bound(scalar_model, alpha, sol.L).primary[0]
        xi = -0.5 * vb / Lv
        expect = c0 * (1.0 - xi) ** 2 + kappa * c1 * alpha**kappa
        got = counter_discount_bound(norm_report(scalar_model, alpha, Q1), [1.0], kappa)
        assert np.isfinite(got) and got > 0
        assert got == pytest.approx(expect, rel=1e-12)

    def test_alpha_one_uses_varpi_slope(self, scalar_model):
        got = counter_discount_bound(norm_report(scalar_model, 1.0, Q1), [0.0], 7)
        sol = solve_lyapunov(scalar_model, 1.0, Q1)
        varpi_L = op_varpi(scalar_model, np.asarray(sol.L))
        # xi = 0 is impossible here (v_bar > 0), so reconstruct in full
        vb = v_bar_bound(scalar_model, 1.0, sol.L).primary[0]
        xi = -0.5 * vb / np.asarray(sol.L)[0, 0]
        expect = np.asarray(sol.L)[0, 0] * xi**2 + 7 * varpi_L
        assert got == pytest.approx(expect, rel=1e-12)

    def test_near_zero_for_centered_noiseless_start(self, scalar_model):
        quiet = noiseless(scalar_model)
        got = counter_discount_bound(norm_report(quiet, 1.5, Q1), [0.0], 2)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_domain_error_below_one(self, scalar_model):
        with pytest.raises(DomainError):
            counter_discount_bound(norm_report(scalar_model, 0.9, Q1), [1.0], 10)

    def test_not_stable_past_alpha_bar(self, scalar_model):
        with pytest.raises(NotStableError):
            counter_discount_bound(norm_report(scalar_model, 2.5, Q1), [1.0], 10)

    @pytest.mark.parametrize("x0, kappa", [([1e200], 40), ([1.0], 100_000),
                                           ([np.nan], 40)])
    def test_non_finite_bound_is_domain_error(self, scalar_model, x0, kappa):
        with pytest.raises(DomainError, match="not a finite double"):
            counter_discount_bound(norm_report(scalar_model, 1.2, Q1), x0, kappa)


class TestDecayBound:
    def test_scalar_k0_value(self, scalar_model):
        sol = solve_lyapunov(scalar_model, 1.2, Q1)
        Lv = np.asarray(sol.L)[0, 0]
        vb = v_bar_bound(scalar_model, 1.2, sol.L).primary[0]
        got = decay_bound(norm_report(scalar_model, 1.2, Q1), [1.0], 0)
        assert got == pytest.approx(2.0 * (Lv + vb), rel=1e-12)

    def test_zero_start_gives_zero(self, scalar_model):
        for k in (0, 3, 11):
            assert decay_bound(norm_report(scalar_model, 1.2, Q1), [0.0], k) == 0.0

    def test_geometric_decay_in_k(self, scalar_model):
        alpha = 1.2
        report = norm_report(scalar_model, alpha, Q1)
        b0 = decay_bound(report, [1.0], 0)
        for k in (1, 5, 12):
            got = decay_bound(report, [1.0], k)
            assert got == pytest.approx(b0 * alpha**-k, rel=1e-12)

    def test_not_stable_past_alpha_bar(self, scalar_model):
        # L_alpha is solvable at 2.5, but r_sigma(alpha A) = 1.25
        with pytest.raises(NotStableError, match="r_sigma\\(alpha A\\) < 1"):
            decay_bound(norm_report(scalar_model, 2.5, Q1), [1.0], 3)

    def test_k0_dominates_initial_deviation(self, scalar_model):
        sol = solve_lyapunov(scalar_model, 1.2, Q1)
        level = 1.2 * op_varpi(scalar_model, np.asarray(sol.L))
        x0 = 1.0
        deviation = abs(x0**2 - level)  # E||x_0||_Q^2 is deterministic
        assert decay_bound(norm_report(scalar_model, 1.2, Q1), [x0], 0) >= deviation


class TestVanishingDiscountSweep:
    def test_scalar_grid_converges_to_power(self, scalar_model):
        rows = vanishing_discount_sweep(
            scalar_model, alphas=[0.9, 0.99, 0.999, 1.0, 1.001]
        )
        assert [row["status"] for row in rows] == ["ok"] * 5
        varpi = [row["varpi_L"] for row in rows]
        expect = [0.05 / (1.0 - 0.34 * a) for a in (0.9, 0.99, 0.999, 1.0, 1.001)]
        assert np.allclose(varpi, expect, rtol=1e-12)
        below = [abs(v - SCALAR_POWER) for v in varpi[:3]]
        assert below == sorted(below, reverse=True)

    def test_distance_to_limit_decreases(self, scalar_model):
        rows = vanishing_discount_sweep(scalar_model, alphas=[0.99, 0.999])
        assert rows[1]["dist_to_L1"] < rows[0]["dist_to_L1"]

    def test_silent_zeros_without_noise(self):
        model = CsviuModel(
            n=1, r=1, p=1, m=0,
            A=[[0.5]], sigma_x=[[0.0]], sigma_bar_x=[[0.0]],
            sigma=[[0.0]], C=[[1.0]],
        )
        rows = vanishing_discount_sweep(model, alphas=[0.9, 1.0, 1.5])
        for row in rows:
            assert row["varpi_L"] == 0.0
            assert row["abel_gap"] == 0.0

    def test_unstable_entries_marked_not_fatal(self, scalar_model):
        rows = vanishing_discount_sweep(scalar_model, alphas=[0.9, 3.0])
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"] == "not_stable"
        assert rows[1]["varpi_L"] is None

    def test_default_grid_used_when_absent(self, scalar_model):
        rows = vanishing_discount_sweep(scalar_model)
        alphas = [row["alpha"] for row in rows]
        assert 1.0 in alphas and len(alphas) >= 5

    @pytest.mark.parametrize("name", ["n3", "n10"])
    def test_rows_carry_the_bits_of_solves_at_one_alpha(self, name):
        model = load_model(str(GOLDEN_MODELS / f"{name}.json"))
        rows = vanishing_discount_sweep(model)
        ok = [row for row in rows if row["status"] == "ok"]
        assert len(ok) >= 5
        Q = model.C.T @ model.C
        L1 = solve_lyapunov(model, 1.0, Q).L
        for row in ok:
            L = solve_lyapunov(model, row["alpha"], Q).L
            assert row["varpi_L"] == op_varpi(model, L), row["alpha"]
            assert row["dist_to_L1"] == max_abs(L - L1), row["alpha"]


class TestNormReport:
    def test_discounted_side(self, scalar_model):
        report = norm_report(scalar_model, 0.9)
        assert report.h2_discounted == pytest.approx(SCALAR_H2_09, abs=1e-15)
        assert report.energy_offset_g0 == pytest.approx(SCALAR_H2_09, abs=1e-15)
        assert report.power_norm is None
        assert report.counter_bound is None

    def test_alpha_one_reports_power(self, scalar_model):
        report = norm_report(scalar_model, 1.0)
        assert report.power_norm == pytest.approx(SCALAR_POWER, abs=1e-15)
        assert report.h2_discounted is None

    def test_counter_side(self, scalar_model):
        report = norm_report(scalar_model, 1.5)
        assert report.h2_discounted is None
        assert report.counter_bound is not None
        assert report.counter_bound["c0"] > 0
        assert report.counter_bound["c1"] > 0

    def test_L_is_read_only(self, scalar_model):
        # simulate shares one report between its closed forms and the decay check
        report = norm_report(scalar_model, 0.9)
        assert isinstance(report.L, np.ndarray)
        assert not report.L.flags.writeable
        with pytest.raises(ValueError):
            report.L[0, 0] = 0.0

    def test_overflowing_closed_form_is_a_domain_error(self, scalar_model):
        # L = 8.9e307 / 0.694 is finite, but the h2 factor 0.999/0.001 is not
        with pytest.raises(DomainError, match="--Q"):
            norm_report(scalar_model, 0.999, [[8.9e307]])

    def test_overflowing_solution_is_a_domain_error(self, scalar_model):
        with pytest.raises(DomainError, match="--alpha"):
            solve_lyapunov(scalar_model, 2.9, [[8.9e307]])
        with pytest.raises(DomainError, match="--alpha"):
            solve_lyapunov(scalar_model, 2.9, [[8.9e307]], method="fixed_point")

    def test_invariant_h2_equals_scaled_varpi(self):
        model = make_random_model(17, 2, target=0.6, alpha=0.9)
        report = norm_report(model, 0.9)
        assert report.h2_discounted == pytest.approx(
            0.9 / 0.1 * report.varpi_L, rel=1e-12
        )
