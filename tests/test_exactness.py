"""Boundary of the closed-form identities: where they are exact, how they fail.

The discounted-energy and long-run-power closed forms rest on an identity
whose noise cross term carries a factor sigma_bar_x^T L sigma_x.  The
identity is exact when that product vanishes (sigma_x = 0 or
sigma_bar_x = 0) and the weights are summable (alpha <= 1); with both
noise channels active the omitted term shifts the true energy by an
amount with the sign of the cross term; for alpha > 1 the weighted
energy series outgrows every fixed quadratic bound even though the
solver still returns a finite certificate.  Scalar models make each
regime checkable in exact arithmetic.
"""

import numpy as np
import pytest

from csviu import (
    CsviuModel,
    SimConfig,
    estimate_abel_energy,
    estimate_cesaro_power,
    norm_report,
    op_varpi,
    power_norm,
    simulate_paths,
    solve_lyapunov,
    validate_representation,
)

Q1 = np.array([[1.0]])

# scalar second moments follow m_{k+1} = c m_k + d once one noise channel
# is off: c = a^2 + sigma_bar^2, d = sigma_x^2 + sigma^2
NO_SX = {"c": 0.5**2 + 0.3**2, "d": 0.1**2}
NO_SBAR = {"c": 0.5**2, "d": 0.2**2 + 0.1**2}


def weighted_moment_sum(alpha, c, d, m0, kappa):
    """Sum_{k=0}^{kappa} alpha^k m_k under m_{k+1} = c m_k + d."""
    m, total, weight = m0, 0.0, 1.0
    for _ in range(kappa + 1):
        total += weight * m
        weight *= alpha
        m = c * m + d
    return total


class TestExactDomain:
    @pytest.mark.parametrize(
        "fixture, coeffs",
        [("scalar_model_no_sigma_x", NO_SX), ("scalar_model_no_sigma_bar", NO_SBAR)],
    )
    def test_discounted_closed_form_sums_the_moment_recursion(
        self, request, fixture, coeffs
    ):
        model = request.getfixturevalue(fixture)
        closed = norm_report(model, 0.9).h2_discounted
        series = weighted_moment_sum(0.9, coeffs["c"], coeffs["d"], 0.0, 4000)
        assert closed == pytest.approx(series, rel=1e-12)

    @pytest.mark.parametrize(
        "fixture, coeffs",
        [("scalar_model_no_sigma_x", NO_SX), ("scalar_model_no_sigma_bar", NO_SBAR)],
    )
    def test_power_norm_is_the_stationary_second_moment(
        self, request, fixture, coeffs
    ):
        model = request.getfixturevalue(fixture)
        stationary = coeffs["d"] / (1.0 - coeffs["c"])
        assert power_norm(model) == pytest.approx(stationary, rel=1e-12)

    @pytest.mark.parametrize(
        "fixture", ["scalar_model_no_sigma_x", "scalar_model_no_sigma_bar"]
    )
    @pytest.mark.parametrize("alpha", [0.9, 1.0, 1.2])
    def test_linear_correction_vanishes_with_one_channel_off(
        self, request, fixture, alpha
    ):
        report = norm_report(request.getfixturevalue(fixture), alpha)
        assert np.all(np.asarray(report.v_bar) == 0.0)
        assert np.all(np.asarray(report.v_bar_conservative) == 0.0)


class TestCrossTermDeviation:
    def test_energy_exceeds_closed_form_with_both_channels_active(
        self, scalar_model
    ):
        closed = norm_report(scalar_model, 0.9).h2_discounted
        cfg = SimConfig(n_paths=20_000, horizon=40, seed=211)
        est = estimate_abel_energy(simulate_paths(scalar_model, cfg), Q1, 0.9)
        z = (est.value - closed) / est.std_error
        assert z > 10.0

    def test_deviation_tracks_cross_term_sign(self, scalar_model):
        flipped = CsviuModel(
            n=1, r=1, p=1, m=0,
            A=[[0.5]], sigma_x=[[-0.2]], sigma_bar_x=[[0.3]],
            sigma=[[0.1]], C=[[1.0]],
        )
        closed = norm_report(flipped, 0.9).h2_discounted
        # the closed form sees only sigma_x^2, so the flip leaves it unchanged
        assert closed == norm_report(scalar_model, 0.9).h2_discounted

        cfg = SimConfig(n_paths=20_000, horizon=40, seed=221)
        est = estimate_abel_energy(simulate_paths(flipped, cfg), Q1, 0.9)
        assert est.value + 3.0 * est.std_error < closed

    def test_long_run_power_exceeds_closed_form(self, scalar_model):
        closed = power_norm(scalar_model)
        cfg = SimConfig(n_paths=10_000, horizon=60, seed=231)
        est = estimate_cesaro_power(simulate_paths(scalar_model, cfg), Q1)
        z = (est.value - closed) / est.std_error
        assert z > 5.0
        assert (est.value - closed) / closed > 0.3

    def test_identity_gap_is_the_sign_coupling_term(self, scalar_model):
        cfg = SimConfig(n_paths=200_000, horizon=3, seed=241, x0=[1.0])
        report = validate_representation(simulate_paths(scalar_model, cfg), 0.9, Q1)
        # the raw identity misses by many standard errors ...
        assert report["z"] > 10.0
        # ... and the estimated cross term accounts for the whole gap
        assert report["sign_noise_term"] > 0.02
        assert abs(report["corrected_gap"]) <= 3.0 * report["corrected_std_error"]


class TestBeyondAlphaOne:
    @pytest.mark.parametrize(
        "fixture, coeffs",
        [("scalar_model_no_sigma_x", NO_SX), ("scalar_model_no_sigma_bar", NO_SBAR)],
    )
    def test_weighted_energy_outgrows_quadratic_certificate(
        self, request, fixture, coeffs
    ):
        model = request.getfixturevalue(fixture)
        report = norm_report(model, 1.2)
        certificate = float(np.asarray(report.L)[0, 0])  # x0 = 1
        assert np.isfinite(certificate)
        assert np.all(np.asarray(report.v_bar) == 0.0)

        s40 = weighted_moment_sum(1.2, coeffs["c"], coeffs["d"], 1.0, 40)
        s60 = weighted_moment_sum(1.2, coeffs["c"], coeffs["d"], 1.0, 60)
        # the exact weighted sums crush the certificate and keep growing
        assert s40 > 50.0 * certificate
        assert s60 > 20.0 * s40

    @pytest.mark.parametrize(
        "fixture, coeffs",
        [("scalar_model_no_sigma_x", NO_SX), ("scalar_model_no_sigma_bar", NO_SBAR)],
    )
    def test_stationary_level_matches_only_at_alpha_one(
        self, request, fixture, coeffs
    ):
        model = request.getfixturevalue(fixture)
        stationary = coeffs["d"] / (1.0 - coeffs["c"])

        L1 = solve_lyapunov(model, 1.0, Q1).L
        assert 1.0 * op_varpi(model, L1) == pytest.approx(stationary, rel=1e-12)

        L12 = solve_lyapunov(model, 1.2, Q1).L
        assert 1.2 * op_varpi(model, L12) > 1.25 * stationary
