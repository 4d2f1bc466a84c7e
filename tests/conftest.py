"""Shared fixtures: reference models, a random-instance factory, and the
acceptance-criteria recorder that prints one PASS/FAIL line per criterion."""

import math
import os
import signal

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from csviu import CsviuModel, operator_matrix, spectral_radius

settings.register_profile(
    "csviu",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("csviu")


def scalar_reference_model():
    """The scalar benchmark system used throughout the suite."""
    return CsviuModel(
        n=1, r=1, p=1, m=0,
        A=[[0.5]], sigma_x=[[0.2]], sigma_bar_x=[[0.3]], sigma=[[0.1]],
        C=[[1.0]],
    )


@pytest.fixture(scope="session")
def scalar_model():
    return scalar_reference_model()


@pytest.fixture(scope="session")
def scalar_model_no_sigma_x():
    """Scalar variant with sigma_x = 0: the cross-term operator W vanishes,
    so the closed forms are exact for it (see test_exactness.py)."""
    return CsviuModel(
        n=1, r=1, p=1, m=0,
        A=[[0.5]], sigma_x=[[0.0]], sigma_bar_x=[[0.3]], sigma=[[0.1]],
        C=[[1.0]],
    )


@pytest.fixture(scope="session")
def scalar_model_no_sigma_bar():
    """Scalar variant with sigma_bar_x = 0: classical linear dynamics with
    additive noise only; every second moment has a textbook closed form."""
    return CsviuModel(
        n=1, r=1, p=1, m=0,
        A=[[0.5]], sigma_x=[[0.2]], sigma_bar_x=[[0.0]], sigma=[[0.1]],
        C=[[1.0]],
    )


def make_random_model(seed, n, *, target=0.8, alpha=1.0, m=0, r=None, p=None,
                      sigma_x_scale=0.3, sigma_scale=0.2,
                      with_sigma_x=True, with_sigma_bar=True):
    """Random instance with standard-normal entries, rescaled so that
    r_sigma(L_alpha) equals ``target`` exactly.

    L_alpha is jointly quadratic in (A, sigma_bar_x), so scaling both by c
    scales its radius by c^2; the rescale is therefore exact, which lets
    callers place instances on either side of the stability boundary.
    """
    rng = np.random.default_rng(seed)
    r = n if r is None else r
    p = n if p is None else p
    A = rng.standard_normal((n, n))
    sbar = rng.standard_normal((n, n)) if with_sigma_bar else np.zeros((n, n))
    sx = sigma_x_scale * rng.standard_normal((n, n)) if with_sigma_x else np.zeros((n, n))
    sg = sigma_scale * rng.standard_normal((n, r))
    C = rng.standard_normal((p, n))
    B = rng.standard_normal((n, m)) if m else None
    D = np.zeros((p, m)) if m else None
    base = CsviuModel(n=n, r=r, p=p, m=m, A=A, sigma_x=sx, sigma_bar_x=sbar,
                      sigma=sg, C=C, B=B, D=D)
    r1 = spectral_radius(operator_matrix(base, 1.0, "L_alpha"))
    c = math.sqrt(target / (alpha * r1))
    return CsviuModel(n=n, r=r, p=p, m=m, A=c * A, sigma_x=sx,
                      sigma_bar_x=c * sbar, sigma=sg, C=C, B=B, D=D)


@pytest.fixture(scope="session")
def random_model_factory():
    return make_random_model


@pytest.fixture(autouse=True)
def no_child_left_unreaped():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process running or unreaped (waitpid: {pid})")


@pytest.fixture
def hang_guard():
    """Fail a test that waits 60 s, as on a dead or hung child, instead of hanging."""
    def hung(signum, frame):
        raise AssertionError("the run waited 60 s, on a dead or hung child")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def pytest_configure(config):
    config._acceptance_lines = []


@pytest.fixture
def acceptance(request):
    """Record one PASS/FAIL line for a numbered acceptance criterion.

    The line is printed immediately and echoed in the terminal summary;
    the assertion then enforces the criterion so failures stay failures.
    """

    def record(number, passed, detail):
        line = f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'} — {detail}"
        request.config._acceptance_lines.append((number, line))
        print()
        print(line)
        assert passed, line

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)
