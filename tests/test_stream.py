"""The streamed Monte Carlo pass against the whole-ensemble estimators.

simulate_paths hands each path block to its sinks and drops it; PathFeed
reduces each block's surviving paths as one chunk, evaluating x_k^T Q x_k
once per chunk for every reducer.  The oracles below are the
whole-ensemble estimators the stream replaced, kept as they were but for
two sums the stream forms differently, written out here in its form:
x_k^T Q x_k, evaluated stage by stage as (x_k Q) . x_k, and the
representation's cross term <v, noise>, summed per path by
einsum("pi,pi->p").  The per-stage oracle also reports stage 0 exactly,
x0^T Q x0 with standard error 0, as the reducer does.  The streamed
results, and the
Ensemble-taking estimators that replay a kept X through the same
reducers, must equal them bit for bit; only the representation check at
n >= 5 is compared to 1e-12 relative, because there BLAS matrix products
over a chunk and over the whole ensemble may round differently in the
last bit.
"""

import contextlib
import io
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import csviu.sim as sim
from conftest import make_random_model, scalar_reference_model
from csviu import (
    ConstantInput,
    SimConfig,
    cli,
    estimate_abel_energy,
    estimate_cesaro_power,
    load_model,
    op_varpi,
    op_W_d,
    per_stage_energy,
    simulate_paths,
    validate_representation,
)
from csviu.model import as_weight
from csviu.solver import backward_recursion
from test_sim import explosive_model

GOLDEN_MODELS = Path(__file__).resolve().parent / "golden" / "models"
SCALAR_MODEL = str(GOLDEN_MODELS / "scalar.json")


# --- the whole-ensemble oracles -------------------------------------------

def oracle_quadratic_forms(X, Qm):
    """q[p, k] = x_k^T Q x_k, stage by stage as (x_k Q) . x_k."""
    q = np.empty(X.shape[:2])
    for k in range(X.shape[1]):
        q[:, k] = np.einsum("pi,pi->p", X[:, k, :] @ Qm, X[:, k, :])
    return q


def oracle_quad_per_stage(X, Qm, mask, block=sim.PATH_BLOCK):
    for j0 in range(0, mask.size, block):
        sel = j0 + np.flatnonzero(mask[j0 : j0 + block])
        if sel.size:
            yield oracle_quadratic_forms(X[sel], Qm)


@np.errstate(over="ignore", invalid="ignore")
def oracle_abel(ensemble, Q, alpha):
    Qm = as_weight(Q, ensemble.model.n)
    kappa = ensemble.horizon
    w = float(alpha) ** np.arange(kappa + 1)
    sums = [q @ w for q in oracle_quad_per_stage(ensemble.X, Qm, ensemble.ok)]
    values = np.concatenate(sums) if sums else np.empty(0)
    mean, se, n = sim._ensemble_stats(values)
    return sim.EnergyEstimate(value=mean, std_error=se, n_paths=n,
                              kind=f"abel(alpha={alpha}, kappa={kappa})")


@np.errstate(over="ignore", invalid="ignore")
def oracle_cesaro(ensemble, Q):
    Qm = as_weight(Q, ensemble.model.n)
    kappa = ensemble.horizon
    means = [q[:, :kappa].mean(axis=1)
             for q in oracle_quad_per_stage(ensemble.X, Qm, ensemble.ok)]
    values = np.concatenate(means) if means else np.empty(0)
    mean, se, n = sim._ensemble_stats(values)
    return sim.EnergyEstimate(value=mean, std_error=se, n_paths=n,
                              kind=f"cesaro(kappa={kappa})")


@np.errstate(over="ignore", invalid="ignore")
def oracle_per_stage(ensemble, Q):
    Qm = as_weight(Q, ensemble.model.n)
    kappa = ensemble.horizon
    total = np.zeros(kappa + 1)
    sq_dev = np.zeros(kappa + 1)
    n = 0
    for q in oracle_quad_per_stage(ensemble.X, Qm, ensemble.ok):
        m = q.shape[0]
        chunk_total = q.sum(axis=0)
        sq_dev += ((q - chunk_total / m) ** 2).sum(axis=0)
        if n:
            sq_dev += (chunk_total / m - total / n) ** 2 * (n * m / (n + m))
        total += chunk_total
        n += m
    means = total / n
    ses = np.sqrt(sq_dev / (n - 1) / n)
    x0 = ensemble.cfg.x0
    means[0], ses[0] = x0 @ Qm @ x0, 0.0
    return means, ses


@np.errstate(over="ignore", invalid="ignore")
def oracle_representation(ensemble, alpha, Q):
    model, cfg = ensemble.model, ensemble.cfg
    kappa = cfg.horizon
    Qm = as_weight(Q, model.n)
    P = backward_recursion(model, alpha, Qm, kappa).P_seq
    okX = ensemble.X if ensemble.ok.all() else ensemble.X[ensemble.ok]
    n_ok = okX.shape[0]
    x0 = cfg.x0
    w = float(alpha) ** np.arange(kappa + 1)
    q = oracle_quadratic_forms(okX, Qm)
    S = q[:, :kappa] @ w[:kappa]
    A, B = model.A, model.B
    policy = cfg.input_policy
    v = np.zeros((n_ok, model.n))
    g = np.zeros(n_ok)
    corr = np.zeros(n_ok)
    for k in range(kappa - 1, -1, -1):
        Pk1 = P[k + 1]
        wd = op_W_d(model, Pk1)
        s_k = np.sign(okX[:, k, :])
        ell = policy.inputs(k, okX[:, k, :]) if B is not None else None
        if ell is not None:
            Bl = ell @ B.T
            g = alpha * (
                g
                + op_varpi(model, Pk1)
                + np.einsum("pi,ij,pj->p", Bl, Pk1, Bl)
                + (v * Bl).sum(axis=1)
            )
            noise = okX[:, k + 1, :] - okX[:, k, :] @ A.T - Bl
            corr += w[k] * alpha * np.einsum("pi,pi->p", v, noise)
            v = alpha * ((v + 2.0 * (Bl @ Pk1)) @ A + wd * s_k)
        else:
            g = alpha * (g + op_varpi(model, Pk1))
            noise = okX[:, k + 1, :] - okX[:, k, :] @ A.T
            corr += w[k] * alpha * np.einsum("pi,pi->p", v, noise)
            v = alpha * (v @ A + wd * s_k)
    terminal = np.einsum("pi,ij,pj->p", okX[:, kappa, :], P[kappa], okX[:, kappa, :])
    quad0 = float(x0 @ P[0] @ x0)
    R = v @ x0 + g - w[kappa] * terminal
    diffs = S - R
    gap_mean, gap_se, _ = sim._ensemble_stats(diffs)
    gap = abs(gap_mean - quad0)
    cgap_mean, cgap_se, _ = sim._ensemble_stats(diffs - corr)
    return {
        "lhs": float(S.mean()),
        "rhs": quad0 + float(R.mean()),
        "gap": gap,
        "std_error": gap_se,
        "z": gap / gap_se if gap_se > 0 else float("inf") if gap > 0 else 0.0,
        "n_paths": n_ok,
        "sign_noise_term": float(corr.mean()),
        "corrected_gap": abs(cgap_mean - quad0),
        "corrected_std_error": cgap_se,
    }


# --- cases ----------------------------------------------------------------

#: (model, config, alpha): three path blocks each.
CASES = {
    "scalar": (scalar_reference_model, dict(n_paths=9000, horizon=20, x0=[1.0]), 0.9),
    "n3": (lambda: load_model(GOLDEN_MODELS / "n3.json"),
           dict(n_paths=9000, horizon=20, x0=[1.0, 1.0, 1.0], noise_kind="rademacher"), 0.9),
    # the input branch of the backward loop: B l_k in g, the noise and v
    "constant-input": (lambda: make_random_model(777, 3, target=0.75, alpha=0.9, m=2),
                       dict(n_paths=9000, horizon=20, x0=[1.0, -0.5, 0.25],
                            input_policy=ConstantInput([0.7, -0.3])), 0.9),
    # aborts in every block, so every chunk is a copy of one block's survivors
    "explosive": (explosive_model,
                  dict(n_paths=3 * sim.PATH_BLOCK - 100, horizon=110, x0=[1.0]), 1e-4),
}


def streamed(model, cfg, Q, alpha, threads=1):
    """One streamed pass with every reducer; returns the ensemble and the reducers."""
    reducers = {
        "abel": sim.AbelSums(alpha, cfg.horizon),
        "cesaro": sim.CesaroMeans(cfg.horizon),
        "stages": sim.StageStats(cfg.horizon, cfg.x0, as_weight(Q, model.n)),
        "representation": sim.RepresentationCheck(model, cfg, alpha, as_weight(Q, model.n)),
    }
    ensemble = simulate_paths(model, cfg, [sim.PathFeed(as_weight(Q, model.n),
                                                        list(reducers.values()))],
                              threads=threads)
    return ensemble, reducers


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    make, kwargs, alpha = CASES[request.param]
    model = make()
    cfg = SimConfig(seed=7, **kwargs)
    Q = np.eye(model.n)
    kept = simulate_paths(model, cfg)
    ensemble, reducers = streamed(model, cfg, Q, alpha)
    return request.param, kept, ensemble, reducers, Q, alpha


class TestStreamEqualsOracle:
    @pytest.mark.usefixtures("hang_guard")
    def test_every_thread_count_merges_the_same_bits(self, case, monkeypatch):
        # Three path blocks over one, two and three processes: every
        # reducer's result is the same bits as the serial pass's.
        name, kept, _, reducers, Q, alpha = case
        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: set(range(3)))
        expect = {key: reducer.result() for key, reducer in reducers.items()}
        for threads in (2, 3):
            _, split = streamed(kept.model, kept.cfg, Q, alpha, threads)
            for key, reducer in split.items():
                got = reducer.result()
                if key == "stages":
                    assert all(np.array_equal(g.view(np.uint64), e.view(np.uint64))
                               for g, e in zip(got, expect[key])), (threads, key)
                else:
                    assert repr(got) == repr(expect[key]), (threads, key)

    def test_stream_keeps_no_ensemble(self, case):
        _, kept, ensemble, _, _, _ = case
        assert ensemble.X is None
        assert np.array_equal(ensemble.ok, kept.ok)
        assert ensemble.aborted == kept.aborted
        assert (ensemble.n_paths, ensemble.horizon) == (kept.n_paths, kept.horizon)

    def test_streamed_ensemble_refuses_the_estimators(self, case):
        _, _, ensemble, _, Q, alpha = case
        for estimate in (lambda: estimate_abel_energy(ensemble, Q, alpha),
                         lambda: per_stage_energy(ensemble, Q)):
            with pytest.raises(ValueError, match="without sinks"):
                estimate()

    def test_explosive_case_aborts_in_every_block(self):
        make, kwargs, _ = CASES["explosive"]
        kept = simulate_paths(make(), SimConfig(seed=7, **kwargs))
        per_block = [int((~kept.ok[j : j + sim.PATH_BLOCK]).sum())
                     for j in range(0, kept.n_paths, sim.PATH_BLOCK)]
        assert len(per_block) == 3 and all(per_block)
        assert kept.n_ok > sim.PATH_BLOCK

    @np.errstate(over="ignore", invalid="ignore")
    def test_abel_and_cesaro_are_bit_identical(self, case):
        _, kept, _, reducers, Q, alpha = case
        abel, cesaro = oracle_abel(kept, Q, alpha), oracle_cesaro(kept, Q)
        assert reducers["abel"].result() == abel
        assert estimate_abel_energy(kept, Q, alpha) == abel
        assert reducers["cesaro"].result() == cesaro
        assert estimate_cesaro_power(kept, Q) == cesaro

    @np.errstate(over="ignore", invalid="ignore")
    def test_per_stage_means_and_errors_are_bit_identical(self, case):
        _, kept, _, reducers, Q, _ = case
        means, ses = oracle_per_stage(kept, Q)
        for got_means, got_ses in (reducers["stages"].result(), per_stage_energy(kept, Q)):
            assert np.array_equal(got_means, means)
            assert np.array_equal(got_ses, ses)

    def test_representation_is_bit_identical(self, case):
        _, kept, _, reducers, Q, alpha = case
        expect = oracle_representation(kept, alpha, Q)
        assert reducers["representation"].result() == expect
        assert validate_representation(kept, alpha, Q) == expect


def test_each_block_reduces_its_own_survivors():
    # The explosive case aborts in all three path blocks: each reaches the
    # reducers once, as exactly its surviving paths in path order.
    make, kwargs, _ = CASES["explosive"]
    model, cfg = make(), SimConfig(seed=7, **kwargs)
    chunks = []

    class Record:
        def add_chunk(self, X, q):
            return X.copy()

        def merge(self, X):
            chunks.append(X)

    simulate_paths(model, cfg, [sim.PathFeed(np.eye(1), [Record()])])
    kept = simulate_paths(model, cfg)
    assert len(chunks) == 3
    for j0, X in zip(range(0, kept.n_paths, sim.PATH_BLOCK), chunks):
        block = slice(j0, j0 + sim.PATH_BLOCK)
        survivors = kept.X[block][kept.ok[block]].transpose(1, 0, 2)
        assert np.array_equal(X.view(np.uint64), survivors.view(np.uint64)), j0


@pytest.mark.parametrize("n", [5, 10])
def test_representation_matches_oracle_at_larger_n(n):
    # Chunks of 4096 rows against all 9000 at once: BLAS may round v @ A
    # differently in the last bit, so these compare to 1e-12 relative.
    model = make_random_model(40 + n, n)
    cfg = SimConfig(n_paths=9000, horizon=20, seed=3, x0=np.ones(n), noise_kind="rademacher")
    Q = np.eye(n)
    _, reducers = streamed(model, cfg, Q, 0.9)
    expect = oracle_representation(simulate_paths(model, cfg), 0.9, Q)
    got = reducers["representation"].result()
    assert got.keys() == expect.keys()
    for key, value in expect.items():
        assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), key


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("model", ["scalar", "n3"])
def test_quadratic_forms_are_evaluated_once_per_chunk(model, monkeypatch, tmp_path):
    # Every check on, plus the dump: one x^T Q x evaluation per chunk of
    # 4096 surviving paths, shared by all four reducers.
    quadratic_forms = sim._quadratic_forms
    chunks = []

    def counting(X, Q):
        chunks.append(X.shape[1])
        return quadratic_forms(X, Q)

    monkeypatch.setattr(sim, "_quadratic_forms", counting)
    code, out = run_cli(["simulate", str(GOLDEN_MODELS / f"{model}.json"), "--paths", "9000",
                         "--horizon", "5", "--seed", "7", "--alpha", "1.0", "--x0", "1.0",
                         "--validate-representation", "--check-decay", "--dump",
                         "--output-dir", str(tmp_path)])
    assert code == 0
    report = json.loads(out)
    assert {"abel", "cesaro"} <= report["estimates"].keys()
    assert {"representation", "decay"} <= report.keys()
    assert chunks == [4096, 4096, 808]


@pytest.mark.parametrize("n", [1, 3, 10])
def test_quadratic_forms_match_the_three_operand_einsum(n):
    # The per-stage form rounds differently from einsum("pki,ij,pkj->pk")
    # at n > 1; at n = 1 both are (x Q) x, down to the sign of zero.  The
    # forms read the stage-major block; 500 paths span two q chunks.
    rng = np.random.default_rng(n)
    X = rng.standard_normal((500, 21, n))
    X[:3, :4] = np.array([0.0, -0.0, 1e-300])[:, None, None]
    G = rng.standard_normal((n, n))
    for Q in (G @ G.T + np.eye(n), -np.eye(n)):
        got = sim._quadratic_forms(np.ascontiguousarray(X.transpose(1, 0, 2)), Q)
        expect = np.einsum("pki,ij,pkj->pk", X, Q, X)
        assert got.flags.c_contiguous and got.shape == expect.shape
        assert np.array_equal(got.view(np.uint64), oracle_quadratic_forms(X, Q).view(np.uint64))
        if n == 1:
            assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))
        else:
            assert np.allclose(got, expect, rtol=1e-14, atol=0.0)


def test_reduce_holds_no_chunk_sized_temporary():
    # A stage-major 101 x 4096 x 10 chunk (the mc-checks shape) is 33 MB;
    # beyond q the reduce may allocate less than an eighth of that.
    X = np.random.default_rng(0).standard_normal((101, sim.PATH_BLOCK, 10))
    seen = []

    class Keep:
        def add_chunk(self, X, q):
            seen.append(q.nbytes)

    feed = sim.PathFeed(np.eye(10), [Keep()])
    tracemalloc.start()
    try:
        feed.add_block(0, X, np.ones(sim.PATH_BLOCK, dtype=bool))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seen == [sim.PATH_BLOCK * 101 * 8]
    assert peak - seen[0] < X.nbytes / 8, peak


def test_dump_rows_follow_the_kept_ensemble(tmp_path):
    # Two path blocks: the second block's rows carry their global path index.
    paths, horizon = sim.PATH_BLOCK + 3, 2
    code, _ = run_cli(["simulate", SCALAR_MODEL, "--paths", str(paths), "--horizon",
                       str(horizon), "--seed", "5", "--alpha", "0.9", "--x0", "1.0",
                       "--dump", "--output-dir", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "trajectories.csv").read_text().splitlines()[2:]
    assert len(rows) == paths * (horizon + 1)
    X = simulate_paths(scalar_reference_model(),
                       SimConfig(n_paths=paths, horizon=horizon, seed=5, x0=[1.0])).X
    for j in (0, sim.PATH_BLOCK - 1, sim.PATH_BLOCK, paths - 1):
        for k in range(horizon + 1):
            x = repr(float(X[j, k, 0]))
            assert rows[j * (horizon + 1) + k] == f"{j},{k},{x},{x}"


def test_streamed_simulate_peaks_below_half_of_the_ensemble():
    # X would take 50000 x 201 x 8 bytes = 80.4 MB.
    ensemble_bytes = 50_000 * 201 * 8
    tracemalloc.start()
    try:
        code, _ = run_cli(["simulate", SCALAR_MODEL, "--paths", "50000", "--horizon", "200",
                           "--seed", "1", "--alpha", "0.9"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < ensemble_bytes / 2, peak


def test_streamed_rademacher_block_holds_sign_bytes():
    # One path block at n = r = 10, 4096 paths x 100 stages (the mc-checks
    # shape): the block X takes 33 MB, and the noise 8.2 MB as sign bytes
    # where it took 65.5 MB as doubles.
    model = make_random_model(4, 10)
    cfg = SimConfig(n_paths=sim.PATH_BLOCK, horizon=100, seed=6, noise_kind="rademacher",
                    x0=np.ones(10))
    abel = sim.AbelSums(0.9, cfg.horizon)
    tracemalloc.start()
    try:
        ens = simulate_paths(model, cfg, [sim.PathFeed(np.eye(10), [abel])])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ens.n_ok == sim.PATH_BLOCK
    assert abel.result().n_paths == sim.PATH_BLOCK
    assert peak < 60e6, peak


def test_streamed_checks_peak_below_the_memory_check(monkeypatch):
    # The mc-checks shape with all four reducers: what the run holds at
    # its peak must stay below what simulate_paths counts before it
    # starts.  With physical memory set to that peak, the run is refused.
    model = make_random_model(4, 10)
    cfg = SimConfig(n_paths=sim.PATH_BLOCK, horizon=100, seed=6, noise_kind="rademacher",
                    x0=np.ones(10))
    tracemalloc.start()
    try:
        ensemble, reducers = streamed(model, cfg, np.eye(10), 0.9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ensemble.n_ok == sim.PATH_BLOCK
    assert reducers["representation"].result()["n_paths"] == sim.PATH_BLOCK
    monkeypatch.setattr(sim.os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": peak}.__getitem__)
    with pytest.raises(ValueError, match="--paths or --horizon"):
        simulate_paths(model, cfg, [sim.PathFeed(np.eye(10), [])])


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("make, n_paths, horizon, noise", [
    (lambda: load_model(GOLDEN_MODELS / "n3.json"), sim.PATH_BLOCK + 50, 6, "rademacher"),
    (explosive_model, sim.PATH_BLOCK + 50, 110, "gaussian"),
])
def test_sinks_see_stage_major_blocks_of_the_kept_paths(make, n_paths, horizon, noise, threads):
    # A sink sees each block stage-major, (horizon+1, paths, n), and its
    # column j is path j0 + j of the kept ensemble, bit for bit, across
    # the block seam and through aborts; with two threads the second block
    # is seen in a child, and its copy merged here.
    model = make()
    cfg = SimConfig(n_paths=n_paths, horizon=horizon, seed=7, noise_kind=noise,
                    x0=np.ones(model.n))
    seen = []

    class Copy:
        def add_block(self, j0, X, ok):
            return j0, X.copy(), ok.copy()

        def merge(self, block):
            seen.append(block)

        def close(self):
            seen.append(None)

    streamed_run = simulate_paths(model, cfg, [Copy()], threads=threads)
    kept = simulate_paths(model, cfg)
    assert kept.X.shape == (n_paths, horizon + 1, model.n)
    assert [block[0] for block in seen[:-1]] == [0, sim.PATH_BLOCK] and seen[-1] is None
    for j0, X, ok in seen[:-1]:
        paths = min(sim.PATH_BLOCK, n_paths - j0)
        assert X.shape == (horizon + 1, paths, model.n)
        assert np.array_equal(ok, kept.ok[j0 : j0 + paths])
        for j in range(paths):
            assert np.array_equal(X[:, j].view(np.uint64), kept.X[j0 + j].view(np.uint64)), j0 + j
    assert np.array_equal(streamed_run.ok, kept.ok)
    if make is explosive_model:
        assert not kept.ok[: sim.PATH_BLOCK].all() and not kept.ok[sim.PATH_BLOCK :].all()


def test_memory_check_counts_what_the_stream_holds(monkeypatch):
    # Physical memory holds X but not X plus one noise buffer, so the
    # X-keeping simulation is refused while the streamed command runs.
    paths, horizon = 50_000, 200
    pages = paths * (horizon + 1) * 8 // 4096
    monkeypatch.setattr(sim.os, "sysconf",
                        {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}.__getitem__)
    cfg = SimConfig(n_paths=paths, horizon=horizon, seed=1)
    with pytest.raises(ValueError, match="--paths or --horizon"):
        simulate_paths(scalar_reference_model(), cfg)
    code, out = run_cli(["simulate", SCALAR_MODEL, "--paths", str(paths), "--horizon",
                         str(horizon), "--seed", "1", "--alpha", "0.9"])
    assert code == 0
    assert json.loads(out)["estimates"]["abel"]["n_paths"] == paths
