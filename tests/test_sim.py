"""Monte Carlo engine: reproducibility contract, noise validity, energy
estimators, the pathwise energy-representation check, and the per-stage
decay diagnostic."""

import os
import signal
import threading
import time

import numpy as np
import pytest

import csviu.sim as sim
from csviu import (
    ConstantInput,
    CsviuModel,
    DimensionError,
    InputPolicy,
    NotStableError,
    SimConfig,
    ZeroInput,
    check_decay,
    decay_bound,
    estimate_abel_energy,
    estimate_cesaro_power,
    norm_report,
    op_varpi,
    per_stage_energy,
    simulate_paths,
    solve_lyapunov,
    v_bar_bound,
    validate_representation,
)

Q1 = [[1.0]]


def scalar_variant(a=0.5, sx=0.2, sbar=0.3, sg=0.1):
    return CsviuModel(n=1, r=1, p=1, m=0, A=[[a]], sigma_x=[[sx]],
                      sigma_bar_x=[[sbar]], sigma=[[sg]], C=[[1.0]])


def zero_noise_scalar(a=0.5):
    return scalar_variant(a=a, sx=0.0, sbar=0.0, sg=0.0)


def explosive_model():
    # Pathwise multiplicative growth ~ 40|eps| per stage: overflows near
    # stage 110 while staying finite long enough to leave survivors.
    return scalar_variant(a=0.0, sx=0.0, sbar=40.0, sg=1.0)


def exact_second_moments(model, x0, kappa):
    """E x_k^2 for scalar models with sigma_x = 0 or sigma_bar_x = 0,
    where the second-moment recursion closes exactly."""
    a = model.A[0, 0]
    sx = model.sigma_x[0, 0]
    sbar = model.sigma_bar_x[0, 0]
    sg = model.sigma[0, 0]
    assert sx == 0.0 or sbar == 0.0
    m = [x0 * x0]
    for _ in range(kappa):
        m.append((a * a + sbar * sbar) * m[-1] + sx * sx + sg * sg)
    return np.array(m)


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig(n_paths=10, horizon=5, seed=0)
        assert cfg.noise_kind == "gaussian"
        assert isinstance(cfg.input_policy, ZeroInput)
        np.testing.assert_array_equal(cfg.x0, [0.0])

    @pytest.mark.parametrize(
        "override, match",
        [
            ({"n_paths": 0}, "n_paths"),
            ({"horizon": 0}, "horizon"),
            ({"seed": -1}, "seed"),
            ({"seed": 2**64}, "seed"),
            ({"noise_kind": "cauchy"}, "noise_kind"),
            ({"x0": [np.inf]}, "finite"),
            ({"input_policy": "zero"}, "InputPolicy"),
        ],
    )
    def test_rejects_invalid_fields(self, override, match):
        kwargs = dict(n_paths=10, horizon=5, seed=0)
        kwargs.update(override)
        with pytest.raises(ValueError, match=match):
            SimConfig(**kwargs)

    def test_wrong_x0_length_rejected_at_simulation(self, scalar_model):
        cfg = SimConfig(n_paths=4, horizon=2, seed=0, x0=[1.0, 2.0])
        with pytest.raises(DimensionError, match="x0"):
            simulate_paths(scalar_model, cfg)

    def test_input_policy_requires_input_matrix(self, scalar_model):
        cfg = SimConfig(n_paths=4, horizon=2, seed=0, x0=[1.0],
                        input_policy=ConstantInput([0.5]))
        with pytest.raises(ValueError, match="m > 0"):
            simulate_paths(scalar_model, cfg)

    def test_ensemble_beyond_physical_memory_is_refused(self, scalar_model):
        # 10^9 paths x (10^6 + 1) stages x 8 bytes is about 8 PB; the check
        # is arithmetic, so nothing of that size is allocated.
        cfg = SimConfig(n_paths=10**9, horizon=10**6, seed=0, x0=[0.0])
        with pytest.raises(ValueError, match="--paths or --horizon"):
            simulate_paths(scalar_model, cfg)

    def test_noise_buffer_counts_toward_the_memory_check(self, scalar_model, monkeypatch):
        # 4096 paths x 5000 stages: X takes 164 MB and one path block's
        # noise buffer 268 MB; physical memory is set halfway into the buffer.
        paths, horizon, width = sim.PATH_BLOCK, 5000, 2
        ensemble = paths * (horizon + 1) * 8
        buffer = paths * sim._stage_block_size(horizon, width) * width * 8
        assert buffer == 2**28
        pages = (ensemble + buffer // 2) // 4096
        monkeypatch.setattr(sim.os, "sysconf",
                            {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}.__getitem__)

        def forbidden(*args, **kwargs):
            raise AssertionError("allocated before the memory check")

        monkeypatch.setattr(sim.np, "empty", forbidden)
        cfg = SimConfig(n_paths=paths, horizon=horizon, seed=0, x0=[0.0])
        with pytest.raises(ValueError, match="--paths or --horizon"):
            simulate_paths(scalar_model, cfg)

    def test_rademacher_buffer_counts_one_byte_per_draw(self, scalar_model, monkeypatch):
        # The same run with Rademacher noise: at 8 bytes a draw its noise
        # would not fit, but eps and w hold one sign byte per draw (33.5 MB)
        # and the group buffer one per draw of its paths.
        paths, horizon, width = sim.PATH_BLOCK, 5000, 2
        ensemble = paths * (horizon + 1) * 8
        draws = paths * sim._stage_block_size(horizon, width) * width
        pages = (ensemble + 8 * draws // 2) // 4096
        assert ensemble + draws <= pages * 4096 < ensemble + 8 * draws
        monkeypatch.setattr(sim.os, "sysconf",
                            {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}.__getitem__)

        class Accepted(Exception):
            pass

        stage_rows, draw = sim._NoiseBlocks.stage_rows, sim._PathStreams.draw
        groups = []

        def drawing(streams, out, last, i0=0):
            # The group buffer is local to stage_rows; each draw writes a view of it.
            groups.append(out.base)
            return draw(streams, out, last, i0)

        def accepted(noise, j0, bp):
            next(stage_rows(noise, j0, bp))
            group = groups[0]
            assert all(g is group for g in groups)
            arrays = noise.eps, noise.w, group
            assert all(a.dtype == np.uint8 for a in arrays)
            assert noise.eps.nbytes + noise.w.nbytes == draws
            assert group.nbytes == noise.group * draws // paths <= sim.GROUP_BYTES
            assert noise.nbytes == sum(a.nbytes for a in arrays)
            raise Accepted

        monkeypatch.setattr(sim._PathStreams, "draw", drawing)
        monkeypatch.setattr(sim._NoiseBlocks, "stage_rows", accepted)
        cfg = SimConfig(n_paths=paths, horizon=horizon, seed=0,
                        noise_kind="rademacher", x0=[0.0])
        with pytest.raises(Accepted):
            simulate_paths(scalar_model, cfg)


def oracle_path(model, cfg, j):
    """Path j of an n = 1 model by the plain recursion of the stream contract.

    Draws come from a fresh Generator(Philox(key=(seed, j))) in one call
    (the partition into stage blocks does not change them), and the scalar
    operations run in the simulator's order; the additive term sums onto
    +0 as a matrix product does (exactly so at r > 1 only when its sum
    is exact, as with dyadic sigma and Rademacher draws).  Returns the
    trajectory, NaN from an abort on, and the abort stage or None.
    """
    a, sx = model.A[0, 0], model.sigma_x[0, 0]
    sbar, sg = model.sigma_bar_x[0, 0], model.sigma[0]
    gen = np.random.Generator(
        np.random.Philox(key=np.array([cfg.seed, j], dtype=np.uint64)))
    shape = (cfg.horizon, 1 + model.r)
    if cfg.noise_kind == "gaussian":
        draws = gen.standard_normal(shape)
    elif cfg.noise_kind == "rademacher":
        draws = gen.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0
    else:
        draws = gen.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=shape)
    path = np.full(cfg.horizon + 1, np.nan)
    x = path[0] = cfg.x0[0]
    for k, (eps, *om) in enumerate(draws):
        x = x * a + eps * sx + (abs(x) * eps) * sbar + sum(o * s for o, s in zip(om, sg))
        if not abs(x) <= sim.OVERFLOW_LIMIT:
            return path, k + 1
        path[k + 1] = x
    return path, None


class TestReproducibility:
    PATHS = (0, 1, sim.PATH_BLOCK - 1, sim.PATH_BLOCK, sim.PATH_BLOCK + 1)

    @pytest.fixture
    def split_stages(self, monkeypatch):
        # Seven stages per block for n + r = 2, so every horizon below splits.
        monkeypatch.setattr(sim, "STAGE_BLOCK_ELEMENTS", sim.PATH_BLOCK * 2 * 7)

    @pytest.mark.parametrize("kind", ["gaussian", "rademacher", "uniform"])
    def test_paths_follow_the_stream_contract(self, scalar_model, split_stages, kind):
        cfg = SimConfig(n_paths=sim.PATH_BLOCK + 2, horizon=30, seed=2**64 - 5,
                        noise_kind=kind, x0=[1.0])
        assert sim._stage_block_size(cfg.horizon, 2) < cfg.horizon
        ens = simulate_paths(scalar_model, cfg)
        for j in self.PATHS:
            path, stage = oracle_path(scalar_model, cfg, j)
            assert stage is None
            assert np.array_equal(ens.X[j, :, 0], path), j

    def test_abort_bookkeeping_follows_the_stream_contract(self, split_stages):
        cfg = SimConfig(n_paths=9_000, horizon=120, seed=89, x0=[1.0])
        ens = simulate_paths(explosive_model(), cfg)
        assert 0 < ens.n_ok < 9_000
        stages = dict(ens.aborted)
        for j in self.PATHS:
            path, stage = oracle_path(explosive_model(), cfg, j)
            assert np.array_equal(ens.X[j, :, 0], path, equal_nan=True), j
            assert stages.get(j) == stage
            assert ens.ok[j] == (stage is None)
        assert any(j in stages for j in self.PATHS)
        again = simulate_paths(explosive_model(), cfg)
        assert np.array_equal(ens.X, again.X, equal_nan=True)
        assert np.array_equal(ens.ok, again.ok)
        assert ens.aborted == again.aborted

    def test_one_generator_per_run(self, scalar_model, monkeypatch):
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(args)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        simulate_paths(scalar_model, SimConfig(n_paths=2 * sim.PATH_BLOCK + 5,
                                               horizon=3, seed=1))
        assert len(built) == 1

    def test_identical_configs_give_identical_ensembles(self, scalar_model):
        cfg = SimConfig(n_paths=500, horizon=25, seed=3, x0=[1.0])
        a = simulate_paths(scalar_model, cfg)
        b = simulate_paths(scalar_model, cfg)
        assert np.array_equal(a.X, b.X)

    def test_path_prefix_stable_under_ensemble_growth(self, scalar_model):
        small = simulate_paths(
            scalar_model, SimConfig(n_paths=120, horizon=40, seed=42, x0=[1.0])
        )
        big = simulate_paths(
            scalar_model, SimConfig(n_paths=6_000, horizon=40, seed=42, x0=[1.0])
        )
        assert np.array_equal(big.X[:120], small.X)

    @pytest.mark.parametrize("kind", ["gaussian", "rademacher", "uniform"])
    def test_stage_block_partition_does_not_affect_draws(self, monkeypatch,
                                                         scalar_model, kind):
        cfg = SimConfig(n_paths=300, horizon=37, seed=11, noise_kind=kind,
                        x0=[1.0])
        reference = simulate_paths(scalar_model, cfg).X
        monkeypatch.setattr(sim, "STAGE_BLOCK_ELEMENTS", sim.PATH_BLOCK * 2 * 5)
        split = simulate_paths(scalar_model, cfg).X
        assert np.array_equal(reference, split)

    @pytest.mark.parametrize("kind", ["gaussian", "rademacher", "uniform"])
    def test_stage_block_partition_does_not_affect_draws_at_n3(self, monkeypatch, kind):
        # n + r = 5 and three stages per block: 15 draws, an odd count, so
        # every other Rademacher stage block opens on a carried half word.
        model = CsviuModel(n=3, r=2, p=1, m=0,
                           A=[[0.5, 0.125, 0.0], [0.0, 0.25, 0.125], [0.125, 0.0, 0.375]],
                           sigma_x=0.125 * np.eye(3), sigma_bar_x=0.25 * np.eye(3),
                           sigma=[[0.25, 0.0], [0.0, 0.5], [0.125, 0.25]], C=[[1.0, 0.0, 0.0]])
        cfg = SimConfig(n_paths=sim.PATH_BLOCK + 7, horizon=37, seed=11, noise_kind=kind,
                        x0=[1.0, -0.5, 0.25])
        reference = simulate_paths(model, cfg).X
        monkeypatch.setattr(sim, "STAGE_BLOCK_ELEMENTS", sim.PATH_BLOCK * 5 * 3)
        assert sim._stage_block_size(cfg.horizon, 5) == 3
        split = simulate_paths(model, cfg).X
        assert np.array_equal(reference, split)

    def test_noise_kinds_produce_distinct_ensembles(self, scalar_model):
        runs = {
            kind: simulate_paths(
                scalar_model,
                SimConfig(n_paths=50, horizon=10, seed=1, noise_kind=kind,
                          x0=[1.0]),
            ).X
            for kind in ("gaussian", "rademacher", "uniform")
        }
        assert not np.array_equal(runs["gaussian"], runs["rademacher"])
        assert not np.array_equal(runs["gaussian"], runs["uniform"])


def rademacher_oracle(seed, j, count):
    """Path j's first ``count`` sign bytes: numpy's integers(0, 2) in one call."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, j], dtype=np.uint64)))
    return gen.integers(0, 2, size=count)


class TestRademacherDraws:
    """Rademacher sign bytes read from the raw Philox words equal numpy's
    Generator.integers(0, 2) bit for bit, however the draws are split."""

    @pytest.mark.parametrize("j", [0, 2**40])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("count", [1, 2, 3, 1000, 1001])
    def test_bulk_fill_matches_generator_integers(self, count, seed, j):
        paths = sim.SIGN_GROUP + 3
        out = np.empty((paths, count), dtype=np.uint8)
        sim._PathStreams(seed, j, paths, "rademacher", count).draw(out, last=True)
        for i in range(paths):
            assert np.array_equal(out[i], rademacher_oracle(seed, j + i, count)), i

    @pytest.mark.parametrize("pieces", [(1, 1, 1), (3, 4, 5), (2, 3, 3, 1), (7, 1000, 1001)])
    def test_split_draws_carry_the_half_word(self, pieces):
        paths, total = sim.SIGN_GROUP + 1, sum(pieces)
        out = np.empty((paths, total), dtype=np.uint8)
        streams = sim._PathStreams(2**64 - 1, 5, paths, "rademacher", max(pieces))
        c = 0
        for m, piece in enumerate(pieces):
            streams.draw(out[:, c : c + piece], last=m == len(pieces) - 1)
            c += piece
        for i in range(paths):
            assert np.array_equal(out[i], rademacher_oracle(2**64 - 1, 5 + i, total)), i

    @pytest.mark.parametrize("sb", [1, 5])
    def test_odd_width_odd_stage_blocks_follow_the_stream_contract(self, monkeypatch, sb):
        # n + r = 3 and an odd number of stages per block: every other
        # stage block starts on the half word its predecessor left.
        model = CsviuModel(n=1, r=2, p=1, m=0, A=[[0.5]], sigma_x=[[0.25]],
                           sigma_bar_x=[[0.375]], sigma=[[0.25, 0.5]], C=[[1.0]])
        monkeypatch.setattr(sim, "STAGE_BLOCK_ELEMENTS", sim.PATH_BLOCK * 3 * sb)
        cfg = SimConfig(n_paths=sim.PATH_BLOCK + 2, horizon=23, seed=2**64 - 5,
                        noise_kind="rademacher", x0=[1.0])
        assert sim._stage_block_size(cfg.horizon, 3) == sb
        ens = simulate_paths(model, cfg)
        for j in TestReproducibility.PATHS + (sim.SIGN_GROUP - 1, sim.SIGN_GROUP):
            path, stage = oracle_path(model, cfg, j)
            assert stage is None
            assert np.array_equal(ens.X[j, :, 0], path), j

    def test_rademacher_runs_never_call_generator_integers(self, scalar_model, monkeypatch):
        cfg = SimConfig(n_paths=sim.PATH_BLOCK + 3, horizon=9, seed=4,
                        noise_kind="rademacher", x0=[1.0])
        expected = [oracle_path(scalar_model, cfg, j)[0] for j in TestReproducibility.PATHS]

        class NoIntegers(np.random.Generator):
            def integers(self, *args, **kwargs):
                raise AssertionError("Rademacher draws went through Generator.integers")

        monkeypatch.setattr(np.random, "Generator", NoIntegers)
        monkeypatch.setattr(sim, "STAGE_BLOCK_ELEMENTS", sim.PATH_BLOCK * 2 * 4)
        ens = simulate_paths(scalar_model, cfg)
        for j, path in zip(TestReproducibility.PATHS, expected):
            assert np.array_equal(ens.X[j, :, 0], path), j


def odd_width_model():
    # n + r = 3: an odd stage count per stage block gives an odd draw count.
    return CsviuModel(n=1, r=2, p=1, m=0, A=[[0.5]], sigma_x=[[0.25]],
                      sigma_bar_x=[[0.375]], sigma=[[0.25, 0.5]], C=[[1.0]])


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children simulate_paths forks in this test, oldest first."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(sim.os, "fork", recording)
    return pids


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of CPUs this process may run on."""
    def set_cpus(count):
        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: set(range(count)))
    return set_cpus


class ChildPartial:
    """A sink's partial that counts its unpickled copies alive in this process, for a run in
    which a child simulates the odd path blocks."""

    alive = peak = 0

    def __init__(self, j0):
        self.j0 = j0

    def __setstate__(self, state):
        self.__dict__.update(state)
        ChildPartial.alive += 1
        ChildPartial.peak = max(ChildPartial.peak, ChildPartial.alive)

    def __del__(self):
        if self.j0 // sim.PATH_BLOCK % 2:
            ChildPartial.alive -= 1


def assert_same_bits_at_1_2_3(model, cfg, forks):
    """simulate_paths at threads 1, 2 and 3 gives the same X, ok and aborts; return the run at 1."""
    runs = {threads: simulate_paths(model, cfg, threads=threads) for threads in (1, 2, 3)}
    assert len(forks) == 0 + 1 + 2
    reference = runs[1]
    for threads in (2, 3):
        run = runs[threads]
        assert np.array_equal(run.X.view(np.uint64), reference.X.view(np.uint64)), threads
        assert np.array_equal(run.ok, reference.ok), threads
        assert run.aborted == reference.aborted, threads
    assert_no_children()
    return reference


@pytest.mark.usefixtures("hang_guard")
class TestDrawProcesses:
    """simulate_paths(threads=N) splits the path blocks over up to N
    processes: X, ok and the aborts are the same bits for every N, and no
    child outlives the call."""

    @pytest.mark.parametrize("make, sb, n_paths, horizon, kind", [
        # Five stages of three draws per stage block: the Rademacher half
        # word carries across stage blocks in every process; the last path
        # block has two paths.
        (odd_width_model, 5, 2 * sim.PATH_BLOCK + 2, 23, "gaussian"),
        (odd_width_model, 5, 2 * sim.PATH_BLOCK + 2, 23, "rademacher"),
        (odd_width_model, 5, 2 * sim.PATH_BLOCK + 2, 23, "uniform"),
        (explosive_model, 7, 2 * sim.PATH_BLOCK + 50, 110, "gaussian"),
    ])
    def test_split_keeps_every_bit(self, monkeypatch, cpus, forks, make, sb, n_paths,
                                   horizon, kind):
        model = make()
        width = model.n + model.r
        monkeypatch.setattr(sim, "STAGE_BLOCK_ELEMENTS", sim.PATH_BLOCK * width * sb)
        assert sim._stage_block_size(horizon, width) == sb < horizon
        cpus(4)
        cfg = SimConfig(n_paths=n_paths, horizon=horizon, seed=2**64 - 5, noise_kind=kind,
                        x0=[1.0])
        reference = assert_same_bits_at_1_2_3(model, cfg, forks)
        if make is explosive_model:
            assert {j // sim.PATH_BLOCK for j, _ in reference.aborted} == {0, 1, 2}

    @pytest.mark.parametrize("kind", ["gaussian", "rademacher", "uniform"])
    @pytest.mark.parametrize("case", ["stage-blocks", "short-last-block", "aborts"])
    def test_blocks_dealt_round_keep_every_bit(self, monkeypatch, cpus, forks, case, kind):
        # Process b mod N runs path block b, one after another in its own
        # buffers: across several stage blocks of odd draw counts, into a
        # last block smaller than half a block, and with aborts in both
        # halves of every block.
        block, half = sim.PATH_BLOCK, sim.PATH_BLOCK // 2
        model, sb, n_paths, horizon = {
            "stage-blocks": (odd_width_model(), 5, 3 * block + 2, 23),
            "short-last-block": (odd_width_model(), None, 2 * block + half - 1, 23),
            "aborts": (explosive_model(), 7, 3 * block, 110),
        }[case]
        width = model.n + model.r
        if sb is not None:
            monkeypatch.setattr(sim, "STAGE_BLOCK_ELEMENTS", block * width * sb)
        assert (sim._stage_block_size(horizon, width) < horizon) == (sb is not None)
        cpus(4)
        cfg = SimConfig(n_paths=n_paths, horizon=horizon, seed=17, noise_kind=kind, x0=[1.0])
        reference = assert_same_bits_at_1_2_3(model, cfg, forks)
        if case == "aborts":
            rows = {(j // block, j % block < half) for j, _ in reference.aborted}
            assert {(b, h) for b in range(3) for h in (True, False)} <= rows

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("make, sb, kind", [
        # n + r = 3 and five stages per stage block: 15 draws, so the
        # Rademacher half word carries across every other stage block.
        (odd_width_model, 5, "rademacher"),
        # Twelve stages per stage block: the horizon spans two of them.
        (scalar_variant, 12, "gaussian"),
        (scalar_variant, 12, "uniform"),
    ])
    def test_group_seams_follow_the_stream_contract(self, monkeypatch, cpus, forks, make, sb,
                                                    kind, threads):
        # Groups of 100 paths, which divide neither the first path block
        # (4096 paths, in the caller) nor the last (1808, in the child at
        # two processes): the paths on either side of every group seam
        # draw the streams of a fresh Philox(key=(seed, j)).
        model, group = make(), 100
        width = model.n + model.r
        monkeypatch.setattr(sim, "STAGE_BLOCK_ELEMENTS", sim.PATH_BLOCK * width * sb)
        itemsize = 1 if kind == "rademacher" else 8
        monkeypatch.setattr(sim, "GROUP_BYTES", group * sb * width * itemsize)
        cpus(2)
        cfg = SimConfig(n_paths=sim.PATH_BLOCK + 1808, horizon=23, seed=2**64 - 5,
                        noise_kind=kind, x0=[1.0])
        assert sim._stage_block_size(cfg.horizon, width) == sb < cfg.horizon
        assert sim._NoiseBlocks(model, cfg, 1).group == group
        ens = simulate_paths(model, cfg, threads=threads)
        assert len(forks) == threads - 1
        # Each group's first and last path, and the block's last.
        seams = [j0 + i for j0, bp in ((0, sim.PATH_BLOCK), (sim.PATH_BLOCK, 1808))
                 for i in range(bp) if i % group in (0, group - 1) or i == bp - 1]
        assert len(seams) == (41 + 40 + 1) + (19 + 18 + 1)
        for j in seams:
            path, stage = oracle_path(model, cfg, j)
            assert stage is None
            assert np.array_equal(ens.X[j, :, 0], path), j
        assert_no_children()

    @pytest.mark.parametrize("count, threads, n_paths, children", [
        (3, 1000, 5 * sim.PATH_BLOCK, 2),  # one process per CPU
        (3, 1000, sim.PATH_BLOCK + 1, 1),  # one per path block
        (3, 1000, sim.PATH_BLOCK, 0),  # one path block: nothing to split
        (1, 2, 3 * sim.PATH_BLOCK, 0),
        (3, 1, 3 * sim.PATH_BLOCK, 0),
    ])
    def test_processes_are_capped(self, scalar_model, cpus, forks, count, threads,
                                  n_paths, children):
        cpus(count)
        cfg = SimConfig(n_paths=n_paths, horizon=3, seed=1, x0=[1.0])
        reference = simulate_paths(scalar_model, cfg).X
        assert forks == []
        assert np.array_equal(simulate_paths(scalar_model, cfg, threads=threads).X, reference)
        assert len(forks) == children
        assert_no_children()

    def test_without_fork_the_run_is_serial(self, scalar_model, monkeypatch):
        cfg = SimConfig(n_paths=sim.PATH_BLOCK + 300, horizon=5, seed=2, x0=[1.0])
        reference = simulate_paths(scalar_model, cfg).X
        monkeypatch.delattr(sim.os, "fork")
        assert np.array_equal(simulate_paths(scalar_model, cfg, threads=2).X, reference)

    @pytest.mark.parametrize("threads", [0, -1, 1.5])
    def test_threads_must_be_a_positive_integer(self, scalar_model, threads):
        cfg = SimConfig(n_paths=4, horizon=2, seed=0)
        with pytest.raises(ValueError, match="threads"):
            simulate_paths(scalar_model, cfg, threads=threads)

    @pytest.mark.parametrize("threads, children", [(1, 0), (2, 1)])
    def test_every_process_runs_blas_on_one_thread_beside_children(
            self, scalar_model, monkeypatch, cpus, forks, threads, children):
        # Block 0 runs in the caller and block 1 in the child, if any; each
        # reports the thread count its process had set.
        counts = [4]

        class Probe:
            seen = []

            def add_block(self, j0, X, ok):
                return counts[-1]

            def merge(self, threads):
                self.seen.append(threads)

            def close(self):
                self.seen.append(counts[-1])

        monkeypatch.setattr(sim, "_openblas", lambda: (counts.append, lambda: counts[-1]))
        cpus(2)
        cfg = SimConfig(n_paths=2 * sim.PATH_BLOCK, horizon=4, seed=3)
        simulate_paths(scalar_model, cfg, [Probe()], threads=threads)
        assert len(forks) == children
        assert Probe.seen == ([1, 1, 4] if children else [4, 4, 4])
        assert counts[-1] == 4

    def test_blas_without_thread_controls(self, scalar_model, monkeypatch, cpus, forks):
        cfg = SimConfig(n_paths=sim.PATH_BLOCK + 300, horizon=5, seed=2, x0=[1.0])
        reference = simulate_paths(scalar_model, cfg).X
        monkeypatch.setattr(sim, "_openblas", lambda: None)
        cpus(2)
        assert np.array_equal(simulate_paths(scalar_model, cfg, threads=2).X, reference)
        assert len(forks) == 1

    @staticmethod
    def physical_memory(monkeypatch, nbytes):
        monkeypatch.setattr(sim.os, "sysconf",
                            {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": nbytes // 4096}.__getitem__)

        def forbidden():
            raise AssertionError("forked before the memory check")

        monkeypatch.setattr(sim.os, "fork", forbidden)

    def test_each_process_counts_its_noise_block(self, scalar_model, monkeypatch, cpus):
        # Two path blocks kept: X and one noise block fit, X and two do not.
        # The serial run goes ahead, and the run with a child, which draws
        # its own noise block, is refused before anything is forked.
        paths, horizon, width = 2 * sim.PATH_BLOCK, 200, 2
        ensemble = paths * (horizon + 1) * 8
        buffer = sim.PATH_BLOCK * sim._stage_block_size(horizon, width) * width * 8
        self.physical_memory(monkeypatch, ensemble + buffer * 3 // 2)
        cpus(2)
        cfg = SimConfig(n_paths=paths, horizon=horizon, seed=0, x0=[1.0])
        assert simulate_paths(scalar_model, cfg, threads=1).n_ok == paths
        with pytest.raises(ValueError, match="--paths or --horizon"):
            simulate_paths(scalar_model, cfg, threads=2)

    def test_refused_run_forks_nothing(self, scalar_model, monkeypatch, cpus):
        # Two path blocks streamed: each process holds STREAM_BLOCK_ARRAYS
        # blocks of X and one noise block, the caller the per-path results.
        # Memory for one process and a half: the serial run goes ahead, and
        # the run with a child is refused before anything is forked.
        paths, horizon, width = 2 * sim.PATH_BLOCK, 200, 2
        process = 8 * sim.PATH_BLOCK * ((horizon + 1) * sim.STREAM_BLOCK_ARRAYS
                                        + sim._stage_block_size(horizon, width) * width)
        self.physical_memory(monkeypatch,
                             process * 3 // 2 + 8 * sim.STREAM_PATH_DOUBLES * paths)
        cpus(2)
        cfg = SimConfig(n_paths=paths, horizon=horizon, seed=0, x0=[1.0])
        abel = sim.AbelSums(0.9, horizon)
        simulate_paths(scalar_model, cfg, [sim.PathFeed(np.eye(1), [abel])], threads=1)
        assert abel.result().n_paths == paths
        with pytest.raises(ValueError, match="--paths or --horizon"):
            simulate_paths(scalar_model, cfg, [sim.PathFeed(np.eye(1), [])], threads=2)

    def test_each_child_counts_two_blocks_of_partials(self, scalar_model, monkeypatch, cpus):
        # Memory for two processes and the per-path results, and one block
        # of X more: the caller may hold two of the child's partials, each
        # as large as a block of X (the dump's is one), so the run is
        # refused before anything is forked.
        paths, horizon, width = 2 * sim.PATH_BLOCK, 200, 2
        block = 8 * sim.PATH_BLOCK * (horizon + 1)
        process = (sim.STREAM_BLOCK_ARRAYS * block
                   + 8 * sim.PATH_BLOCK * sim._stage_block_size(horizon, width) * width)
        self.physical_memory(monkeypatch,
                             2 * process + block + 8 * sim.STREAM_PATH_DOUBLES * paths)
        cpus(2)
        cfg = SimConfig(n_paths=paths, horizon=horizon, seed=0, x0=[1.0])
        with pytest.raises(ValueError, match="--paths or --horizon"):
            simulate_paths(scalar_model, cfg, [sim.PathFeed(np.eye(1), [])], threads=2)

    def test_the_caller_holds_one_partial_per_child(self, scalar_model, cpus, forks):
        # The child runs far ahead of a slow merge; each of its results is
        # read from its pipe only when the merge needs it, so one is alive here.
        ChildPartial.alive = ChildPartial.peak = 0
        merged = []

        class Slow:
            def add_block(self, j0, X, ok):
                return ChildPartial(j0)

            def merge(self, partial):
                time.sleep(0.05)
                merged.append(partial.j0)

            def close(self):
                pass

        cpus(2)
        cfg = SimConfig(n_paths=8 * sim.PATH_BLOCK, horizon=2, seed=1, x0=[1.0])
        simulate_paths(scalar_model, cfg, [Slow()], threads=2)
        assert len(forks) == 1
        assert merged == list(range(0, cfg.n_paths, sim.PATH_BLOCK))
        assert ChildPartial.peak == 1

    def test_large_partials_neither_deadlock_nor_start_threads(self, cpus, forks):
        # Two children run ahead of the caller with partials of a whole block
        # of X (3.6 MB, more than a pipe holds) and aborts in every block:
        # each child waits on its full pipe until the merge reads it, and no
        # process waits on one that waits on it.
        model = explosive_model()
        cfg = SimConfig(n_paths=6 * sim.PATH_BLOCK, horizon=110, seed=17, x0=[1.0])

        class Blocks:
            def __init__(self):
                self.merged, self.threads = [], []

            def add_block(self, j0, X, ok):
                return j0, X.copy()

            def merge(self, partial):
                self.threads.append(threading.active_count())
                self.merged.append(partial)

            def close(self):
                pass

        cpus(4)
        runs = {}
        for threads in (1, 3):
            sink, before = Blocks(), threading.active_count()
            ensemble = simulate_paths(model, cfg, [sink], threads=threads)
            assert sink.threads == [before] * 6, threads
            runs[threads] = sink.merged, ensemble
        assert len(forks) == 2
        (serial, reference), (split, ensemble) = runs[1], runs[3]
        assert [j0 for j0, _ in split] == list(range(0, cfg.n_paths, sim.PATH_BLOCK))
        assert all(X.nbytes >= 2**20 for _, X in split)
        for (j0, X), (_, expected) in zip(split, serial):
            assert np.array_equal(X.view(np.uint64), expected.view(np.uint64)), j0
        assert {j // sim.PATH_BLOCK for j, _ in reference.aborted} == set(range(6))
        assert ensemble.aborted == reference.aborted
        assert np.array_equal(ensemble.ok, reference.ok)
        assert_no_children()

    def test_no_child_outlives_a_run(self, scalar_model, cpus, forks):
        cpus(2)
        feed = sim.PathFeed(np.eye(1), [sim.AbelSums(0.9, 4)])
        simulate_paths(scalar_model, SimConfig(n_paths=sim.PATH_BLOCK + 1, horizon=4, seed=3),
                       [feed], threads=2)
        assert len(forks) == 1
        assert_no_children()

    @pytest.mark.parametrize("failing", [sim.PATH_BLOCK, 0])
    def test_no_child_outlives_a_failing_sink(self, scalar_model, cpus, forks, failing):
        # The sink fails on the child's block 1 or on the caller's block 0:
        # the caller raises the sink's own exception either way.
        class Failing:
            def add_block(self, j0, X, ok):
                if j0 == failing:
                    raise LookupError(f"the sink failed at path {j0}")

            def merge(self, partial):
                pass

            def close(self):
                pass

        cpus(2)
        cfg = SimConfig(n_paths=3 * sim.PATH_BLOCK, horizon=4, seed=3)
        with pytest.raises(LookupError, match=f"^the sink failed at path {failing}$") as info:
            simulate_paths(scalar_model, cfg, [Failing()], threads=2)
        assert info.type is LookupError
        assert len(forks) == 1
        assert_no_children()

    def test_a_killed_child_fails_the_run(self, scalar_model, monkeypatch, cpus, forks):
        # The child's loop dies before it sends its first block; waiting
        # for block 1 must raise, not hang, and the dead child is reaped.
        def dying(results, fd):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(sim, "_child", dying)
        cpus(2)
        cfg = SimConfig(n_paths=3 * sim.PATH_BLOCK, horizon=4, seed=3)
        with pytest.raises(ChildProcessError, match="exited mid-run"):
            simulate_paths(scalar_model, cfg, [sim.PathFeed(np.eye(1), [])], threads=2)
        assert len(forks) == 1
        assert_no_children()


def plain_recursion(model, cfg, noise):
    """X, ok and aborts of paths 0, 1, ... by plain @ products in the step's order, stage k's
    noise being the pair (eps_k, w_k) = noise[k]; an aborted path is NaN from its abort on and
    steps from 0."""
    n = model.n
    At, Bt, Sxt, Sbt, Sgt = (M.T.copy() for M in (model.A, model.B, model.sigma_x,
                                                   model.sigma_bar_x, model.sigma))
    paths = noise[0][0].shape[0]
    X = np.empty((cfg.horizon + 1, paths, n))
    x = X[0] = np.tile(cfg.x0, (paths, 1))
    ok, aborted = np.ones(paths, dtype=bool), []
    for k, (eps, om) in enumerate(noise):
        ell = cfg.input_policy.inputs(k, x)
        xn = x @ At + ell @ Bt + eps @ Sxt + (np.abs(x) * eps) @ Sbt + om @ Sgt
        bad = ok & ~(np.abs(xn) <= sim.OVERFLOW_LIMIT).all(axis=1)
        aborted += [(int(i), k + 1) for i in np.flatnonzero(bad)]
        ok &= ~bad
        X[k + 1] = np.where(ok[:, None], xn, np.nan)
        x = np.where(ok[:, None], xn, 0.0)
    return X, ok, aborted


class TestStep:
    """The CSVIU step alone, driven by a fixed noise array instead of the RNG."""

    def test_step_matches_the_plain_recursion_bit_for_bit(self):
        model = CsviuModel(n=3, r=2, p=1, m=1,
                           A=[[0.5, 0.125, -0.25], [0.0, 0.25, 0.125], [0.125, -0.5, 0.375]],
                           sigma_x=[[0.125, 0.0, 0.5], [0.25, 0.125, 0.0], [0.0, 0.5, 0.25]],
                           sigma_bar_x=[[0.25, 0.5, 0.0], [0.0, 0.25, 0.125], [0.5, 0.0, 0.25]],
                           sigma=[[0.25, 0.125], [-0.5, 0.5], [0.125, 0.25]],
                           C=[[1.0, 0.0, 0.0]], B=[[0.5], [-0.25], [0.75]], D=[[0.0]])
        paths, horizon = 37, 12
        cfg = SimConfig(n_paths=paths, horizon=horizon, seed=0, x0=[1.0, -0.5, 0.25],
                        input_policy=ConstantInput([0.5]))
        rng = np.random.default_rng(5)
        noise = [(rng.standard_normal((paths, model.n)), rng.standard_normal((paths, model.r)))
                 for _ in range(horizon)]
        noise[4][0][9, 0] = 1e200  # path 9 overflows at stage 5
        X, aborted = np.empty((horizon + 1, paths, model.n)), []
        ok = sim._simulate_block(model, cfg, X, iter(noise), aborted, 0)
        X_ref, ok_ref, aborted_ref = plain_recursion(model, cfg, noise)
        assert aborted == aborted_ref == [(9, 5)]
        assert np.array_equal(ok, ok_ref)
        assert np.array_equal(X.view(np.uint64), X_ref.view(np.uint64))


class TestNoiseValidity:
    """Each noise kind must be zero-mean with identity joint covariance;
    tested on 1e6 effective draws (A = 0 makes every stage a fresh draw)."""

    KINDS = ("gaussian", "rademacher", "uniform")

    @pytest.mark.parametrize("kind", KINDS)
    def test_state_noise_zero_mean_unit_variance(self, kind):
        model = scalar_variant(a=0.0, sx=1.0, sbar=0.0, sg=0.0)
        cfg = SimConfig(n_paths=250_000, horizon=4, seed=123, noise_kind=kind)
        draws = simulate_paths(model, cfg).X[:, 1:, 0].ravel()
        assert draws.size == 1_000_000
        se_mean = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean()) <= 4 * se_mean
        sq = draws * draws
        if kind == "rademacher":
            assert np.all(sq == 1.0)
        else:
            se_sq = sq.std(ddof=1) / np.sqrt(sq.size)
            assert abs(sq.mean() - 1.0) <= 4 * se_sq
        if kind == "uniform":
            assert np.all(np.abs(draws) <= np.sqrt(3.0) + 1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_state_and_additive_noise_are_uncorrelated(self, kind):
        # x1 = eps + omega, so E[x1^2] = 2 exactly when the two streams
        # are independent (and 4 if they were accidentally shared).
        model = scalar_variant(a=0.0, sx=1.0, sbar=0.0, sg=1.0)
        cfg = SimConfig(n_paths=250_000, horizon=4, seed=321, noise_kind=kind)
        draws = simulate_paths(model, cfg).X[:, 1:, 0].ravel()
        sq = draws * draws
        se_sq = sq.std(ddof=1) / np.sqrt(sq.size)
        assert abs(sq.mean() - 2.0) <= 4 * se_sq


class TestTrajectoryDynamics:
    def test_zero_noise_scalar_is_exact_power_sequence(self):
        cfg = SimConfig(n_paths=5, horizon=30, seed=0, x0=[1.0])
        ens = simulate_paths(zero_noise_scalar(), cfg)
        expected = 0.5 ** np.arange(31)
        assert np.array_equal(ens.X[:, :, 0], np.tile(expected, (5, 1)))
        assert ens.aborted == []
        assert ens.ok.all()

    def test_zero_noise_matrix_dynamics_follow_power_iteration(self):
        model = CsviuModel(
            n=2, r=2, p=2, m=0,
            A=[[0.9, 0.1], [0.0, 0.8]],
            sigma_x=np.zeros((2, 2)), sigma_bar_x=np.zeros((2, 2)),
            sigma=np.zeros((2, 2)), C=np.eye(2),
        )
        cfg = SimConfig(n_paths=3, horizon=20, seed=0, x0=[1.0, -1.0])
        ens = simulate_paths(model, cfg)
        A = np.array(model.A)
        state = np.array([1.0, -1.0])
        for k in range(21):
            assert np.allclose(ens.X[0, k], state, rtol=1e-12, atol=1e-15)
            state = A @ state

    def test_constant_input_drives_affine_recursion(self):
        model = CsviuModel(
            n=1, r=1, p=1, m=1, A=[[0.5]], B=[[1.0]],
            sigma_x=[[0.0]], sigma_bar_x=[[0.0]], sigma=[[0.0]],
            C=[[1.0]], D=[[0.0]],
        )
        cfg = SimConfig(n_paths=2, horizon=40, seed=0, x0=[0.0],
                        input_policy=ConstantInput([0.7]))
        ens = simulate_paths(model, cfg)
        state, expected = 0.0, []
        for _ in range(41):
            expected.append(state)
            state = state * 0.5 + 0.7
        assert np.array_equal(ens.X[:, :, 0], np.tile(expected, (2, 1)))
        assert abs(ens.X[0, -1, 0] - 1.4) < 1e-9

    def test_ensemble_shape_properties(self, scalar_model):
        ens = simulate_paths(scalar_model,
                             SimConfig(n_paths=7, horizon=9, seed=2, x0=[1.0]))
        assert ens.X.shape == (7, 10, 1)
        assert ens.n_paths == 7
        assert ens.horizon == 9
        assert ens.n_ok == 7
        assert ens.ok.dtype == bool


class TestEstimatorConventions:
    """Zero-noise models make every estimator value an exact dyadic sum."""

    def test_abel_sum_includes_terminal_stage(self):
        cfg = SimConfig(n_paths=8, horizon=1, seed=0, x0=[1.0])
        ens = simulate_paths(zero_noise_scalar(), cfg)
        est = estimate_abel_energy(ens, Q1, 1.0)
        assert est.value == 1.25
        assert est.std_error == 0.0
        assert est.n_paths == 8
        assert "abel" in est.kind

    def test_cesaro_mean_excludes_terminal_stage(self):
        cfg = SimConfig(n_paths=8, horizon=1, seed=0, x0=[1.0])
        ens = simulate_paths(zero_noise_scalar(), cfg)
        est = estimate_cesaro_power(ens, Q1)
        assert est.value == 1.0
        assert est.std_error == 0.0
        assert "cesaro" in est.kind

    def test_abel_geometric_series_is_exact(self):
        cfg = SimConfig(n_paths=8, horizon=4, seed=0, x0=[1.0])
        ens = simulate_paths(zero_noise_scalar(), cfg)
        est = estimate_abel_energy(ens, Q1, 0.5)
        assert est.value == sum(0.125**k for k in range(5))

    def test_cesaro_average_is_exact(self):
        cfg = SimConfig(n_paths=8, horizon=4, seed=0, x0=[1.0])
        ens = simulate_paths(zero_noise_scalar(), cfg)
        est = estimate_cesaro_power(ens, Q1)
        assert est.value == (1.0 + 0.25 + 0.0625 + 0.015625) / 4.0

    def test_single_deterministic_term_has_zero_std_error(self):
        cfg = SimConfig(n_paths=8, horizon=1, seed=0, x0=[3.0])
        ens = simulate_paths(zero_noise_scalar(a=0.0), cfg)
        est = estimate_abel_energy(ens, Q1, 1.0)
        assert est.value == 9.0
        assert est.std_error == 0.0

    def test_zero_noise_zero_start_gives_zero_energy(self):
        cfg = SimConfig(n_paths=8, horizon=10, seed=0, x0=[0.0])
        ens = simulate_paths(zero_noise_scalar(), cfg)
        assert estimate_abel_energy(ens, Q1, 0.9).value == 0.0
        assert estimate_cesaro_power(ens, Q1).value == 0.0

    def test_abel_requires_positive_alpha(self, scalar_model):
        ens = simulate_paths(scalar_model,
                             SimConfig(n_paths=4, horizon=2, seed=0, x0=[1.0]))
        with pytest.raises(ValueError, match="alpha"):
            estimate_abel_energy(ens, Q1, 0.0)
        with pytest.raises(ValueError, match="alpha"):
            estimate_abel_energy(ens, Q1, -0.5)


class TestEstimatorAccuracy:
    def test_one_step_variance(self, scalar_model):
        cfg = SimConfig(n_paths=100_000, horizon=1, seed=77, x0=[0.0])
        means, ses = per_stage_energy(simulate_paths(scalar_model, cfg), Q1)
        assert means[0] == 0.0
        assert ses[1] > 0.0
        assert abs(means[1] - 0.05) <= 4 * ses[1]

    @pytest.mark.parametrize("with_aborts", [False, True])
    def test_chunked_std_errors_match_two_pass(self, scalar_model, with_aborts):
        # more paths than one estimator chunk, so the chunk merge is exercised
        cfg = SimConfig(n_paths=2 * sim.PATH_BLOCK + 900, horizon=6, seed=19,
                        x0=[3.0])
        ens = simulate_paths(scalar_model, cfg)
        if with_aborts:
            ens.ok[::7] = False
            ens.X[~ens.ok, 3:] = np.nan
        means, ses = per_stage_energy(ens, Q1)
        q = ens.X[ens.ok, :, 0] ** 2
        expect = q.std(axis=0, ddof=1) / np.sqrt(q.shape[0])
        assert means == pytest.approx(q.mean(axis=0), rel=1e-12)
        assert ses[1:] == pytest.approx(expect[1:], rel=1e-12)
        assert ses[0] == 0.0

    def test_stage_zero_is_exact(self):
        # Every path starts at x0: the stage-0 mean is x0^T Q x0 itself, not
        # a sum of 4101 equal values that rounds, and its standard error 0.
        model = CsviuModel(n=3, r=2, p=1, m=0,
                           A=[[0.5, 0.125, 0.0], [0.0, 0.25, 0.125], [0.125, 0.0, 0.375]],
                           sigma_x=0.125 * np.eye(3), sigma_bar_x=0.25 * np.eye(3),
                           sigma=[[0.25, 0.0], [0.0, 0.5], [0.125, 0.25]], C=[[1.0, 0.0, 0.0]])
        x0 = np.array([0.1, -0.7, 0.3])
        Q = [[2.0, 0.3, 0.0], [0.3, 1.1, 0.2], [0.0, 0.2, 0.7]]
        cfg = SimConfig(n_paths=sim.PATH_BLOCK + 5, horizon=2, seed=5, x0=x0)
        means, ses = per_stage_energy(simulate_paths(model, cfg), Q)
        assert means[0] == x0 @ np.array(Q) @ x0
        assert ses[0] == 0.0
        assert ses[1] > 0.0

    def test_iid_unit_variance_long_run_average(self):
        model = scalar_variant(a=0.0, sx=0.0, sbar=0.0, sg=1.0)
        cfg = SimConfig(n_paths=20_000, horizon=20, seed=83, x0=[0.0])
        est = estimate_cesaro_power(simulate_paths(model, cfg), Q1)
        # The exclusive mean carries the deterministic x0 = 0 stage, so the
        # exact target is (kappa-1)/kappa rather than the unit variance.
        assert abs(est.value - 19.0 / 20.0) <= 3 * est.std_error

    def test_std_error_shrinks_with_ensemble_doubling(self, scalar_model):
        half = simulate_paths(scalar_model,
                              SimConfig(n_paths=2_000, horizon=30, seed=5,
                                        x0=[1.0]))
        full = simulate_paths(scalar_model,
                              SimConfig(n_paths=4_000, horizon=30, seed=5,
                                        x0=[1.0]))
        e_half = estimate_abel_energy(half, Q1, 0.9)
        e_full = estimate_abel_energy(full, Q1, 0.9)
        ratio = e_half.std_error / e_full.std_error
        assert 1.2 <= ratio <= 1.7


class TestEstimatorConsistency:
    """On the scalar variants whose second-moment recursion closes exactly,
    both estimators must track the recursion within Monte Carlo error."""

    @pytest.mark.parametrize("fixture",
                             ["scalar_model_no_sigma_x",
                              "scalar_model_no_sigma_bar"])
    def test_single_ensemble_matches_recursion(self, request, fixture):
        model = request.getfixturevalue(fixture)
        m = exact_second_moments(model, 1.0, 40)
        cfg = SimConfig(n_paths=20_000, horizon=40, seed=31, x0=[1.0])
        ens = simulate_paths(model, cfg)
        abel = estimate_abel_energy(ens, Q1, 0.9)
        abel_truth = float(0.9 ** np.arange(41) @ m)
        assert abs(abel.value - abel_truth) <= 3 * abel.std_error
        cesaro = estimate_cesaro_power(ens, Q1)
        cesaro_truth = float(m[:40].mean())
        assert abs(cesaro.value - cesaro_truth) <= 3 * cesaro.std_error

    def test_three_sigma_coverage_over_repetitions(self,
                                                   scalar_model_no_sigma_bar):
        model = scalar_model_no_sigma_bar
        m = exact_second_moments(model, 1.0, 30)
        abel_truth = float(0.9 ** np.arange(31) @ m)
        cesaro_truth = float(m[:30].mean())
        in_abel = in_cesaro = 0
        for i in range(100):
            cfg = SimConfig(n_paths=1_500, horizon=30, seed=9_000 + i,
                            x0=[1.0])
            ens = simulate_paths(model, cfg)
            abel = estimate_abel_energy(ens, Q1, 0.9)
            cesaro = estimate_cesaro_power(ens, Q1)
            in_abel += abs(abel.value - abel_truth) <= 3 * abel.std_error
            in_cesaro += abs(cesaro.value - cesaro_truth) <= 3 * cesaro.std_error
        assert in_abel >= 99
        assert in_cesaro >= 99


class TestOverflowHandling:
    def test_partial_aborts_are_recorded_per_path(self):
        cfg = SimConfig(n_paths=500, horizon=120, seed=7, x0=[1.0])
        ens = simulate_paths(explosive_model(), cfg)
        assert 0 < ens.n_ok < 500
        assert len(ens.aborted) == 500 - ens.n_ok
        paths = [j for j, _ in ens.aborted]
        assert len(set(paths)) == len(paths)
        for j, k in ens.aborted:
            assert 1 <= k <= 120
            assert not ens.ok[j]
            assert np.isnan(ens.X[j, k:]).all()
            assert np.isfinite(ens.X[j, :k]).all()

    def test_estimators_use_surviving_paths_only(self):
        cfg = SimConfig(n_paths=500, horizon=120, seed=7, x0=[1.0])
        ens = simulate_paths(explosive_model(), cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            abel = estimate_abel_energy(ens, Q1, 0.5)
            means, ses = per_stage_energy(ens, Q1)
        assert abel.n_paths == ens.n_ok
        assert np.isfinite(abel.value)
        assert np.isfinite(means).all()
        assert not np.isnan(ses).any()

    def test_fully_aborted_ensemble_fails_representation_check(self):
        cfg = SimConfig(n_paths=50, horizon=130, seed=13, x0=[1.0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="all paths aborted"):
                validate_representation(simulate_paths(explosive_model(), cfg), 0.01, Q1)

    def test_fully_aborted_ensemble_has_no_stage_moments(self):
        cfg = SimConfig(n_paths=50, horizon=130, seed=13, x0=[1.0])
        with np.errstate(over="ignore", invalid="ignore"):
            ens = simulate_paths(explosive_model(), cfg)
        assert ens.n_ok == 0
        means, ses = per_stage_energy(ens, Q1)
        assert np.isnan(means).all() and np.isnan(ses).all()


class Spikes(InputPolicy):
    """Zero inputs, but for the values set at chosen (stage, path) entries."""

    def __init__(self, spikes):
        self.spikes = spikes

    def inputs(self, k, x):
        ell = np.zeros((x.shape[0], 1))
        for (stage, j), value in self.spikes.items():
            if stage == k:
                ell[j, 0] = value
        return ell


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestStepProducts:
    """The step loop's products and its overflow guard give the bits of the plain rules."""

    @staticmethod
    def operands(shape, seed):
        # Signed zeros, infinities, NaN, subnormals and large values among normals.
        values = np.random.default_rng(seed).standard_normal(shape)
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e200, 1e150]
        values.flat[: len(specials)] = specials
        return values

    @pytest.mark.parametrize("left, right", [
        ((4096, 1), (1, 1)),  # n = 1: A, sigma_x, sigma_bar_x, and sigma with r = 1
        ((4096, 1), (1, 3)),  # an m = 1 input into n = 3, or r = 1 into n = 3
        # inner dimension above 1, where a broadcast would not even fit:
        ((4096, 2), (2, 1)),  # n = 1 with r = 2
        ((4096, 3), (3, 3)),
    ])
    @np.errstate(over="ignore", invalid="ignore")
    def test_products_equal_matmul_bit_for_bit(self, left, right):
        a, b = self.operands(left, 1), self.operands(right, 2)
        assert np.array_equal(bits(sim._matmul(a, b)), bits(a @ b))
        # the step's operands: a strided noise column and a broadcast input
        wide = self.operands((left[0], 3, left[1] + 1), 3)[:, 1, : left[1]]
        assert np.array_equal(bits(sim._matmul(wide, b)), bits(wide @ b))
        row = np.broadcast_to(self.operands(left[1], 4), left)
        assert np.array_equal(bits(sim._matmul(row, b)), bits(row @ b))

    MODEL = CsviuModel(n=2, r=2, p=2, m=1, A=[[0.5, 0.1], [0.0, 0.4]],
                       sigma_x=[[0.1, 0.0], [0.0, 0.1]], sigma_bar_x=[[0.2, 0.0], [0.1, 0.2]],
                       sigma=[[0.1, 0.0], [0.0, 0.1]], C=np.eye(2), B=[[1.0], [0.0]],
                       D=[[0.0], [0.0]])

    @pytest.mark.parametrize("spikes", [
        {(3, 17): np.nan},
        {(3, 17): -np.inf},
        {(3, 17): 1e151},
        # all three in one step, then a fourth once paths have aborted
        {(3, 5): np.nan, (3, 17): np.inf, (3, 30): -1e151, (6, 40): np.inf},
    ], ids=["nan", "inf", "1e151", "together"])
    def test_overflow_guard_follows_the_per_row_rule(self, spikes):
        cfg = dict(n_paths=64, horizon=10, seed=11, x0=[1.0, -1.0])
        ens = simulate_paths(self.MODEL, SimConfig(input_policy=Spikes(spikes), **cfg))
        clean = simulate_paths(self.MODEL, SimConfig(input_policy=Spikes({}), **cfg))
        assert clean.aborted == [] and np.isfinite(clean.X).all()
        # Per row: a path aborts at the first stage with a component that
        # is not within the limit, and is NaN from there on.
        expect = sorted(((j, k + 1) for k, j in spikes), key=lambda a: (a[1], a[0]))
        assert ens.aborted == expect
        ok = np.ones(64, dtype=bool)
        ok[[j for j, _ in expect]] = False
        assert np.array_equal(ens.ok, ok)
        for j, k in expect:
            assert np.isnan(ens.X[j, k:]).all()
            assert np.array_equal(bits(ens.X[j, :k]), bits(clean.X[j, :k]))
        assert np.array_equal(bits(ens.X[ok]), bits(clean.X[ok]))


class TestRepresentationCheck:
    REPORT_KEYS = {
        "lhs", "rhs", "gap", "std_error", "z", "n_paths",
        "sign_noise_term", "corrected_gap", "corrected_std_error",
    }

    @pytest.mark.parametrize("fixture",
                             ["scalar_model_no_sigma_x",
                              "scalar_model_no_sigma_bar"])
    def test_identity_holds_when_cross_operator_vanishes(self, request,
                                                         fixture):
        model = request.getfixturevalue(fixture)
        cfg = SimConfig(n_paths=20_000, horizon=30, seed=41, x0=[1.0])
        rep = validate_representation(simulate_paths(model, cfg), 0.9, Q1)
        assert set(rep) == self.REPORT_KEYS
        assert rep["n_paths"] == 20_000
        assert rep["z"] <= 3.0
        assert rep["sign_noise_term"] == 0.0
        assert rep["corrected_gap"] == rep["gap"]

    def test_identity_holds_with_constant_input(self):
        model = CsviuModel(
            n=2, r=2, p=2, m=1,
            A=[[0.4, 0.1], [0.0, 0.3]],
            sigma_x=0.2 * np.eye(2), sigma_bar_x=np.zeros((2, 2)),
            sigma=0.1 * np.eye(2), C=np.eye(2),
            B=[[1.0], [0.5]], D=np.zeros((2, 1)),
        )
        cfg = SimConfig(n_paths=20_000, horizon=25, seed=43, x0=[1.0, -0.5],
                        input_policy=ConstantInput([0.7]))
        rep = validate_representation(simulate_paths(model, cfg), 0.9, np.eye(2))
        assert rep["z"] <= 3.0

    def test_zero_noise_identity_is_exact(self):
        cfg = SimConfig(n_paths=8, horizon=10, seed=0, x0=[1.0])
        rep = validate_representation(simulate_paths(zero_noise_scalar(), cfg), 0.9, Q1)
        assert rep["gap"] <= 1e-12
        assert rep["std_error"] == 0.0
        assert abs(rep["lhs"] - rep["rhs"]) <= 1e-12

    def test_sign_noise_correction_restores_identity(self, scalar_model):
        # With both sigma_x and sigma_bar_x nonzero the raw identity is off
        # by the sign-noise cross term; adding its pathwise estimate must
        # bring the gap back inside Monte Carlo error.
        cfg = SimConfig(n_paths=30_000, horizon=12, seed=47, x0=[1.0])
        rep = validate_representation(simulate_paths(scalar_model, cfg), 0.9, Q1)
        assert rep["z"] > 10.0
        assert rep["sign_noise_term"] > 0.0
        assert rep["corrected_gap"] <= 3 * rep["corrected_std_error"]


class TestDecayCheck:
    ROW_KEYS = {"k", "energy", "std_error", "level", "bound", "violated"}

    @pytest.mark.parametrize("fixture",
                             ["scalar_model_no_sigma_x",
                              "scalar_model_no_sigma_bar"])
    def test_no_violations_on_exact_variants_above_one(self, request,
                                                       fixture):
        model = request.getfixturevalue(fixture)
        cfg = SimConfig(n_paths=30_000, horizon=50, seed=59, x0=[1.0])
        rows = check_decay(simulate_paths(model, cfg), 1.2)
        assert len(rows) == 51
        assert [row["k"] for row in rows] == list(range(51))
        assert set(rows[0]) == self.ROW_KEYS
        assert not any(row["violated"] for row in rows)
        L = solve_lyapunov(model, 1.2, Q1).L
        level = 1.2 * op_varpi(model, L)
        assert rows[0]["level"] == pytest.approx(level, rel=1e-12)
        report = norm_report(model, 1.2, Q1)
        for k in (0, 7, 50):
            expected = decay_bound(report, [1.0], k)
            assert rows[k]["bound"] == pytest.approx(expected, rel=1e-12)
        assert rows[1]["bound"] * 1.2 == pytest.approx(rows[0]["bound"],
                                                       rel=1e-12)

    @pytest.mark.parametrize("fixture, stationary",
                             [("scalar_model_no_sigma_x",
                               0.01 / (1.0 - 0.25 - 0.09)),
                              ("scalar_model_no_sigma_bar",
                               0.05 / (1.0 - 0.25))])
    def test_level_matches_stationary_moment_at_alpha_one(self, request,
                                                          fixture,
                                                          stationary):
        model = request.getfixturevalue(fixture)
        cfg = SimConfig(n_paths=30_000, horizon=60, seed=61, x0=[0.0])
        rows = check_decay(simulate_paths(model, cfg), 1.0)
        assert not any(row["violated"] for row in rows)
        assert rows[0]["level"] == pytest.approx(stationary, rel=1e-12)
        tail = rows[-1]
        assert abs(tail["energy"] - tail["level"]) <= 4 * tail["std_error"]

    def test_zero_noise_energies_exact_and_quiet(self):
        cfg = SimConfig(n_paths=4, horizon=20, seed=0, x0=[1.0])
        rows = check_decay(simulate_paths(zero_noise_scalar(), cfg), 1.2)
        for k, row in enumerate(rows):
            assert row["energy"] == 0.25**k
            assert row["std_error"] == 0.0
            assert row["level"] == 0.0
            assert not row["violated"]

    def test_unsolvable_alpha_propagates(self, scalar_model):
        cfg = SimConfig(n_paths=4, horizon=3, seed=0, x0=[1.0])
        with pytest.raises(NotStableError):
            check_decay(simulate_paths(scalar_model, cfg), 3.0)


class TestSecondMomentBounds:
    @pytest.mark.parametrize("fixture",
                             ["scalar_model_no_sigma_x",
                              "scalar_model_no_sigma_bar"])
    @pytest.mark.parametrize("alpha", [0.5, 0.9])
    def test_partial_sums_stay_within_envelope_below_one(self, request,
                                                         fixture, alpha):
        # |sum_{k<=kappa} alpha^k (E||x_k||_Q^2 - alpha varpi(L))| is
        # bounded by ||x0||_L^2 + <v_bar, |x0|> for alpha < 1; the bound is
        # saturated in the kappa -> infinity limit, so Monte Carlo slack is
        # part of the assertion.
        model = request.getfixturevalue(fixture)
        L = solve_lyapunov(model, alpha, Q1).L
        level = alpha * op_varpi(model, L)
        vb = v_bar_bound(model, alpha, L).primary
        cfg = SimConfig(n_paths=20_000, horizon=60, seed=67, x0=[1.0])
        est = estimate_abel_energy(simulate_paths(model, cfg), Q1, alpha)
        geometric = float(np.sum(alpha ** np.arange(61)))
        centered = est.value - level * geometric
        bound = float(L[0, 0]) + float(vb[0])
        assert abs(centered) <= bound + 3 * est.std_error

    def test_centered_second_moment_bounded_above_one(self, scalar_model):
        # E||x_k - xi||^2 <= c0 (1 + 2 alpha^{-k}) + c1 alpha^{-k} ||x0||^2
        # with c0 = lambda_max(L), c1 = alpha varpi(L)/(alpha - 1), and
        # xi = -1/2 L^{-1} v_bar.
        alpha = 1.2
        L = solve_lyapunov(scalar_model, alpha, Q1).L
        varpi_L = op_varpi(scalar_model, L)
        c0 = float(np.linalg.eigvalsh(L)[-1])
        c1 = alpha * varpi_L / (alpha - 1.0)
        vb = v_bar_bound(scalar_model, alpha, L).primary
        xi = -0.5 * np.linalg.solve(L, vb)
        cfg = SimConfig(n_paths=20_000, horizon=40, seed=71, x0=[1.0])
        ens = simulate_paths(scalar_model, cfg)
        deviations = ens.X[ens.ok] - xi
        sq = np.einsum("pki,pki->pk", deviations, deviations)
        means = sq.mean(axis=0)
        ses = sq.std(axis=0, ddof=1) / np.sqrt(sq.shape[0])
        ks = np.arange(41)
        bounds = c0 * (1.0 + 2.0 * alpha**-ks) + c1 * alpha**-ks
        assert np.all(means <= bounds + 3 * ses)
