"""Seeded Monte Carlo engine for CSVIU systems.

Trajectory sampling, energy/power estimators, pathwise evaluation of the
backward-recursion energy representation, and the per-stage decay check.

simulate_paths makes one pass over path blocks, each stage-major, of
shape (horizon+1, paths, n): the step loop writes stage k of every path
as one row X[k], and the reducers read it whole.  Each block is handed
to sinks and dropped; a PathFeed sink takes the block's surviving paths
(the block itself when none aborted), evaluates their quadratic forms
x_k^T Q x_k once, as (x_k Q) . x_k in chunks of Q_CHUNK paths, and
passes them to every reducer (Abel sums, Cesaro means, per-stage
statistics, the representation check), which return only per-path
scalars or per-stage sums.  The whole ensemble X is kept only when it
is asked for (no sinks); the Ensemble-taking estimators replay it
through the same reducers, block by block, so both routes give the
same bits.

Threads split the run by whole path blocks: of W = min(threads, CPUs,
path blocks) processes, the caller and W - 1 forked children, process
b mod W draws, steps and reduces path block b as a serial run does, in
its own buffers: one block of X with the sinks' temporaries
(STREAM_BLOCK_ARRAYS blocks in all) and one path block's noise.  A run
of one path block is serial.  _in_block_order alone owns this split: it
forks the children, yields every block's result in block order and
reaps the children.  A sink's add_block returns a partial where the
block ran; children pickle (ok, aborts, partials) to a pipe, and the
caller unpickles a child's result only when the merge needs it and
hands the partials to the sinks' merge: it holds one of a child's
results at a time, none larger than a block of X.  So the memory check
counts each process's buffers and noise and, per child, one block of X.
With W > 1 each process runs BLAS on one thread (_openblas).  Splitting
a block's rows would change bits, as BLAS products and sums round
differently on row slices.

Reproducibility contract: path j draws its noise from a Philox stream
keyed by (master seed, j), consumed in a stage-block partition that
depends only on the model dimensions and the horizon.  Each path block
re-keys one generator per path, which gives every path the stream of a
fresh Philox(key=(seed, j)).  Path blocks have a fixed size and
estimators reduce in fixed block order, so path j's trajectory does not
change when the ensemble grows.

Gaussian draws come from Generator.standard_normal and uniform draws
from Generator.uniform.  Rademacher draws are read straight from the raw
64-bit Philox words: each word gives two draws, its low 32-bit half
first, and a draw is +1 when bit 31 of its half is set and -1 otherwise.
That is Generator.integers(0, 2) bit for bit, which takes one 32-bit
half per draw, low half first, and keeps bit 31 (Lemire's bounded method
never rejects for a range of 2).  A half word left over at the end of a
stage block opens the next one, as it does in the Generator.

_NoiseBlocks alone knows how the noise is laid out and drawn and how it
reaches the step loop: a stage block of a path block is drawn a group of
paths at a time into a small path-major buffer, each group is copied,
transposed, into the stage-major eps and w, and the step reads stage k's
noise as two contiguous arrays.  No result depends on the number of
processes.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import mmap
import os
import pickle
import signal
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError
from .model import as_weight, energy_weight
from .norms import _decay_envelope, norm_report
from .ops import op_varpi, op_W_d
from .solver import backward_recursion

__all__ = [
    "SimConfig",
    "EnergyEstimate",
    "Ensemble",
    "InputPolicy",
    "ZeroInput",
    "ConstantInput",
    "simulate_paths",
    "PathFeed",
    "AbelSums",
    "CesaroMeans",
    "StageStats",
    "RepresentationCheck",
    "estimate_abel_energy",
    "estimate_cesaro_power",
    "per_stage_energy",
    "validate_representation",
    "check_decay",
    "decay_rows",
]

#: Paths per block (one noise buffer); fixed, so no result depends on the
#: ensemble size or on the number of drawing processes.
PATH_BLOCK = 4096

#: Noise-buffer budget per path block, in array elements.
STAGE_BLOCK_ELEMENTS = 2**25

#: Paths whose raw Philox words are turned into Rademacher signs in one
#: vectorised pass.
SIGN_GROUP = 16

#: Bytes of one group's draws for one stage block: the paths drawn together
#: path-major before their copy into the stage-major noise.
GROUP_BYTES = 2**20

#: Paths per chunk of the quadratic forms, which bounds their temporary.
Q_CHUNK = 256

#: Upper bound on the arrays of one path block's X size that a streamed run
#: holds at once: the block buffer, the copy of its survivors after aborts,
#: q, one q chunk's X Q, and the per-stage buffers of the step loop and the
#: backward step (a dozen stages together).
STREAM_BLOCK_ARRAYS = 5

#: Upper bound on the doubles per path that a streamed run keeps: the Abel
#: and Cesaro values, and the representation's three per-path terms with
#: their concatenations and differences.
STREAM_PATH_DOUBLES = 12

#: A path aborts once any state component exceeds this magnitude.
OVERFLOW_LIMIT = 1e150

NOISE_KINDS = ("gaussian", "rademacher", "uniform")

_SQRT3 = np.sqrt(3.0)


class InputPolicy:
    """Deterministic exogenous-input policy l_k for the input variant."""

    def inputs(self, k, x):
        """Inputs for stage k given states x of shape (paths, n); (paths, m) or None."""
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroInput(InputPolicy):
    def inputs(self, k, x):
        return None


@dataclass(frozen=True)
class ConstantInput(InputPolicy):
    ell: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.ell, dtype=float))
        arr.setflags(write=False)
        object.__setattr__(self, "ell", arr)

    def inputs(self, k, x):
        return np.broadcast_to(self.ell, (x.shape[0], self.ell.shape[0]))


@dataclass
class SimConfig:
    """Monte Carlo run parameters.

    noise_kind selects the common distribution of the (eps, w) draws;
    all three choices are zero-mean with identity joint covariance.
    """

    n_paths: int
    horizon: int
    seed: int
    noise_kind: str = "gaussian"
    x0: np.ndarray = field(default_factory=lambda: np.zeros(1))
    input_policy: InputPolicy = field(default_factory=ZeroInput)

    def __post_init__(self):
        self.n_paths = int(self.n_paths)
        if self.n_paths < 1:
            raise ValueError("n_paths must be a positive integer")
        self.horizon = int(self.horizon)
        if self.horizon < 1:
            raise ValueError("horizon must be a positive integer")
        self.seed = int(self.seed)
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.noise_kind not in NOISE_KINDS:
            raise ValueError(f"noise_kind must be one of {NOISE_KINDS}")
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if not np.all(np.isfinite(self.x0)):
            raise ValueError("x0 must be finite")
        if not isinstance(self.input_policy, InputPolicy):
            raise ValueError("input_policy must be an InputPolicy")


@dataclass(frozen=True)
class EnergyEstimate:
    """Monte Carlo estimator value with its ensemble standard error."""

    value: float
    std_error: float
    n_paths: int
    kind: str


@dataclass
class Ensemble:
    """Sampled trajectories plus abort diagnostics.

    X has shape (n_paths, horizon+1, n), a transposed view of the
    stage-major (horizon+1, n_paths, n) that the run fills.  It is kept
    only when it is asked for, that is when simulate_paths streams into
    no sinks; otherwise it is None and the run kept only per-path results.
    Aborted paths hold NaN from their abort stage onward and are excluded
    from every estimator.  ``ok`` marks the surviving paths; ``aborted``
    lists (path index, stage) for each overflow, ordered by path block,
    then stage, then path.
    """

    model: object
    cfg: SimConfig
    X: np.ndarray
    ok: np.ndarray
    aborted: list

    @property
    def n_paths(self):
        return self.ok.shape[0]

    @property
    def horizon(self):
        return self.cfg.horizon

    @property
    def n_ok(self):
        return int(self.ok.sum())


def _kept(ensemble):
    """The ensemble's X; a streamed ensemble has none to give."""
    if ensemble.X is None:
        raise ValueError("the ensemble was streamed and kept no trajectories; "
                         "call simulate_paths without sinks to keep them")
    return ensemble.X


class _PathStreams:
    """The noise streams of paths j0, j0+1, ..., drawn through one re-keyed Philox.

    A fresh Philox(key=(seed, j)) has counter 0 and an empty output
    buffer, so setting that state on one generator gives path j its
    stream unchanged.  Between draws each path's state is saved and
    restored; a Rademacher half word left over by an odd count is kept
    in ``carry`` and marked in ``odd``, and opens the path's next draw.
    ``count`` bounds the draws per path of one call.  ``gen``, a
    Generator over a Philox, may be shared by the streams of one
    process, as each draw sets its state.
    """

    def __init__(self, seed, j0, paths, kind, count, gen=None):
        self.gen = np.random.Generator(np.random.Philox(0)) if gen is None else gen
        self.bitgen = self.gen.bit_generator
        self.fresh = {"bit_generator": "Philox",
                      "state": {"counter": [0] * 4, "key": [seed, 0]},
                      "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        self.j0, self.kind = j0, kind
        self.saved = [None] * paths
        if kind == "rademacher":
            # 32-bit halves of up to SIGN_GROUP paths' words, a carried half first.
            self.halves = np.empty((min(paths, SIGN_GROUP), count + 1), dtype=np.uint32)
            self.carry = np.empty(paths, dtype=np.uint32)
            self.odd = np.zeros(paths, dtype=np.intp)

    def _restore(self, i):
        if self.saved[i] is None:
            self.fresh["state"]["key"][1] = self.j0 + i
            self.bitgen.state = self.fresh
        else:
            self.bitgen.state = self.saved[i]

    def draw(self, out, last, i0=0):
        """Fill out[i] with path i0 + i's next draws in C order; ``last``: no draw follows, save
        no state.  The paths of one call must have drawn alike before it.

        Rademacher draws are written as sign bytes into a uint8 ``out``:
        1 for +1 and 0 for -1.
        """
        paths = out.shape[0]
        if self.kind != "rademacher":
            for i in range(paths):
                self._restore(i0 + i)
                if self.kind == "gaussian":
                    self.gen.standard_normal(out=out[i])
                else:
                    out[i] = self.gen.uniform(-_SQRT3, _SQRT3, size=out[i].shape)
                if not last:
                    self.saved[i0 + i] = self.bitgen.state
            return
        count, odd = out[0].size, int(self.odd[i0])
        words = (count - odd + 1) // 2
        for g0 in range(0, paths, SIGN_GROUP):
            g1 = min(g0 + SIGN_GROUP, paths)
            h = self.halves[: g1 - g0]
            for i in range(g0, g1):
                self._restore(i0 + i)
                raw = self.bitgen.random_raw(words).astype("<u8", copy=False)
                h[i - g0, odd : odd + 2 * words] = raw.view("<u4")
                if not last:
                    self.saved[i0 + i] = self.bitgen.state
            if odd:
                h[:, 0] = self.carry[i0 + g0 : i0 + g1]
            if odd + 2 * words > count:
                self.carry[i0 + g0 : i0 + g1] = h[:, count]
            np.right_shift(h[:, :count].reshape(out[g0:g1].shape), 31,
                           out=out[g0:g1], casting="unsafe")
        self.odd[i0 : i0 + paths] = odd + 2 * words - count


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS thread controls (set, get), or None where they are not found."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(path)
            return lib.scipy_openblas_set_num_threads64_, lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
    return None


def _array(shape, dtype, workers, flags=mmap.MAP_PRIVATE):
    """An uninitialised array: np.empty in a serial run; beside other processes a fresh
    anonymous mapping, faulted in at once where the system can.  A private one made after the
    fork copies no page when written, as memory resident at the fork would; a shared one made
    before it is written by every process."""
    if workers == 1:
        return np.empty(shape, dtype)
    nbytes = int(np.prod(shape)) * dtype.itemsize
    flags |= getattr(mmap, "MAP_POPULATE", 0)
    return np.frombuffer(mmap.mmap(-1, nbytes, flags=flags), dtype).reshape(shape)


class _NoiseBlocks:
    """A process's noise: the one place that knows how it is laid out and drawn.

    Built from (model, cfg, workers), it allocates nothing and works out
    ``paths`` and ``stages``, the paths of one path block and the stages
    of one stage block; ``dtype``, a sign byte per Rademacher draw and a
    double per other draw; ``group``, the paths drawn together, as many
    as GROUP_BYTES holds of their draws for one stage block but at least
    SIGN_GROUP; and ``nbytes``, which the memory check counts per
    process.  Each process makes eps and w at its first path block, one
    stage block's noise of one path block, stage-major, of shapes
    (stages, paths, n) and (stages, paths, r) (_array).

    stage_rows(j0, bp) draws paths j0 ... j0 + bp - 1 a stage block at a
    time through one _PathStreams, which keeps each path's state and
    Rademacher carry: each group's draws go into the path-major group
    buffer (group, stages, n + r) and are copied, transposed, into eps
    and w.  It yields one contiguous pair (eps_k, w_k) of doubles per
    stage, sign bytes turned into -1.0 and +1.0 one stage at a time in
    rows of (bp, n) and (bp, r).  The group buffer and the sign rows are
    made for each path block and freed once its last stage is yielded,
    before the block's reductions.
    """

    def __init__(self, model, cfg, workers):
        self.cfg, self.workers, self.n, self.r = cfg, workers, model.n, model.r
        width = model.n + model.r
        self.paths = min(cfg.n_paths, PATH_BLOCK)
        self.stages = _stage_block_size(cfg.horizon, width)
        self.dtype = np.dtype(np.uint8 if cfg.noise_kind == "rademacher" else np.float64)
        drawn = self.stages * width * self.dtype.itemsize
        self.group = min(self.paths, max(SIGN_GROUP, GROUP_BYTES // drawn))
        self.nbytes = (self.paths + self.group) * drawn
        self.eps = None

    def stage_rows(self, j0, bp):
        """Yield the noise (eps_k, w_k) of paths j0 ... j0 + bp - 1 for each stage k, of shapes
        (bp, n) and (bp, r), each pair valid until the next is asked for."""
        sb, n, horizon = self.stages, self.n, self.cfg.horizon
        if self.eps is None:
            self.eps, self.w = (_array((sb, self.paths, m), self.dtype, self.workers)
                                for m in (n, self.r))
            # One generator for every path block of this process.
            self.gen = np.random.Generator(np.random.Philox(0))
        group = np.empty((self.group, sb, n + self.r), self.dtype)
        if self.dtype == np.uint8:
            signs = np.empty((bp, n)), np.empty((bp, self.r))
        streams = _PathStreams(self.cfg.seed, j0, bp, self.cfg.noise_kind,
                               group[0].size, self.gen)
        eps, w = self.eps[:, :bp], self.w[:, :bp]
        for k0 in range(0, horizon, sb):
            stages = min(sb, horizon - k0)
            for g0 in range(0, bp, self.group):
                g1 = min(g0 + self.group, bp)
                drawn = group[: g1 - g0, :stages]
                streams.draw(drawn, k0 + stages == horizon, g0)
                np.copyto(eps[:stages, g0:g1], drawn[..., :n].transpose(1, 0, 2))
                np.copyto(w[:stages, g0:g1], drawn[..., n:].transpose(1, 0, 2))
            for k in range(stages):
                if self.dtype == np.uint8:
                    # Sign bytes 0 and 1 to -1.0 and +1.0.
                    e, o = (np.multiply(z[k], 2.0, out=row) for z, row in zip((eps, w), signs))
                    e -= 1.0
                    o -= 1.0
                    yield e, o
                else:
                    yield eps[k], w[k]


def _stage_block_size(horizon, width):
    # Depends only on (horizon, n + r): the draw partition is part of the
    # reproducibility contract and must not vary with ensemble size.
    return max(1, min(horizon, STAGE_BLOCK_ELEMENTS // (PATH_BLOCK * width)))


def _matmul(a, b, out=None, plus_zero=True):
    """a @ b, bit for bit, into ``out`` if given; by broadcasting when the inner dimension is 1.

    A matrix product sums onto +0, so a product of -0 reads +0 there;
    adding 0.0 does the same to the broadcast product, unless plus_zero
    is False: a sum that is not -0 reads the same either way.
    """
    if b.shape[0] != 1:
        return np.matmul(a, b, out=out)
    out = np.multiply(a, b, out=out)
    if plus_zero:
        out += 0.0
    return out


def _simulate_block(model, cfg, X, noise, aborted, j0):
    """Simulate paths j0, j0+1, ... into the stage-major X; stage k's noise is the k-th pair
    (eps_k, w_k) of doubles, of shapes (paths, n) and (paths, r), that ``noise`` yields.
    Return who survives."""
    n = model.n
    AT, BT, sxT, sbxT, sgT = (None if M is None else np.ascontiguousarray(M.T) for M in (
        model.A, model.B, model.sigma_x, model.sigma_bar_x, model.sigma))
    policy = cfg.input_policy
    x = X[0]
    x[...] = cfg.x0
    # A product and a scratch array, reused every stage.
    prod, tmp = np.empty_like(x), np.empty_like(x)
    alive = np.ones(X.shape[1], dtype=bool)
    all_alive = True

    with np.errstate(over="ignore", invalid="ignore"):
        for k, (eps, om) in enumerate(noise):
            # x_{k+1} in place; at n = 1 the first product leaves it never -0.
            xn = _matmul(x, AT, out=X[k + 1])
            if BT is not None:
                ell = policy.inputs(k, x)
                if ell is not None:
                    xn += _matmul(ell, BT, out=prod, plus_zero=n > 1)
            xn += _matmul(eps, sxT, out=prod, plus_zero=n > 1)
            np.abs(x, out=tmp)
            tmp *= eps
            xn += _matmul(tmp, sbxT, out=prod, plus_zero=n > 1)
            xn += _matmul(om, sgT, out=prod, plus_zero=n > 1)
            # NaN and inf both fail the comparisons; while every path
            # is alive one reduction clears the whole block.
            if not all_alive or not np.abs(xn, out=tmp).max() <= OVERFLOW_LIMIT:
                bad = ~(np.abs(xn) <= OVERFLOW_LIMIT).all(axis=1) & alive
                aborted.extend((j0 + int(i), k + 1) for i in np.flatnonzero(bad))
                alive &= ~bad
                all_alive = False
                xn[~alive] = np.nan
            x = xn if all_alive else np.where(alive[:, None], xn, 0.0)
    return alive


def _blocks(model, cfg, sinks, noise, X, starts):
    """Simulate and reduce the path blocks from ``starts`` in order, each into its columns of
    the kept X or else into one buffer of this process; yield (ok, aborts, partials) of each."""
    buf = X if X is not None else _array((cfg.horizon + 1, noise.paths, model.n),
                                         np.dtype(np.float64), noise.workers)
    for j0 in starts:
        j1 = min(j0 + PATH_BLOCK, cfg.n_paths)
        Xj = buf[:, j0:j1] if X is not None else buf[:, : j1 - j0]
        aborted = []
        ok = _simulate_block(model, cfg, Xj, noise.stage_rows(j0, j1 - j0), aborted, j0)
        yield ok, aborted, [sink.add_block(j0, Xj, ok) for sink in sinks]


def _child(results, fd):
    """A child's loop: pickle each result to the pipe ``fd``, or the exception that stopped it."""
    with open(fd, "wb") as pipe:
        try:
            for result in results:
                pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
                pipe.flush()
        except Exception as exc:
            pickle.dump(exc, pipe, pickle.HIGHEST_PROTOCOL)


def _results(pipe):
    """A child's results, each unpickled from ``pipe`` when it is asked for; an exception the
    child sent is raised, and ChildProcessError where the pipe ends first."""
    while True:
        try:
            message = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):  # closed, or cut short by the child's death
            message = ChildProcessError("a path-block child process exited mid-run")
        if isinstance(message, BaseException):
            raise message
        yield message


@contextlib.contextmanager
def _in_block_order(run, starts, workers):
    """Run the path blocks from ``starts`` on ``workers`` processes and yield an iterator over
    every block's result in block order: process w, this one for w = 0 and forked child w
    otherwise, runs run(starts[w::workers]).  A child's results are read from its pipe only when
    asked for, so this process holds one of a child's results at a time.  Beside children every
    process runs numpy's OpenBLAS on one thread where it can be told to.  On leaving, every child
    is reaped, killed first where the run failed, and BLAS is restored here."""
    pids, pipes, failed = [], [], True
    controls = _openblas() if workers > 1 else None
    blas = controls and controls[1]()
    if controls:
        controls[0](1)
    try:
        for w in range(1, workers):
            r, fd = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        for pipe in pipes:
                            pipe.close()
                        _child(run(starts[w::workers]), fd)
                        code = 0
                    finally:
                        os._exit(code)
                pids.append(pid)
            finally:
                os.close(fd)
        sources = [run(starts[::workers])] + [_results(pipe) for pipe in pipes]
        yield (next(sources[b % workers]) for b in range(len(starts)))
        failed = False
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            if failed:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if controls:
            controls[0](blas)


def simulate_paths(model, cfg, sinks=(), threads=1):
    """Sample an ensemble of CSVIU trajectories, one path block at a time.

    x_{k+1} = A x_k + B l_k + (sigma_x + sigma_bar_x diag(|x_k|)) eps_k
    + sigma w_k per path.  Identical (model, cfg) gives bit-identical
    trajectories.

    Parameters
    ----------
    model : CsviuModel
    cfg : SimConfig
    sinks : sequence, optional
        Objects with ``add_block(j0, X, ok)``, ``merge(partial)`` and
        ``close()``.  Each block of PATH_BLOCK paths from j0 on is
        simulated into a buffer reused for the process's next block and
        handed to every sink's add_block there (X stage-major, of shape
        (horizon+1, paths, n), so that X[:, j] is path j0 + j; ok its
        survival mask).  What it returns, a partial no larger than X,
        goes, pickled from a child, to the same sink's merge in the
        calling process, in block order; that process runs its own block
        b after merging every block before b, so a partial may be X
        itself, merged before its buffer is reused.  close() runs last.
        With no sinks the whole ensemble X is kept instead, in one
        mapping shared by every process.
    threads : int, optional
        Processes that simulate: W = min(threads, CPUs, path blocks), this
        one and W - 1 forked children, so a run of one path block is
        serial.  Process b mod W draws, steps and reduces path block b in
        its own buffers: one block of X with the sinks' temporaries, one
        stage block of one path block's noise, stage-major, and the
        buffer that a group of its paths is drawn into.  _in_block_order
        owns that split: this process takes the blocks' results from it
        in block order, a child's unpickled from its pipe only when the
        merge needs it, so it holds one of a child's results at a time.
        With W > 1 each process runs BLAS on one thread where numpy's
        OpenBLAS can be told to.  Every child is reaped before the call
        returns or raises.  No result depends on it.

    Raises
    ------
    ValueError
        If threads is not a positive integer, or if what the run holds
        would not fit in physical memory (nothing is allocated and
        nothing forked): the ensemble X and each process's noise without
        sinks; each process's block buffers and noise, one block of X
        per child for the partial held of it, and the per-path results,
        with them.
    ChildProcessError
        If a child exits before the run ends; an exception raised in a
        child is raised here with its type and message.

    Returns
    -------
    Ensemble
        Paths whose state magnitude exceeds 1e150 (or goes non-finite)
        abort at the offending stage: the (path, stage) pair is recorded,
        the trajectory is NaN from there on, and estimators exclude it.
        X is None when sinks were given.
    """
    if cfg.x0.shape != (model.n,):
        raise DimensionError(f"x0 must have length n={model.n}, got {cfg.x0.shape}")
    if model.B is None and not isinstance(cfg.input_policy, ZeroInput):
        raise ValueError("input_policy requires a model with m > 0")
    if int(threads) != threads or threads < 1:
        raise ValueError("threads must be a positive integer")

    n_paths, horizon, n = cfg.n_paths, cfg.horizon, model.n
    starts = range(0, n_paths, PATH_BLOCK)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = max(1, min(threads, cpus or 1, len(starts))) if hasattr(os, "fork") else 1
    noise = _NoiseBlocks(model, cfg, workers)
    if sinks:
        block = 8 * noise.paths * (horizon + 1) * n
        need = (workers * (noise.nbytes + STREAM_BLOCK_ARRAYS * block)
                + (workers - 1) * block + 8 * STREAM_PATH_DOUBLES * n_paths)
        held = "the path-block buffers and per-path results"
    else:
        need = workers * noise.nbytes + 8 * n_paths * (horizon + 1) * n
        held = "the ensemble and its noise buffers"
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > physical:
        raise ValueError(f"{held} need {need / 1e9:.3g} GB, "
                         f"more than the {physical / 1e9:.3g} GB of memory; "
                         "lower --paths or --horizon")
    X = None if sinks else _array((horizon + 1, n_paths, n), np.dtype(np.float64), workers,
                                  mmap.MAP_SHARED)
    ok, aborted = np.ones(n_paths, dtype=bool), []

    run = functools.partial(_blocks, model, cfg, sinks, noise, X)
    with _in_block_order(run, starts, workers) as results:
        for j0, (block_ok, block_aborted, partials) in zip(starts, results):
            ok[j0 : j0 + block_ok.size] = block_ok
            aborted += block_aborted
            for sink in sinks:
                # Popped, so that no partial is held past its merge.
                sink.merge(partials.pop(0))
    for sink in sinks:
        sink.close()
    kept = None if sinks else X.transpose(1, 0, 2)
    return Ensemble(model=model, cfg=cfg, X=kept, ok=ok, aborted=aborted)


class PathFeed:
    """Block sink that hands each path block's surviving paths to reducers.

    A block with aborts is reduced as the copy X[:, ok] of its
    survivors, one without as it lies; nothing is kept between blocks.
    Blocks are stage-major, (stages, paths, n).  Their quadratic forms
    q[p, k] = x_k^T Q x_k are evaluated once and every reducer's
    ``add_chunk(X, q)`` reads them, in the process that simulated the
    block; it returns the reducer's partial, which its ``merge`` takes in
    the calling process.  A block with no survivors reaches no reducer.
    """

    def __init__(self, Q, reducers):
        self.Q = Q
        self.reducers = reducers

    @np.errstate(over="ignore", invalid="ignore")
    def add_block(self, j0, X, ok):
        """Every reducer's partial of the block's survivors; none where none survived."""
        if not ok.all():
            if not ok.any():
                return []
            X = X[:, ok]
        q = _quadratic_forms(X, self.Q)
        return [reducer.add_chunk(X, q) for reducer in self.reducers]

    @np.errstate(over="ignore", invalid="ignore")
    def merge(self, partials):
        for reducer, partial in zip(self.reducers, partials):
            reducer.merge(partial)

    def close(self):
        """Nothing is held between blocks, so nothing is left to reduce."""


def _quadratic_forms(X, Q):
    """q[p, k] = x_k^T Q x_k for a stage-major X of shape (stages, paths, n), as (x_k Q) . x_k.

    Evaluated Q_CHUNK paths at a time, so no temporary is larger than
    (stages, Q_CHUNK, n); each chunk is written through the transposed
    view of q, which is path-major and contiguous, as the reducers sum it.
    """
    q = np.empty(X.shape[1::-1])
    for p0 in range(0, X.shape[1], Q_CHUNK):
        Xc = X[:, p0 : p0 + Q_CHUNK]
        np.einsum("kpi,kpi->kp", _matmul(Xc, Q), Xc, out=q[p0 : p0 + Q_CHUNK].T)
    return q


def _replay(ensemble, Q, reducer):
    """Feed a kept ensemble's paths to one reducer block by block; return its result."""
    X = _kept(ensemble).transpose(1, 0, 2)
    feed = PathFeed(as_weight(Q, ensemble.model.n), [reducer])
    for j0 in range(0, ensemble.n_paths, PATH_BLOCK):
        j1 = j0 + PATH_BLOCK
        feed.merge(feed.add_block(j0, X[:, j0:j1], ensemble.ok[j0:j1]))
    return reducer.result()


def _require_finite_means(means):
    """The estimators run without overflow warnings; a mean that is not finite raises here."""
    if not np.isfinite(means).all():
        raise DomainError("a Monte Carlo mean is not a finite double; "
                          "scale down --Q, or lower --alpha or --horizon")


def _ensemble_stats(values):
    values = np.asarray(values, dtype=float)
    n = values.size
    # near the overflow guard the variance may round to inf; that is an
    # honest answer, not a warning condition
    with np.errstate(over="ignore"):
        mean = float(values.mean()) if n else float("nan")
        if n > 1:
            se = float(values.std(ddof=1) / np.sqrt(n))
        else:
            se = 0.0 if n == 1 else float("nan")
    if n:
        _require_finite_means(mean)
    return mean, se, n


@np.errstate(over="ignore", invalid="ignore")
def _estimate(parts, kind):
    values = np.concatenate(parts) if parts else np.empty(0)
    mean, se, n = _ensemble_stats(values)
    return EnergyEstimate(value=mean, std_error=se, n_paths=n, kind=kind)


class _PerPath:
    """A reducer whose partials are per-path arrays, kept in block order."""

    def __init__(self):
        self.parts = []

    def merge(self, part):
        self.parts.append(part)

    def result(self):
        """EnergyEstimate: mean and standard error over the surviving paths."""
        return _estimate(self.parts, self.kind)


class AbelSums(_PerPath):
    """Reducer: per-path discounted energy sum_{k=0}^{kappa} alpha^k ||x_k||_Q^2."""

    def __init__(self, alpha, kappa):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        super().__init__()
        self.kind = f"abel(alpha={alpha}, kappa={kappa})"
        with np.errstate(over="ignore"):
            self.w = float(alpha) ** np.arange(kappa + 1)

    def add_chunk(self, X, q):
        return q @ self.w


class CesaroMeans(_PerPath):
    """Reducer: per-path long-run average (1/kappa) sum_{k<kappa} ||x_k||_Q^2."""

    def __init__(self, kappa):
        super().__init__()
        self.kappa = kappa
        self.kind = f"cesaro(kappa={kappa})"

    def add_chunk(self, X, q):
        return q[:, : self.kappa].mean(axis=1)


class StageStats:
    """Reducer: stagewise ensemble means and standard errors of ||x_k||_Q^2.

    Stage 0 is exact: every path starts at x0, so its mean is x0^T Q x0
    and its standard error 0.
    """

    def __init__(self, kappa, x0, Q):
        with np.errstate(over="ignore", invalid="ignore"):
            self.q0 = float(x0 @ Q @ x0)
        if not np.isfinite(self.q0):
            raise DomainError("x0^T Q x0 is not a finite double; scale down --x0 or --Q")
        self.total = np.zeros(kappa + 1)
        self.sq_dev = np.zeros(kappa + 1)
        self.n = 0

    def add_chunk(self, X, q):
        """(chunk total, squared deviations from the chunk's own mean, paths) per stage."""
        m = q.shape[0]
        chunk_total = q.sum(axis=0)
        # Deviations from each chunk's own mean avoid the cancellation (and
        # inf - inf) of the textbook sum-of-squares shortcut; chunks merge by
        # the pairwise update of Chan, Golub & LeVeque (1979).
        return chunk_total, ((q - chunk_total / m) ** 2).sum(axis=0), m

    def merge(self, partial):
        (chunk_total, sq_dev, m), n = partial, self.n
        self.sq_dev += sq_dev
        if n:
            self.sq_dev += (chunk_total / m - self.total / n) ** 2 * (n * m / (n + m))
        self.total += chunk_total
        self.n += m

    @np.errstate(over="ignore", invalid="ignore")
    def result(self):
        """(means, std_errors), each of shape (kappa+1,)."""
        n = self.n
        if n == 0:
            nan = np.full(self.total.shape, np.nan)
            return nan, nan
        means = self.total / n
        _require_finite_means(means)
        ses = np.sqrt(self.sq_dev / (n - 1) / n) if n > 1 else np.zeros(self.total.shape)
        means[0], ses[0] = self.q0, 0.0
        return means, ses


class RepresentationCheck:
    """Reducer behind validate_representation; the backward recursion runs once, here."""

    def __init__(self, model, cfg, alpha, Q):
        kappa = cfg.horizon
        self.model, self.cfg, self.alpha = model, cfg, alpha
        self.AT = np.ascontiguousarray(model.A.T)
        with np.errstate(over="ignore", invalid="ignore"):
            self.P = backward_recursion(model, alpha, Q, kappa).P_seq
            self.w = float(alpha) ** np.arange(kappa + 1)
            self.W_d = [op_W_d(model, Pk) for Pk in self.P[1:]]
            self.varpi = [op_varpi(model, Pk) for Pk in self.P[1:]]
        self.S, self.R, self.corr = [], [], []

    def add_chunk(self, X, q):
        model, alpha, w, P = self.model, self.alpha, self.w, self.P
        kappa = self.cfg.horizon
        A, B = model.A, model.B
        policy = self.cfg.input_policy
        m, n = X.shape[1], model.n
        # v, the next v, s_k and the noise, reused every step.
        v, vA, s_k, noise = (np.zeros((m, n)) for _ in range(4))
        g = np.zeros(m)
        corr = np.zeros(m)
        for k in range(kappa - 1, -1, -1):
            x = X[k]
            np.sign(x, out=s_k)
            g += self.varpi[k]
            # noise = x_{k+1} - x A^T and, at the end, v = alpha (vin A + W_d s_k).
            _matmul(x, self.AT, out=noise)
            np.subtract(X[k + 1], noise, out=noise)
            vin = v
            ell = policy.inputs(k, x) if B is not None else None
            if ell is not None:
                Bl, Pk1 = _matmul(ell, B.T), P[k + 1]
                g += np.einsum("pi,ij,pj->p", Bl, Pk1, Bl)
                g += (v * Bl).sum(axis=1)
                noise -= Bl
                vin = v + 2.0 * _matmul(Bl, Pk1)
            g *= alpha
            corr += w[k] * alpha * np.einsum("pi,pi->p", v, noise)
            _matmul(vin, A, out=vA)
            s_k *= self.W_d[k]
            vA += s_k
            vA *= alpha
            v, vA = vA, v
        return q[:, :kappa] @ w[:kappa], v @ self.cfg.x0 + g, corr

    def merge(self, partial):
        for parts, part in zip((self.S, self.R, self.corr), partial):
            parts.append(part)

    @np.errstate(over="ignore", invalid="ignore")
    def result(self):
        """The record validate_representation returns; with no survivors its figures are NaN."""
        if not self.S:
            nan = float("nan")
            return dict.fromkeys(("lhs", "rhs", "gap", "std_error", "z", "sign_noise_term",
                                  "corrected_gap", "corrected_std_error"), nan) | {"n_paths": 0}
        S, R, corr = (np.concatenate(parts) for parts in (self.S, self.R, self.corr))
        x0 = self.cfg.x0
        quad0 = float(x0 @ self.P[0] @ x0)
        diffs = S - R
        gap_mean, gap_se, _ = _ensemble_stats(diffs)
        gap = abs(gap_mean - quad0)
        corrected = diffs - corr
        cgap_mean, cgap_se, _ = _ensemble_stats(corrected)
        return {
            "lhs": float(S.mean()),
            "rhs": quad0 + float(R.mean()),
            "gap": gap,
            "std_error": gap_se,
            "z": gap / gap_se if gap_se > 0 else float("inf") if gap > 0 else 0.0,
            "n_paths": S.size,
            "sign_noise_term": float(corr.mean()),
            "corrected_gap": abs(cgap_mean - quad0),
            "corrected_std_error": cgap_se,
        }


def estimate_abel_energy(ensemble, Q, alpha):
    """Per-path discounted energy sum_{k=0}^{kappa} alpha^k ||x_k||_Q^2.

    Returns the ensemble mean and standard error over surviving paths.
    """
    return _replay(ensemble, Q, AbelSums(alpha, ensemble.horizon))


def estimate_cesaro_power(ensemble, Q):
    """Per-path long-run average (1/kappa) sum_{k<kappa} ||x_k||_Q^2."""
    return _replay(ensemble, Q, CesaroMeans(ensemble.horizon))


def per_stage_energy(ensemble, Q):
    """Stagewise ensemble means and standard errors of ||x_k||_Q^2.

    Returns
    -------
    (means, std_errors) : ndarray of shape (horizon+1,), each
    """
    Qm = as_weight(Q, ensemble.model.n)
    return _replay(ensemble, Qm, StageStats(ensemble.horizon, ensemble.cfg.x0, Qm))


def validate_representation(ensemble, alpha, Q):
    """Monte Carlo check of the backward-recursion energy representation.

    Evaluated on the paths of ``ensemble``, whose model and config it uses.

    lhs is the MC estimate of E[sum_{k<kappa} alpha^k ||x_k||_Q^2]; rhs is
    ||x0||_{P_0}^2 + <E[v_0], x0> + E[g_0] for the recursion with zero
    terminal weight, with v_0 and the input-dependent part of g_0
    evaluated per path along the sampled sign sequence.

    The representation's derivation treats the sign sequence as
    uncorrelated with same-stage noise.  That cross term is generally
    nonzero when W_d(P) != 0, so the record also carries its pathwise
    estimate: ``sign_noise_term`` is the MC value of
    sum_{k<kappa} alpha^{k+1} <v_{k+1}, sigma(x_k) noise_k>, and
    ``corrected_gap`` is the gap after adding it to the rhs.  When
    W_d(P) = 0 (sigma_x = 0 or sigma_bar_x = 0) the term vanishes and
    gap and corrected_gap agree.

    Returns
    -------
    dict with keys lhs, rhs, gap, std_error, z, n_paths,
    sign_noise_term, corrected_gap, corrected_std_error.

    Raises
    ------
    ValueError
        If no path of the ensemble survived.
    """
    if not ensemble.n_ok:
        raise ValueError("all paths aborted; representation check impossible")
    Qm = as_weight(Q, ensemble.model.n)
    check = RepresentationCheck(ensemble.model, ensemble.cfg, alpha, Qm)
    return _replay(ensemble, Qm, check)


def check_decay(ensemble, alpha, Q=None):
    """Per-stage comparison of E||x_k||_Q^2 against the geometric envelope.

    Evaluated on the paths of ``ensemble``, whose model and config it uses.

    Each row carries the stage index, the MC mean and standard error,
    the bound 2 alpha^{-k} (||x0||_L^2 + <v_bar, |x0|>) around the level
    alpha varpi(L), both read from norm_report, and whether the mean
    exceeds level + bound by more than 3 standard errors.  Unlike
    decay_bound it also tabulates an alpha with r_sigma(alpha A) >= 1.
    It solves once, through norm_report; the CLI, which has that report
    already, calls decay_rows instead.  An envelope that is not a finite
    double raises DomainError.

    Returns
    -------
    list of dict with keys k, energy, std_error, level, bound, violated.
    """
    model = ensemble.model
    Qm = energy_weight(model, Q)
    report = norm_report(model, alpha, Qm)
    return decay_rows(report, ensemble.cfg.x0, *per_stage_energy(ensemble, Qm))


def decay_rows(report, x0, means, ses):
    """check_decay's rows from the per-stage means and standard errors.

    ``means`` and ``ses`` are what StageStats.result() returns, for
    stages k = 0..kappa; ``report`` is norm_report(model, alpha, Q), and
    its alpha is the discount of the level and of the bound.
    """
    level = report.alpha * report.varpi_L
    rows = []
    for k in range(means.shape[0]):
        bound = _decay_envelope(report, x0, k)
        violated = bool(means[k] > level + bound + 3.0 * ses[k])
        rows.append(
            {
                "k": k,
                "energy": float(means[k]),
                "std_error": float(ses[k]),
                "level": level,
                "bound": bound,
                "violated": violated,
            }
        )
    return rows
