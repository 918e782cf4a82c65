"""Terminating Markov jump process on the doubled original/anti state space.

The embedded-chain scheme draws, per jump, one exponential holding time at the
state's total exit rate and one categorical draw over the targets: the other
transient states (rates from the off-diagonals of the doubled block), the two
absorbing states (rates ``s^+ / s^-``, swapped on the anti side), and an
explicit *terminated* pseudo-state carrying the row defect.  Every path
therefore has a well-defined exit time ``tau``, pre-exit state and landing,
and a sign of +1 / -1 / 0 according to whether it landed in the positive
absorbing state, the negative one, or was terminated.

Randomness is pinned for reproducibility: streams are numpy ``Philox``
(counter-based) bit generators keyed by ``SeedSequence(seed, spawn_key=
(stream_index,))``, and every variate is derived from 53-bit uniforms by
inverse transform (no ziggurat), so identical ``(seed, stream_index)`` always
reproduce identical paths.  ``simulate_batch`` assigns paths to streams in
fixed chunks, which makes its output independent of how many worker threads
execute the chunks.

There is one simulator, ``simulate_batch``, and it works on integer codes
only: transient states are ``0..p-1`` (original) and ``p..2p-1`` (anti), the
categorical targets ``2p..2p+2`` are the landings, stored in a batch as
landing codes ``0/1/2`` (positive absorption / negative absorption /
termination).  ``code_label`` names a code for traces.  Indices are 0-based
throughout.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NotTransientError
from .splitting import InitialSplit, SignSplit, build_generator, check_transience

#: Paths per random stream in simulate_batch.
DEFAULT_CHUNK = 65536

_SIGN_OF_LANDING = np.array([1, -1, 0], dtype=np.int8)


def code_label(code: int, p: int) -> str:
    """Human-readable label for a transient (0..2p-1) or landing (2p..2p+2) code."""
    if code < p:
        return f"o{code}"
    if code < 2 * p:
        return f"a{code - p}"
    return ("DeltaO", "DeltaA", "term")[code - 2 * p]


@dataclass(frozen=True)
class RngStream:
    """Pinned random stream: Philox keyed by (seed, stream_index).

    Distinct stream indices yield statistically independent streams; identical
    (seed, index) pairs reproduce identical draws.
    """

    seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.Philox(ss))


def _cum_and_last(weights: np.ndarray):
    """Row-wise cumulative probabilities plus the index of the last strictly
    positive weight.  Categorical draws are clamped to that index so targets
    with exactly zero weight are impossible even under rounding of the row
    sum."""
    totals = weights.sum(axis=1, keepdims=True)
    cum = np.cumsum(weights / totals, axis=1)
    positive = weights > 0.0
    last = weights.shape[1] - 1 - np.argmax(positive[:, ::-1], axis=1)
    return cum, last.astype(np.int64)


class JumpChain:
    """Compiled jump tables for one (split, lam) pair.

    Validates ``lam >= lambda_0`` and transience once, then holds the
    per-state exit rates and cumulative target tables that ``simulate_batch``
    samples from.
    """

    def __init__(self, split: SignSplit, lam: float):
        gen = build_generator(split, lam)
        transient, abscissa = check_transience(split, lam)
        if not transient:
            raise NotTransientError(
                f"doubled states are not transient at rate {lam:g} "
                f"(spectral abscissa {abscissa:.6g} >= 0)"
            )
        p = split.p
        self.p = p
        self.lam = lam
        self.rate = -np.diag(gen.D).copy()
        # transience rules out absorbing-with-zero-rate transient states
        assert np.all(self.rate > 0.0), "zero total exit rate in a transient chain"
        weights = np.zeros((2 * p, 2 * p + 3))
        weights[:, : 2 * p] = np.maximum(gen.D, 0.0)  # off-diagonal jump rates
        weights[:, 2 * p] = gen.abs_o
        weights[:, 2 * p + 1] = gen.abs_a
        weights[:, 2 * p + 2] = gen.term
        self.cum, self.last = _cum_and_last(weights)


def _initial_cum(init: InitialSplit):
    weights = np.concatenate([init.alphahat_plus, init.alphahat_minus])
    cum, last = _cum_and_last(weights[None, :])
    return cum[0], int(last[0])


@dataclass
class PathBatch:
    """Column-oriented collection of path outcomes.

    ``pre_exit`` holds transient codes (0..2p-1), ``landing`` codes 0/1/2 for
    positive absorption / negative absorption / termination.  ``trace``
    (present when tracing) is a tuple of arrays (path_index, time, from_code,
    to_code) sorted by path then time; the state held at time ``x`` is the
    ``from_code`` of a path's first row with time ``> x``.
    """

    p: int
    lam: float
    seed: int
    chunk: int
    tau: np.ndarray
    pre_exit: np.ndarray
    landing: np.ndarray
    sign: np.ndarray
    n_jumps: np.ndarray
    trace: tuple | None = None

    def __len__(self) -> int:
        return self.tau.shape[0]

    def chunk_slices(self):
        """Slices of the generation chunks, in order; estimator folds follow
        this blocking so chunked and whole-batch reductions agree exactly."""
        n = len(self)
        return [slice(lo, min(lo + self.chunk, n)) for lo in range(0, n, self.chunk)]


def _simulate_chunk(chain, init_cum, init_last, m, rng, collect_trace):
    """Vectorized embedded-chain simulation of ``m`` paths on one stream.

    Per iteration, every active path consumes exactly two uniforms (holding
    time, categorical target) in path order, so the draw sequence depends only
    on the chunk itself.
    """
    two_p = 2 * chain.p
    u0 = rng.random(m)
    state = np.minimum(
        np.searchsorted(init_cum, u0, side="right"), init_last
    ).astype(np.int64)

    alive = np.arange(m, dtype=np.int64)
    t = np.zeros(m)
    tau = np.zeros(m)
    pre_exit = np.zeros(m, dtype=np.int32)
    landing = np.zeros(m, dtype=np.int8)
    n_jumps = np.zeros(m, dtype=np.int32)
    trace_parts = [] if collect_trace else None

    iteration = 0
    while alive.size:
        k = alive.size
        u1 = rng.random(k)
        dt = -np.log1p(-u1) / chain.rate[state]
        t_new = t + dt
        u2 = rng.random(k)
        nxt = (chain.cum[state] <= u2[:, None]).sum(axis=1)
        np.minimum(nxt, chain.last[state], out=nxt)
        if collect_trace:
            trace_parts.append((alive.copy(), t_new.copy(), state.copy(), nxt.copy()))
        iteration += 1
        exited = nxt >= two_p
        if exited.any():
            done = alive[exited]
            tau[done] = t_new[exited]
            pre_exit[done] = state[exited]
            landing[done] = (nxt[exited] - two_p).astype(np.int8)
            n_jumps[done] = iteration
        keep = ~exited
        alive = alive[keep]
        state = nxt[keep]
        t = t_new[keep]

    trace = None
    if collect_trace:
        path = np.concatenate([part[0] for part in trace_parts])
        times = np.concatenate([part[1] for part in trace_parts])
        frm = np.concatenate([part[2] for part in trace_parts])
        to = np.concatenate([part[3] for part in trace_parts])
        order = np.lexsort((times, path))
        trace = (path[order], times[order], frm[order], to[order])

    return {
        "tau": tau,
        "pre_exit": pre_exit,
        "landing": landing,
        "sign": _SIGN_OF_LANDING[landing],
        "n_jumps": n_jumps,
        "trace": trace,
    }


def simulate_batch(
    split: SignSplit,
    lam: float,
    init: InitialSplit,
    n_paths: int,
    seed: int,
    chunk: int = DEFAULT_CHUNK,
    workers: int = 1,
    collect_trace: bool = False,
) -> PathBatch:
    """Simulate ``n_paths`` outcomes with reproducible chunked streams.

    Path k is generated from ``RngStream(seed, k // chunk)``; results are
    bit-identical for fixed ``(seed, n_paths, chunk)`` whatever the worker
    count, since chunks are simulated on independent streams and reassembled
    in chunk order.
    """
    if n_paths <= 0:
        raise ValueError("n_paths must be positive")
    if chunk <= 0:
        raise ValueError("chunk must be positive")
    chain = JumpChain(split, lam)
    init_cum, init_last = _initial_cum(init)

    sizes = [
        min(chunk, n_paths - lo) for lo in range(0, n_paths, chunk)
    ]

    def run(c_and_m):
        c, m = c_and_m
        rng = RngStream(seed, c).generator()
        return _simulate_chunk(chain, init_cum, init_last, m, rng, collect_trace)

    tasks = list(enumerate(sizes))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, tasks))
    else:
        results = [run(task) for task in tasks]

    def cat(key):
        return np.concatenate([r[key] for r in results])

    trace = None
    if collect_trace:
        offsets = np.cumsum([0] + sizes[:-1])
        path = np.concatenate(
            [r["trace"][0] + off for r, off in zip(results, offsets)]
        )
        trace = (
            path,
            np.concatenate([r["trace"][1] for r in results]),
            np.concatenate([r["trace"][2] for r in results]),
            np.concatenate([r["trace"][3] for r in results]),
        )

    return PathBatch(
        p=chain.p,
        lam=lam,
        seed=seed,
        chunk=chunk,
        tau=cat("tau"),
        pre_exit=cat("pre_exit"),
        landing=cat("landing"),
        sign=cat("sign"),
        n_jumps=cat("n_jumps"),
        trace=trace,
    )
