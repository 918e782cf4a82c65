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
fixed chunks and allocates the output columns once; each chunk writes only
its own slice of them, which makes the output independent of how many worker
threads execute the chunks.

There is one simulator, ``simulate_batch``, and it works on integer codes
only: transient states are ``0..p-1`` (original) and ``p..2p-1`` (anti), the
categorical targets ``2p..2p+2`` are the landings, stored in a batch as
landing codes ``0/1/2`` (positive absorption / negative absorption /
termination).  ``code_label`` names a code for traces.  Indices are 0-based
throughout.

One sampler, ``_draw_targets``, makes every categorical draw: a path's first
state from a one-row table of the initial law, and each jump's target from
the row of the state it leaves.  It uses branchless bisection, so a jump
costs ``O(log p)`` whatever the width ``W = 2p + 3`` of the target table.
``JumpChain`` pads every cumulative row to ``P2 = 2**shift`` columns, the
smallest power of two above ``W``, with ``+inf`` and stores the rows flat.
Bisection then finds the number of entries ``<= u`` in ``log2(P2)`` vectorized
gathers.  That count is the index a linear scan of the row would give, ties
included, because a cumsum of non-negative weights is non-decreasing even
after rounding, and the padding exceeds every uniform ``u < 1``.  So a
stream yields the same paths under either method.  The clamp to a row's last
positive target lives in the table too: the row is ``+inf`` from that column
on, so a row sum rounded below 1 can never yield a zero-weight target.

Each iteration of the chunk loop draws all its uniforms in one call, holding
times first, then targets.  It finds the exiting paths once, as an index
list, and both writes their outcomes and compacts the survivors by gathering
through index lists, which costs far less than boolean-mask indexing with
scattered ``True``s.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NotTransientError
from .splitting import InitialSplit, SignSplit, admit_rate, build_generator

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


def _padded_table(cum: np.ndarray, last: np.ndarray):
    """Rows of ``cum`` padded with ``+inf`` to ``2**shift`` columns, the
    smallest power of two above the row width, flattened C-contiguous.
    Returns ``(table, shift)``.

    Each row is also ``+inf`` from its column ``last`` onwards.  The row
    stays non-decreasing, so its count of entries ``<= u`` is the count of
    ``cum`` clamped to ``last``: below ``last`` nothing changed, and at or
    above it every entry before ``last`` is ``<= u`` and none after."""
    rows, width = cum.shape
    shift = width.bit_length()
    table = np.full((rows, 1 << shift), np.inf)
    table[:, :width] = cum
    table[np.arange(1 << shift) >= last[:, None]] = np.inf
    return table.ravel(), shift


def _draw_targets(table, shift, state, u):
    """Target index of each jump from ``state`` with uniform ``u``: the count
    of row entries ``<= u`` in the padded rows of ``_padded_table``, hence
    never past the row's last positive target.

    Branchless bisection: each of the ``shift`` steps adds ``step`` to the
    offset exactly when the entry just before ``offset + step`` is ``<= u``.
    """
    pos = state << shift
    step = 1 << (shift - 1)
    while step:
        pos += step * (table.take(pos + (step - 1)) <= u)
        step >>= 1
    pos &= (1 << shift) - 1
    return pos


class JumpChain:
    """Compiled jump tables for one (split, lam) pair.

    Admits ``lam`` through ``splitting.admit_rate``, then holds the
    per-state exit rates and the padded cumulative target table (see
    ``_padded_table``) that ``simulate_batch`` samples from.
    """

    def __init__(self, split: SignSplit, lam: float):
        admit_rate(split, lam)
        gen = build_generator(split, lam)
        p = split.p
        self.p = p
        self.lam = lam
        self.rate = -np.diag(gen.D).copy()
        # transience rules out a transient state that is never left
        if not np.all(self.rate > 0.0):
            stuck = code_label(int(np.argmin(self.rate)), p)
            raise NotTransientError(f"state {stuck} has zero total exit rate at rate {lam:g}")
        weights = np.zeros((2 * p, 2 * p + 3))
        weights[:, : 2 * p] = np.maximum(gen.D, 0.0)  # off-diagonal jump rates
        weights[:, 2 * p] = gen.abs_o
        weights[:, 2 * p + 1] = gen.abs_a
        weights[:, 2 * p + 2] = gen.term
        self.table, self.shift = _padded_table(*_cum_and_last(weights))


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


def _simulate_chunk(chain, first, alive, rng, columns, collect_trace):
    """Vectorized embedded-chain simulation, on one stream, of the paths whose
    global indices are ``alive``; each path's outcome is written at its index
    in ``columns`` = ``(tau, pre_exit, landing, n_jumps)``.

    The first state is drawn from ``first``, the one-row table of the initial
    law, and every jump's target from the chain's rows, both by
    ``_draw_targets``.  Per iteration, every active path consumes exactly two
    uniforms (holding time, categorical target) in path order, so the draw
    sequence depends only on the chunk itself.  Returns the chunk's trace
    parts ``(path, time, from, to)``, one per iteration, or ``[]``.
    """
    tau, pre_exit, landing, n_jumps = columns
    two_p = 2 * chain.p
    state = _draw_targets(*first, np.zeros(alive.size, dtype=np.int64), rng.random(alive.size))
    t = np.zeros(alive.size)
    trace_parts = []

    iteration = 0
    while alive.size:
        k = alive.size
        # one call yields the holding-time uniforms, then the target uniforms,
        # in the order two calls of k would, so every stream is unchanged
        u = rng.random(2 * k)
        dt, u2 = u[:k], u[k:]
        np.negative(dt, out=dt)
        np.log1p(dt, out=dt)
        np.negative(dt, out=dt)
        dt /= chain.rate.take(state)
        t_new = t + dt
        nxt = _draw_targets(chain.table, chain.shift, state, u2)
        if collect_trace:
            # every array here is rebound, never written, by later iterations
            trace_parts.append((alive, t_new, state, nxt))
        iteration += 1
        exited = nxt >= two_p
        out = np.flatnonzero(exited)
        if out.size:
            done = alive.take(out)
            tau[done] = t_new.take(out)
            pre_exit[done] = state.take(out)
            landing[done] = nxt.take(out) - two_p
            n_jumps[done] = iteration
            keep = np.flatnonzero(~exited)
            alive = alive.take(keep)
            state = nxt.take(keep)
            t = t_new.take(keep)
        else:
            state = nxt
            t = t_new
    return trace_parts


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

    Path k is generated from ``RngStream(seed, k // chunk)``.  One sampler,
    ``_draw_targets``, draws each path's first state from the initial law
    ``(alphahat^+, alphahat^-)`` and every jump's target.  The output columns
    are allocated once and each chunk writes only its own slice of them, so
    results are bit-identical for fixed ``(seed, n_paths, chunk)`` whatever
    the worker count.
    """
    if n_paths <= 0:
        raise ValueError("n_paths must be positive")
    if chunk <= 0:
        raise ValueError("chunk must be positive")
    chain = JumpChain(split, lam)
    init_weights = np.concatenate([init.alphahat_plus, init.alphahat_minus])
    first = _padded_table(*_cum_and_last(init_weights[None, :]))
    columns = (
        np.empty(n_paths),
        np.empty(n_paths, dtype=np.int32),
        np.empty(n_paths, dtype=np.int8),
        np.empty(n_paths, dtype=np.int32),
    )

    def run(lo):
        rng = RngStream(seed, lo // chunk).generator()
        paths = np.arange(lo, min(lo + chunk, n_paths), dtype=np.int64)
        return _simulate_chunk(chain, first, paths, rng, columns, collect_trace)

    starts = range(0, n_paths, chunk)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, starts))
    else:
        parts = [run(lo) for lo in starts]

    trace = None
    if collect_trace:
        rows = [part for chunk_parts in parts for part in chunk_parts]
        path, times, frm, to = (np.concatenate(col) for col in zip(*rows))
        order = np.lexsort((times, path))
        trace = (path[order], times[order], frm[order], to[order])

    tau, pre_exit, landing, n_jumps = columns
    return PathBatch(
        p=chain.p,
        chunk=chunk,
        tau=tau,
        pre_exit=pre_exit,
        landing=landing,
        sign=_SIGN_OF_LANDING[landing],
        n_jumps=n_jumps,
        trace=trace,
    )
