"""Terminating Markov jump process on the doubled original/anti state space.

The embedded-chain scheme draws, per jump, one exponential holding time at the
state's total exit rate and one categorical draw over the targets: the other
transient states (rates from the off-diagonals of the doubled block), the two
absorbing states (rates ``s^+ / s^-``, swapped on the anti side), and an
explicit *terminated* pseudo-state carrying the row defect.  Every path
therefore has a well-defined exit time ``tau``, pre-exit state and landing,
and a sign of +1 / -1 / 0 according to whether it landed in the positive
absorbing state, the negative one, or was terminated; a batch reads the sign
off the landing.  ``JumpChain`` compiles the doubled chain it is handed once
``splitting.admit_rate`` has checked it: nothing here builds a chain.

Randomness is pinned for reproducibility: streams are numpy ``PCG64DXSM``
bit generators keyed by ``SeedSequence(seed, spawn_key=(stream_index,))``,
and every variate is derived from 53-bit uniforms by inverse transform (no
ziggurat), so identical ``(seed, stream_index)`` always reproduce identical
paths.  Each uniform takes one 64-bit output, and the stream advances one
step per output, so a fresh stream skips ``n`` uniforms in one ``advance``.
``simulate_batch`` assigns paths to streams in fixed chunks and allocates the
output columns once; each chunk writes only its own slice of them, which
makes the output independent of how many worker threads execute the chunks.
The workers are plain ``threading.Thread``s, the calling thread one of them,
so a run loads no thread pool.

There is one simulator, ``simulate_batch``, and it works on integer codes
only: transient states are ``0..p-1`` (original) and ``p..2p-1`` (anti), the
categorical targets ``2p..2p+2`` are the landings, landing codes ``0/1/2``
(positive absorption / negative absorption / termination).  A batch stores
each path's pre-exit state and landing as one exit code ``3 * pre_exit +
landing``, so the estimators count ``(bin, exit)`` pairs from one column.
``JumpChain`` encodes it, in the answers of its table: a draw answers with
the next transient state, or with the complemented exit code when the path
lands, so a draw is an exit exactly when it is negative.
``split_exit_code`` is the one decode of that layout and ``n_exit_codes``
the number of codes.  Indices are 0-based throughout.

One guide table per chain holds every categorical row: the ``2p`` rows of
the transient states, and a start row ``2p`` holding the initial law, whose
landing columns are zero.  One sampler, ``_draw_targets``, makes every draw
from it: a path's first state as a jump from the start row, and each jump's
target from the row of the state it leaves.  A point-mass initial law, as
the paper's ``alpha = (1, 0, 0)``, draws no first state: each chunk's fresh
stream skips the uniforms that draw would use (``_skip_uniforms``), so its
paths stay the same to the bit.  It is an indexed search over the guide
table (Chen & Asau 1974), so a jump costs three vectorized gathers
whatever the width ``W = 2p + 3`` of the target rows.  ``_guide_table`` keeps, per row,
the distinct cumulative values before the row's last positive target, so the
ties that zero weights make collapse into one value.  With ``P2 = 2**shift``
the smallest power of two above ``W``, each of ``G = 2 P2`` equal buckets of
``[0, 1)`` stores how many distinct values lie at or below its left edge; one
comparison with the bucket's next value completes the count, and an answer
row maps it back to a target.  The result is the number of row entries
``<= u`` clamped to the last positive target: the index a linear scan of the
row would give, ties included, because a cumsum of non-negative weights is
non-decreasing even after rounding.  So every stream yields the paths a linear
scan would, and a row sum rounded below 1 can never yield a zero-weight
target.  A bucket holding two or more distinct values is flagged in the
guide; the few draws that land in one count the values of that bucket alone,
by a bisection over a window as wide as the widest bucket.

Each worker runs the chunks it takes as one pipeline (``_simulate_chunks``):
it takes its next chunk once at most ``chunk // 8`` of its paths are live,
and one loop iteration advances every chunk in flight.  Run one at a time,
a chunk's last few live paths would each cost a whole iteration, whose fixed
numpy and Python overhead outweighs the work of thousands of live paths; on
the benchmark's wide model (200 000 paths in chunks of 65536, seed 5) the
pipeline runs 239 iterations where one chunk at a time runs 592.  The live
arrays hold one segment per chunk, and each chunk draws its uniforms from
its own stream, holding times first, then targets, exactly as it would
alone.  Each iteration finds the exiting paths once, as an index list, and
both writes their outcomes and compacts the survivors by gathering through
index lists, which costs far less than boolean-mask indexing with scattered
``True``s.

Each worker runs its chunks in one ``_Arena`` of ``chunk + chunk // 8``
slots of 81 B, allocated once per ``simulate_batch`` call, which every
iteration writes its intermediates into (``out=`` arguments, and
``take(..., mode="wrap")``, since ``take`` copies through a hidden buffer
under the default ``mode="raise"``).  Only the index lists of exiting and
surviving paths and the arrays of crowded draws are allocated per iteration,
so a fresh process does not fault a chunk's temporaries back in on every
iteration.
"""

from __future__ import annotations

import threading

import numpy as np

from .records import Record
from .splitting import DoubledGenerator, InitialSplit, admit_rate

#: Paths per random stream in simulate_batch.
DEFAULT_CHUNK = 65536

#: Most worker threads a simulate_batch call may run, refused before any starts.
MAX_WORKERS = 64

#: Most paths a simulate_batch call may ask for: numpy's largest array length.
MAX_PATHS = int(np.iinfo(np.intp).max)

#: Sign of landing codes 0/1/2: positive, negative absorption, termination.
SIGN_OF_LANDING = np.array([1, -1, 0], dtype=np.int8)


def check_run_shape(n_paths: int, seed: int, chunk: int, workers: int):
    """Refuse a run shape that cannot be simulated, for every caller."""
    if n_paths <= 0:
        raise ValueError("n_paths must be positive")
    if n_paths > MAX_PATHS:
        raise ValueError(f"n_paths must be at most {MAX_PATHS}, numpy's largest array length")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if chunk <= 0:
        raise ValueError("chunk must be positive")
    if workers <= 0:
        raise ValueError("workers must be positive")
    if workers > MAX_WORKERS:
        raise ValueError(f"workers must be at most {MAX_WORKERS}")


def n_exit_codes(p: int) -> int:
    """The number of exit codes of a chain on ``p`` states: ``2p`` pre-exit
    states times three landings."""
    return 6 * p


def split_exit_code(code):
    """The pre-exit state and the landing (int8) of an exit code ``3 *
    pre_exit + landing``, the inverse of the encode in ``JumpChain``'s
    answer rows."""
    pre_exit = code // 3
    # numpy's floor division by a constant is several times faster than %
    return pre_exit, (code - 3 * pre_exit).astype(np.int8)


def stream_slices(n_paths: int, chunk: int) -> list:
    """Each random stream's slice of the paths, in order: path k is in stream k // chunk."""
    return [slice(lo, min(lo + chunk, n_paths)) for lo in range(0, n_paths, chunk)]


class RngStream(Record):
    """Pinned random stream: PCG64DXSM keyed by (seed, stream_index).

    Distinct stream indices yield statistically independent streams; identical
    (seed, index) pairs reproduce identical draws.  PCG64DXSM advances one
    step per 64-bit output in one call, so a fresh stream skips uniforms
    exactly (``_skip_uniforms``).
    """

    seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.PCG64DXSM(ss))


def _skip_uniforms(rng: np.random.Generator, n: int):
    """Skip a fresh stream's next ``n`` uniforms: a double takes one 64-bit
    output, and PCG64DXSM advances one step per output."""
    rng.bit_generator.advance(n)


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


class GuideTable(Record):
    """Indexed-search tables for categorical draws over the rows of ``cum``,
    each clamped to its last positive target (see ``_guide_table``).

    Row ``r`` of ``values`` holds the distinct entries of ``cum[r, :last[r]]``
    in increasing order, then ``+inf``, in ``S`` slots; ``answer`` has the
    same layout and maps ``k`` distinct values ``<= u`` to the answer of column
    ``min(count of cum[r] <= u, last[r])``.  ``guide`` has ``G + 2`` entries
    per row, ``G = 2**(shift + 1)`` with ``2**shift`` the smallest power of
    two above the row width: entry ``b <= G`` is the flat ``values`` index of
    the first distinct value above ``b / G``, or its bitwise complement when
    the bucket ``(b / G, (b + 1) / G]`` holds two or more distinct values
    (entry ``G``: two or more above 1); entry ``G + 1`` is never read.  No
    bucket holds more than ``2**window_bits - 1`` values, and ``S`` is the
    most distinct values of a row plus ``2**window_bits``, so a window of
    ``2**window_bits - 1`` slots from any value ends inside its row.
    """

    guide: np.ndarray
    values: np.ndarray
    answer: np.ndarray
    shift: int
    window_bits: int


def _guide_table(cum: np.ndarray, last: np.ndarray, answers: np.ndarray) -> GuideTable:
    """Guide table over the distinct values of each row of ``cum`` before its
    column ``last``, answering a draw of column ``c`` in row ``r`` with
    ``answers[r, c]``.  A cumsum of non-negative weights is non-decreasing
    even after rounding, so a value is new exactly when it differs from its
    left neighbour, and ``min(count of cum <= u, last)`` is the column where
    the first distinct value ``> u`` starts, or ``last`` if there is none."""
    rows, width = cum.shape
    shift = width.bit_length()
    n_buckets = 2 << shift
    new = np.arange(width) < last[:, None]
    new[:, 1:] &= cum[:, 1:] != cum[:, :-1]
    at = np.flatnonzero(new)
    row = at // width
    value = cum.ravel().take(at)
    # distinct values before each row, so row r holds count[r]
    start = np.searchsorted(row, np.arange(rows + 1))
    count = np.diff(start)
    # a value d is <= b / G exactly when b >= ceil(d G), and d G is exact;
    # every value above 1 goes to column G + 1, counted by no bucket
    stride = n_buckets + 2
    key = row * stride + np.minimum(np.ceil(value * n_buckets), n_buckets + 1).astype(np.int64)
    # keys are sorted, so two values in one bucket are neighbours
    crowd = key[1:][key[1:] == key[:-1]] - 1
    guide = np.bincount(key, minlength=rows * stride)
    window_bits = int(guide.max()).bit_length()
    slots = int(count.max()) + (1 << window_bits)
    flat = np.arange(at.size) + (row * slots - start.take(row))
    values = np.full(rows * slots, np.inf)
    values[flat] = value
    answer = np.repeat(answers[np.arange(rows), last], slots)
    answer[flat] = answers.ravel().take(at)
    # one running sum over all rows: lifting each row's column 0 by what it
    # takes to reach r * slots starts row r's counts at its values row
    guide[stride::stride] += slots - count[:-1]
    np.cumsum(guide, out=guide)
    guide[crowd] = ~guide[crowd]
    return GuideTable(guide, values, answer, shift, window_bits)


def _draw_targets(table: GuideTable, state, u, out, arena):
    """The ``answer`` of each jump from ``state`` with uniform ``u`` in
    ``[0, 1 + 1/G)``, at the count of entries ``<= u`` in the row of
    ``cum``, clamped to the row's last positive target.  Writes the answers
    into ``out``, an int64 array of ``state``'s size apart from ``state`` and
    from ``arena``'s scratch arrays (``floats``, ``ints``, ``mask``), which
    it overwrites, and returns ``out``.

    Bucket ``b = floor(u G)`` holds ``u`` in ``[b / G, (b + 1) / G)``, and
    ``u >= 1`` has bucket ``G`` of its own; ``G`` is a power of two, so
    ``u G`` is exact.  The guide gives the distinct values ``<= b / G``, one
    comparison adds the bucket's own value if it is ``<= u``, and ``answer``
    maps that count to the target: three gathers.  A draw into a crowded
    bucket counts the bucket's values from the first, by branchless
    bisection over ``window_bits`` more gathers, each step adding ``step``
    to the offset exactly when the value just before ``offset + step`` is
    ``<= u``; the window's values past the bucket's are above ``u``.
    """
    k = state.size
    ints, floats, mask = arena.ints[:k], arena.floats[:k], arena.mask[:k]
    buckets = 2 << table.shift
    np.multiply(u, buckets, out=out, casting="unsafe")
    out += np.multiply(state, buckets + 2, out=ints)
    pos = table.guide.take(out, out=ints, mode="wrap")
    crowd = np.flatnonzero(np.less(pos, 0, out=mask))
    fix = ~pos.take(crowd)
    # a complemented entry is a valid negative index; its draw is redone below
    pos += np.less_equal(table.values.take(pos, out=floats, mode="wrap"), u, out=mask)
    if crowd.size:
        v = u.take(crowd)
        step = 1 << (table.window_bits - 1)
        while step:
            fix += step * (table.values.take(fix + (step - 1)) <= v)
            step >>= 1
        pos[crowd] = fix
    return table.answer.take(pos, out=out, mode="wrap")


class JumpChain:
    """Compiled jump tables for one doubled chain ``gen`` and initial law ``init``.

    Checks ``gen`` with ``splitting.admit_rate``, the one rate gate, and
    compiles it: the per-state exit rates, negated (the diagonal of ``D``),
    and one guide table (see ``_guide_table``) over the ``2p`` target rows of
    the transient states and the start row ``2p``, the initial law
    ``(alphahat^+, alphahat^-)``, which ``simulate_batch`` samples from.  It
    gives the table each cell's answer: a transient target itself, and landing
    ``0/1/2`` from state ``i`` the complemented exit code ``~(3 * i +
    landing)``.  This is where exit codes are encoded, so a draw is an exit
    exactly when it is negative.  ``start`` is the state of an initial law
    with one positive weight, else None.
    """

    def __init__(self, gen: DoubledGenerator, init: InitialSplit):
        admit_rate(gen)
        self.p = p = gen.d.size
        self.neg_rate = np.diag(gen.D).copy()
        start = init.alphahat
        weights = np.zeros((2 * p + 1, 2 * p + 3))
        weights[:-1, : 2 * p] = np.maximum(gen.D, 0.0)  # off-diagonal jump rates
        weights[:-1, 2 * p] = gen.abs_o
        weights[:-1, 2 * p + 1] = gen.abs_a
        weights[:-1, 2 * p + 2] = gen.term
        weights[-1, : 2 * p] = start
        self.start = int(start.argmax()) if np.count_nonzero(start > 0.0) == 1 else None
        cum, last = _cum_and_last(weights)
        # numpy's pairwise sum may round the start row's total differently
        # over the 2p + 3 columns than over the 2p of the initial law itself
        cum[-1, : 2 * p] = np.cumsum(start / start.sum())
        # the start row's landing columns are zero, so none of its answers exits
        answers = np.tile(np.arange(2 * p + 3), (2 * p + 1, 1))
        answers[:, 2 * p :] = ~(3 * np.arange(2 * p + 1)[:, None] + np.arange(3))
        self.table = _guide_table(cum, last, answers)


class PathBatch(Record):
    """Column-oriented collection of path outcomes.

    ``exit_code`` holds each path's exit, ``3 * pre_exit + landing``, in one
    of ``6p`` codes: ``pre_exit`` is the transient code (0..2p-1) it left,
    ``landing`` the code 0/1/2 of positive absorption / negative absorption /
    termination, and ``sign`` the sign of the landing; all three are read
    off the exit code.  ``trace`` (present when tracing) is a tuple of
    arrays (path_index, time, from_code, to_code) sorted by path then time;
    the state held at time ``x`` is the ``from_code`` of a path's first row
    with time ``> x``.
    """

    p: int
    chunk: int
    tau: np.ndarray
    exit_code: np.ndarray
    n_jumps: np.ndarray
    trace: tuple | None = None

    def __len__(self) -> int:
        return self.tau.shape[0]

    @property
    def pre_exit(self) -> np.ndarray:
        """Each path's pre-exit state, a transient code (int32)."""
        return split_exit_code(self.exit_code)[0]

    @property
    def landing(self) -> np.ndarray:
        """Each path's landing code 0/1/2 (int8)."""
        return split_exit_code(self.exit_code)[1]

    @property
    def sign(self) -> np.ndarray:
        """Each path's landing sign, +1 / -1 / 0."""
        return SIGN_OF_LANDING.take(self.landing)

    def chunk_slices(self):
        """Slices of the generation chunks, in order; estimator folds follow
        this blocking so chunked and whole-batch reductions agree exactly."""
        return stream_slices(len(self), self.chunk)


class _Arena:
    """One worker's buffers, reused by every chunk it runs.  The worker
    admits its next chunk once at most ``admit_at = chunk // 8`` paths are
    live, so ``chunk + chunk // 8`` slots hold every path in flight.  Per
    slot (81 B): the uniforms (two), which double as the holding and exit
    times; one float, one int64 and one bool scratch array; the running
    times; two int64 state buffers (the state, and the next), two int64
    path-index buffers (the live paths, and their compaction, swapped per
    iteration) and the int64 ramp ``0, 1, ...``, which a joining chunk
    offsets to its path indices."""

    def __init__(self, chunk: int):
        self.admit_at = chunk // 8
        n = chunk + self.admit_at
        self.uniforms = np.empty(2 * n)
        self.floats = np.empty(n)
        self.ints = np.empty(n, dtype=np.int64)
        self.mask = np.empty(n, dtype=bool)
        self.times = np.empty(n)
        self.states = (np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64))
        self.paths = (np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64))
        self.ramp = np.arange(n, dtype=np.int64)


def _simulate_chunks(chain, chunks, columns, arena, collect_trace):
    """Vectorized embedded-chain simulation of the chunks ``(lo, hi, rng)``
    that ``chunks`` yields, run as a pipeline in ``arena``: the paths
    ``lo..hi-1`` of a chunk all draw from its stream ``rng``, and each
    path's outcome is written at its index in ``columns`` = ``(tau,
    exit_code, n_jumps)``.

    The next chunk is taken, and its paths join the live ones, whenever at
    most ``arena.admit_at`` paths are live, so a chunk's tail of few live
    paths drains while the next chunk runs beside it.  The live arrays hold
    one contiguous segment per chunk in flight, in the order they were
    taken; compaction keeps that order, and one ``searchsorted`` of the
    surviving indices moves the segment bounds.  A path's first state is
    drawn when its chunk joins, as a jump from the start row ``2p`` of the
    chain's table, and every jump's target from the row of the state it
    leaves, both by ``_draw_targets``; the chain's point-mass ``start``, if
    it has one, is taken without a draw.  Per iteration, each chunk draws from
    its own stream the holding-time uniforms of its live paths, then their
    target uniforms, in path order: the draws of one call of ``2k``, so the
    draw sequence depends only on the chunk itself.  Paths of different
    chunks never interact and every step is elementwise, so a path's
    outcome is the one its chunk would give run alone.  ``n_jumps`` is
    written as the pipeline's iteration, and each chunk's slice less the
    iterations before it joined once the chunk has drained.

    A draw that is negative is an exit, and its complement the exit code
    (see ``JumpChain``).  Returns the trace parts ``(path, time, from,
    answer)``, one per iteration, or ``[]``.
    """
    tau, exit_code, n_jumps = columns
    state_buf, next_buf = arena.states
    path_buf, spare_buf = arena.paths
    flight = []  # (lo, hi, rng, iterations before it joined) per segment
    edges = [0]  # segment i of the live arrays is edges[i]:edges[i + 1]
    k = 0
    iteration = 0
    trace_parts = []
    while True:
        while k <= arena.admit_at:
            taken = next(chunks, None)
            if taken is None:
                break
            lo, hi, rng = taken
            new = np.add(arena.ramp[: hi - lo], lo, out=path_buf[k : k + hi - lo])
            if chain.start is None:
                origin = next_buf[: new.size]
                origin.fill(2 * chain.p)
                u = rng.random(out=arena.uniforms[: new.size])
                _draw_targets(chain.table, origin, u, state_buf[k : k + new.size], arena)
            else:
                state_buf[k : k + new.size] = chain.start
                _skip_uniforms(rng, new.size)
            arena.times[k : k + new.size] = 0.0
            flight.append((lo, hi, rng, iteration))
            k += new.size
            edges.append(k)
        if not k:
            return trace_parts
        iteration += 1
        alive, state, t = path_buf[:k], state_buf[:k], arena.times[:k]
        t_new, u2 = arena.uniforms[:k], arena.uniforms[k : 2 * k]
        for (_, _, rng, _), a, b in zip(flight, edges, edges[1:]):
            rng.random(out=t_new[a:b])
            rng.random(out=u2[a:b])
        # the holding time log1p(-u) / -rate, then the exit time t + dt
        np.negative(t_new, out=t_new)
        np.log1p(t_new, out=t_new)
        t_new /= chain.neg_rate.take(state, out=arena.floats[:k], mode="wrap")
        t_new += t
        nxt = _draw_targets(chain.table, state, u2, next_buf[:k], arena)
        if collect_trace:
            # the arena's buffers are overwritten by the next iteration
            trace_parts.append((alive.copy(), t_new.copy(), state.copy(), nxt.copy()))
        gone = np.flatnonzero(np.less(nxt, 0, out=arena.mask[:k]))
        m = gone.size
        # the exit codes as int32, in floats until tau takes it
        codes = np.invert(
            nxt.take(gone, out=arena.ints[:m], mode="wrap"),
            out=arena.floats.view(np.int32)[:m],
        )
        done = alive.take(gone, out=arena.ints[:m], mode="wrap")
        exit_code[done] = codes
        tau[done] = t_new.take(gone, out=arena.floats[:m], mode="wrap")
        n_jumps[done] = iteration
        del gone  # so the two index lists are never held at once
        keep = np.flatnonzero(np.greater_equal(nxt, 0, out=arena.mask[:k]))
        k = keep.size
        alive.take(keep, out=spare_buf[:k], mode="wrap")
        path_buf, spare_buf = spare_buf, path_buf
        nxt.take(keep, out=state_buf[:k], mode="wrap")
        t_new.take(keep, out=arena.times[:k], mode="wrap")
        edges = keep.searchsorted(edges).tolist()
        for i in range(len(flight) - 1, -1, -1):
            if edges[i] == edges[i + 1]:  # the chunk has drained
                lo, hi, _, before = flight.pop(i)
                del edges[i + 1]
                if before:
                    n_jumps[lo:hi] -= before


def simulate_batch(
    gen: DoubledGenerator,
    init: InitialSplit,
    n_paths: int,
    seed: int,
    chunk: int = DEFAULT_CHUNK,
    workers: int = 1,
    collect_trace: bool = False,
) -> PathBatch:
    """Simulate ``n_paths`` outcomes of the chain ``gen`` with reproducible chunked streams.

    Path k comes from stream ``k // chunk`` (``stream_slices``).  One sampler,
    ``_draw_targets``, draws each path's first state from the initial law
    ``(alphahat^+, alphahat^-)``, unless it is a point mass, and every jump's
    target, all from the chain's one guide table.  The output columns are
    allocated once and each chunk writes only its own slice of them, so results
    are bit-identical for fixed ``(seed, n_paths, chunk)`` whatever the worker
    count.  Each of the ``min(workers, n_chunks)`` workers takes the next chunk
    until none is left, and runs the chunks it takes as one pipeline
    (``_simulate_chunks``) in its own ``_Arena`` for chunks of ``min(chunk,
    n_paths)`` paths, taking the next chunk while the last one drains.  The
    calling thread is the first worker and starts a ``threading.Thread`` for
    each other one; once all have stopped, the first failing worker's
    exception, if any, is raised.  If a thread fails to start, no more chunks
    are handed out, and its error is raised once the workers already started
    have stopped.
    """
    check_run_shape(n_paths, seed, chunk, workers)
    chain = JumpChain(gen, init)
    columns = (  # tau, exit_code, n_jumps: PathBatch's columns in field order
        np.empty(n_paths),
        np.empty(n_paths, dtype=np.int32),
        np.empty(n_paths, dtype=np.int32),
    )
    slices = stream_slices(n_paths, chunk)
    indices = iter(enumerate(slices))
    lock = threading.Lock()

    def taken():
        """The chunks a worker takes, each with its stream, until none is left."""
        while True:
            with lock:
                index, paths = next(indices, (None, None))
            if index is None:
                return
            yield paths.start, paths.stop, RngStream(seed, index).generator()

    # worker i's trace parts, or the exception it raised
    results = [None] * min(workers, len(slices))

    def run(i):
        try:
            arena = _Arena(min(chunk, n_paths))
            results[i] = _simulate_chunks(chain, taken(), columns, arena, collect_trace)
        except BaseException as exc:  # re-raised below, once every worker has stopped
            results[i] = exc

    threads = []
    try:
        for i in range(1, len(results)):
            thread = threading.Thread(target=run, args=(i,))
            thread.start()
            threads.append(thread)
        run(0)
    except BaseException:  # a thread failed to start: hand out no more chunks
        with lock:
            indices = iter(())  # the name taken() reads
        raise
    finally:
        for thread in threads:
            thread.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    batch = PathBatch(chain.p, chunk, *columns)
    if not collect_trace:
        return batch
    parts = [part for result in results for part in result]
    # a path's rows all come from one chunk in time order, so a stable sort by
    # path keeps that order, whatever order the workers ran the chunks in
    path, times, frm, to = (np.concatenate(col) for col in zip(*parts))
    order = np.argsort(path, kind="stable")
    path, times, frm, to = path[order], times[order], frm[order], to[order]
    # a path's last row answers with its complemented exit code; its target
    # is the landing's code 2p + landing
    exits = to < 0
    to[exits] = split_exit_code(~to[exits])[1]
    to[exits] += 2 * chain.p
    return PathBatch(chain.p, chunk, *columns, trace=(path, times, frm, to))
