"""Seeded Monte Carlo engine: independent scheduler walks through the chain.

Every walk owns its own Philox stream keyed by ``(seed, walk index)``, so a
simulation is bit-reproducible and its result does not depend on tile size,
worker count, or execution order.  Walk ``w`` consumes its draws in a fixed
order: draw 0 picks the initial state by inverse CDF over ``(P1..Pm, D)``,
and draw ``t`` decides quantum ``t`` by inverse CDF over the fixed category
order (advance, stay, retreat, deadlock).  That category order is part of
the external contract.  Absorbed walks keep drawing (and discarding), so a
walk's path is a pure function of ``(seed, walk, params, init)`` and extends
unchanged under a longer horizon.

Walks are swept in tiles of at most ``_TILE_BUDGET`` draws, with no Python
loop over quanta, so :func:`simulate` and :func:`absorption_times` need
their outputs plus a fixed few MB at any horizon.  Philox is counter based,
so a walk longer than one tile resumes its stream where the previous time
block ended and sees exactly the draws it would see in one piece.  For the
same reason tiles are independent: on a host with more than one CPU, long
tiles are shared by the calling thread and one helper thread, and the worker
count changes no draw and no output bit (Salmon et al., "Parallel Random
Numbers: As Easy as 1, 2, 3", SC'11).
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .model import (
    DimensionError,
    Distribution,
    ParameterError,
    SchemeParams,
    _check_int,
)
from .schemes import SchemePreset

__all__ = [
    "CENSORED",
    "SimConfig",
    "OccupancyEstimate",
    "AbsorptionSample",
    "simulate",
    "absorption_times",
]

#: Marker used in first-hit arrays for walks never absorbed within the horizon.
CENSORED = -1

#: Censored fraction above which the empirical mean is flagged as biased low.
CENSOR_WARN_FRACTION = 1e-3

#: Draws held in memory at once by one worker of the sweep: a tile of walks x
#: quanta holds at most this many (a time block of two workers half as many),
#: and one bincount into ``counts`` covers at most this many cells.  Any value
#: of at least 4 yields identical results.
_TILE_BUDGET = 1 << 16

#: Shortest tile, in quanta, that two workers share.  A worker rekeys the
#: Philox stream of every walk holding the GIL, so on tiles of shorter walks
#: the two workers mostly wait for each other: measured on 2 vCPUs with the
#: state-struct rekey, two workers were slower at 800 quanta and faster from
#: 1000 on.
_PARALLEL_SPAN = 1000


def _spare_cpu() -> bool:
    """True when this process may run on more than one CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Parameters of one simulation: chain, start law, horizon, walks, seed."""

    params: SchemeParams
    init: Distribution
    n_quanta: int
    n_walks: int
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_quanta", _check_int(self.n_quanta, "quanta", 1))
        object.__setattr__(self, "n_walks", _check_int(self.n_walks, "walks", 1))
        seed = _check_int(self.seed, "seed", 0)
        if seed >= 2 ** 64:
            raise ParameterError("seed must fit in 64 bits")
        object.__setattr__(self, "seed", seed)
        if self.init.m != self.params.m:
            raise DimensionError(
                f"initial distribution has m={self.init.m} but params have m={self.params.m}"
            )

    @classmethod
    def from_preset(
        cls, preset: SchemePreset, *, n_quanta: int, n_walks: int, seed: int = 0
    ) -> "SimConfig":
        return cls(preset.params, preset.init, n_quanta, n_walks, seed)


@dataclass(frozen=True, eq=False)
class OccupancyEstimate:
    """Per-quantum state occupancy counts over all walks.

    ``counts[t, j]`` is the number of walks in state ``j`` (columns ordered
    P1..Pm, D) at quantum ``t``; every row sums to ``n_walks``.  Counts must
    have an integer dtype.  A read-only int64 array is kept as given, so
    :func:`simulate` hands over its result without a second copy; anything
    else is copied.
    """

    counts: np.ndarray
    n_walks: int

    def __post_init__(self) -> None:
        n_walks = _check_int(self.n_walks, "n_walks", 1)
        counts = np.asarray(self.counts)
        if counts.dtype.kind not in "iu":
            raise ParameterError(f"counts must hold integers, got dtype {counts.dtype}")
        counts = counts.astype(np.int64, copy=False)
        if counts.flags.writeable:
            counts = counts.copy()
            counts.flags.writeable = False
        if counts.ndim != 2 or counts.shape[0] < 1 or counts.shape[1] < 3:
            raise DimensionError(
                "counts must be a (quanta + 1) x (m + 1) matrix with m >= 2"
            )
        # checked in row blocks, so a long horizon needs no horizon-sized temporary
        for lo in range(0, counts.shape[0], _TILE_BUDGET):
            block = counts[lo : lo + _TILE_BUDGET]
            if np.minimum.reduce(block, axis=None, initial=0) < 0:
                raise ParameterError("counts must be non-negative")
            if np.any(block.sum(axis=1) != n_walks):
                raise ParameterError("every counts row must sum to n_walks")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n_walks", n_walks)

    @property
    def n_quanta(self) -> int:
        return self.counts.shape[0] - 1

    @property
    def frequencies(self) -> np.ndarray:
        """Counts normalized to per-quantum relative frequencies."""
        return self.counts / float(self.n_walks)


@dataclass(frozen=True, eq=False)
class AbsorptionSample:
    """First deadlock-hit quantum per walk, censored at the horizon.

    ``first_hit[w]`` is the first quantum at which walk ``w`` was in D, or
    :data:`CENSORED` if it never deadlocked within ``horizon`` quanta.
    """

    first_hit: np.ndarray
    horizon: int

    def __post_init__(self) -> None:
        horizon = _check_int(self.horizon, "horizon", 0)
        hits = np.asarray(self.first_hit)
        if hits.ndim != 1 or hits.size == 0:
            raise DimensionError("first_hit must be a non-empty vector")
        # CENSORED is -1, so [CENSORED, horizon] holds it and the quanta 0..horizon
        if hits.dtype.kind not in "iu" or hits.min() < CENSORED or hits.max() > horizon:
            raise ParameterError(
                f"first_hit must hold integers in [0, {horizon}] or CENSORED ({CENSORED})"
            )
        hits = hits.astype(np.int64)
        hits.flags.writeable = False
        object.__setattr__(self, "first_hit", hits)
        object.__setattr__(self, "horizon", horizon)

    @property
    def n_walks(self) -> int:
        return self.first_hit.size

    @property
    def censored(self) -> np.ndarray:
        return self.first_hit == CENSORED

    @property
    def n_censored(self) -> int:
        return int(self.censored.sum())

    @property
    def censored_fraction(self) -> float:
        return self.n_censored / self.n_walks

    @property
    def mean_first_hit(self) -> float:
        """Empirical mean of the uncensored hit times (NaN if all censored)."""
        observed = self.first_hit[~self.censored]
        if observed.size == 0:
            return float("nan")
        return float(observed.mean())

    @property
    def biased_low(self) -> bool:
        """True when censoring is heavy enough to drag the mean estimate down."""
        return self.censored_fraction > CENSOR_WARN_FRACTION


def _state_views(bg: np.random.Philox):
    """Views of the key, the counter and ``buffer_pos`` in ``bg``'s C state.

    numpy's ``philox_state`` begins with pointers to the counter and to the
    key, followed by ``int buffer_pos`` at offset 16.  The layout is private,
    so :func:`_state_rekey_works` checks it before the views are used.
    """
    address = bg.ctypes.state_address
    counter_at, key_at = (ctypes.c_void_p * 2).from_address(address)
    return (
        (ctypes.c_uint64 * 2).from_address(key_at),
        (ctypes.c_uint64 * 4).from_address(counter_at),
        ctypes.c_int.from_address(address + 16),
    )


class _WalkStreams:
    """One Philox generator, rekeyed to the stream of each walk in turn.

    Each sweep worker builds its own, so no generator is shared between
    threads.  With ``state_struct`` (pass :func:`_state_rekey_works`)
    rekeying writes the key, the counter and ``buffer_pos`` straight into
    the generator's state struct; otherwise each walk gets the documented
    ``Philox(key=..., counter=...)``.  Measured on a 2-vCPU Xeon VM, a fill
    of four draws a walk takes about 1.2 us a walk through the struct and
    19 us through the constructor.
    """

    def __init__(self, state_struct: bool):
        self.bg = np.random.Philox(key=0)
        self.random = np.random.Generator(self.bg).random
        self.views = _state_views(self.bg) if state_struct else None

    def fill(self, seed: int, first_walk: int, out: np.ndarray, first_draw: int) -> None:
        """Fill ``out[i]`` with draws ``first_draw..`` of walk ``first_walk + i``.

        Bit-identical to the walk's own stream,
        ``Generator(Philox(key=(seed << 64) | walk))``, drawing
        ``random(first_draw + out.shape[1])[first_draw:]``.  Philox is counter
        based and makes draws in fours, so setting the counter to ``k``
        resumes a stream at draw ``4k`` without computing the draws before
        it; ``first_draw`` must be a multiple of 4.  Without the state
        struct, each row gets a Philox built with its walk's key and
        ``counter=first_draw // 4``.
        """
        block = first_draw // 4
        if self.views is None:
            for i, row in enumerate(out):
                bg = np.random.Philox(key=(seed << 64) | (first_walk + i), counter=block)
                np.random.Generator(bg).random(out=row)
            return
        random = self.random
        key, counter, buffer_pos = self.views
        key[1] = seed
        for i, row in enumerate(out):
            key[0] = first_walk + i
            counter[0] = block  # the other words stay 0: no walk draws 2**66 times
            buffer_pos.value = 4
            random(out=row)


@functools.cache
def _state_rekey_works() -> bool:
    """Whether keying a walk through the state struct gives its documented stream.

    Runs once per process, before any sweep worker starts, so the cache
    needs no lock; any error counts as a mismatch.  Nothing is
    written through the views until they read back the key and counter
    numpy set, and the struct's two leading words must look like pointers
    (a key or counter held inline would show 2 or a word above 2**56 there).
    """
    seed, walk = 0xD1B54A32D192ED03, 0x9E3779B97F4A7C15
    try:
        bg = np.random.Philox(key=(seed << 64) | walk, counter=2)
        words = (ctypes.c_uint64 * 2).from_address(bg.ctypes.state_address)
        if not all(1 << 16 <= word < 1 << 56 for word in words):
            return False
        key, counter, buffer_pos = _state_views(bg)
        if (list(key), list(counter), buffer_pos.value) != ([walk, seed], [2, 0, 0, 0], 4):
            return False
        via_struct = np.empty((1, 8))
        documented = np.empty((1, 8))
        _WalkStreams(True).fill(seed, walk, via_struct, 8)
        _WalkStreams(False).fill(seed, walk, documented, 8)
        return np.array_equal(via_struct, documented)
    except Exception:
        return False


def _thresholds(params: SchemeParams) -> tuple[float, float, float]:
    # Cumulative bounds of the category order (advance, stay, retreat, deadlock).
    # With r == 0 the retreat bound is pinned to 1 so no draw can deadlock.
    c1 = params.p
    c2 = params.p + params.s
    c3 = 1.0 if params.r == 0.0 else params.p + params.s + params.q
    return c1, c2, c3


def _sweep(
    config: SimConfig, hits_only: bool = False
) -> tuple[np.ndarray | None, np.ndarray]:
    """Evolve all walks; return (counts, first_hit).

    With ``hits_only`` the walks' positions are never formed and ``counts``
    is None: a first hit depends only on the deadlock draws and the start
    slot.

    Walks are swept in tiles of at most :data:`_TILE_BUDGET` draws with no
    loop over quanta.  A tile holds ``_TILE_BUDGET // (n_quanta + 1)`` whole
    walks; a walk longer than the budget is cut into time blocks, one walk
    per tile, and its slot and first hit carry from one block to the next.

    A tile is reduced time-major.  Its moves (+1 advance, 0 stay, -1 retreat)
    are copied transposed into a ``(quanta, walks)`` position table, the start
    slot is added to the first row, and a running sum down the quanta gives
    each walk's unwrapped position.  Every walk dead by the end of the tile
    gets a jump larger than the ring table at its first deadlock column
    (column 0 if it died in an earlier block), so one lookup in that table
    maps positions mod ``m`` and every quantum from the first hit on to D.

    On a host with more than one CPU, tiles of at least
    :data:`_PARALLEL_SPAN` quanta are shared by the calling thread and one
    helper thread, alternately; a walk's time blocks stay with one worker.
    Workers write disjoint walks of ``first_hit`` and add their tallies to
    ``counts`` under a lock, and each keeps to half the budget in time
    blocks.  Neither tiling nor the worker count changes the draws a walk
    sees, so every budget gives the same arrays.
    """
    m = config.params.m
    n_walks = config.n_walks
    n_cols = config.n_quanta + 1
    c1, c2, c3 = _thresholds(config.params)

    cdf = np.cumsum(config.init.probs)
    cdf[-1] = 1.0  # guard against float shortfall; draws are in [0, 1)

    counts = None if hits_only else np.zeros((n_cols, m + 1), dtype=np.int64)
    first_hit = np.full(n_walks, CENSORED, dtype=np.int64)

    whole = n_cols <= _TILE_BUDGET
    tile_walks = min(n_walks, _TILE_BUDGET // n_cols) if whole else 1
    workers = 2 if (
        tile_walks < n_walks and min(n_cols, _TILE_BUDGET) >= _PARALLEL_SPAN and _spare_cpu()
    ) else 1
    # A time block other than the last ends on a multiple of 4 draws, where
    # a Philox stream resumes.  One bincount counts ``group`` quanta, so its
    # output fits the budget too.
    block = _TILE_BUDGET // workers
    span = n_cols if whole else max(4, block - block % 4)
    group = max(1, _TILE_BUDGET // (m + 1))
    offsets = np.arange(min(span, group))[:, None] * (m + 1)
    # A position is slot + span + the running sum of at most span moves, so
    # it lies in [0, 2 span + m); the ring maps it to (position - span) mod m,
    # and any position past its end, such as one after a jump, to D.
    ring = np.append(np.arange(-span, span + m) % m, m)
    jump = ring.size

    starts = range(0, n_walks, tile_walks)
    lock = threading.Lock()
    stop = threading.Event()
    state_struct = _state_rekey_works()

    def sweep_tiles(first: int) -> None:
        # One workspace and one generator serve every tile of this worker;
        # the draw buffer becomes the position table once a tile's moves are
        # read from it.
        streams = _WalkStreams(state_struct)
        size = tile_walks * span
        draws = np.empty(size)
        dead = np.empty(size, dtype=bool)
        if not hits_only:
            advance, back = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
        for lo in starts[first::workers]:
            if stop.is_set():
                return
            hi = min(lo + tile_walks, n_walks)
            hits = first_hit[lo:hi]
            rows = np.arange(hi - lo)
            for t0 in range(0, n_cols, span):
                t1 = min(t0 + span, n_cols)
                shape = (hi - lo, t1 - t0)
                n = shape[0] * shape[1]
                u = draws[:n].reshape(shape)
                dd = dead[:n].reshape(shape)
                streams.fill(config.seed, lo, u, t0)
                if t0 == 0:
                    slot = np.searchsorted(cdf, u[:, 0], side="right")
                np.greater_equal(u, c3, out=dd)
                if t0 == 0:
                    dd[:, 0] = slot == m

                # first hits: the first deadlock column of a walk still alive
                hit_col = dd.argmax(axis=1)
                alive = hits == CENSORED
                new = alive & dd[rows, hit_col]
                hits[new] = t0 + hit_col[new]
                if hits_only:
                    continue

                adv, bk = advance[:n].reshape(shape), back[:n].reshape(shape)
                np.less(u, c1, out=adv)
                np.greater_equal(u, c2, out=bk)
                moves = adv.view(np.int8)
                moves -= bk.view(np.int8)  # u >= c2 takes retreat and deadlock draws,
                moves += dd.view(np.int8)  # so deadlock draws are added back
                if t0 == 0:
                    moves[:, 0] = 0
                hit_col[~alive] = 0
                jumped = np.flatnonzero(new | ~alive)

                pos = draws.view(np.int64)[:n].reshape(shape[::-1])
                pos[...] = moves.T
                pos[0] += slot + span
                pos[hit_col[jumped], jumped] += jump
                np.add.accumulate(pos, axis=0, out=pos)
                state = np.take(ring, pos, out=pos, mode="clip")
                slot = state[-1].copy()

                for g0 in range(0, shape[1], group):
                    g1 = min(g0 + group, shape[1])
                    cells = state[g0:g1]
                    cells += offsets[: g1 - g0]
                    tally = np.bincount(cells.ravel(), minlength=(g1 - g0) * (m + 1))
                    with lock:
                        counts[t0 + g0 : t0 + g1] += tally.reshape(g1 - g0, m + 1)

    if workers == 1:
        sweep_tiles(0)
        return counts, first_hit

    errors: list[BaseException] = []

    def helper() -> None:
        try:
            sweep_tiles(1)
        except BaseException as exc:  # handed to the calling thread
            errors.append(exc)

    thread = threading.Thread(target=helper, name="schedchain-sweep", daemon=True)
    thread.start()
    try:
        sweep_tiles(0)
    except BaseException:
        stop.set()  # the helper stops at its next tile
        raise
    finally:
        thread.join()
    if errors:
        raise errors[0]
    return counts, first_hit


def simulate(config: SimConfig) -> OccupancyEstimate:
    """Estimate per-quantum state occupancy from ``n_walks`` seeded walks.

    Deterministic: the same config (including seed) always yields the same
    counts, regardless of tiling or execution order.
    """
    counts, _ = _sweep(config)
    counts.flags.writeable = False
    return OccupancyEstimate(counts, config.n_walks)


def absorption_times(config: SimConfig) -> AbsorptionSample:
    """First deadlock-hit quantum of every walk, censored at the horizon.

    Shares the walk streams with :func:`simulate`, so both views of the same
    config describe the same set of walks.  With ``r == 0`` every walk is
    censored.
    """
    _, first_hit = _sweep(config, hits_only=True)
    return AbsorptionSample(first_hit, config.n_quanta)

