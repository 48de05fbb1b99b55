"""Seeded Monte Carlo engine: independent scheduler walks through the chain.

Every walk owns its own Philox stream keyed by ``(seed, walk index)``, so a
simulation is bit-reproducible and its result does not depend on tile size
or execution order.  Walk ``w`` consumes its draws in a fixed order: draw 0
picks the initial state by inverse CDF over ``(P1..Pm, D)``, and draw ``t``
decides quantum ``t`` by inverse CDF over the fixed category order
(advance, stay, retreat, deadlock).  That category order is part of the
external contract.  :func:`simulate` draws every quantum of every walk,
absorbed or not, and :func:`absorption_times` stops a tile at the time block
that decides it.  Either way a walk's draws depend only on ``(seed, walk,
params, init)``, so its path extends unchanged under a longer horizon.

Walks are swept in tiles of at most ``_TILE_BUDGET`` draws, with no Python
loop over quanta, so :func:`simulate` and :func:`absorption_times` need
their outputs plus a fixed few MB at any horizon.  Philox is counter based,
so a walk longer than one tile resumes its stream where the previous time
block ended and sees exactly the draws it would see in one piece (Salmon et
al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11).  Every tile is
swept on the calling thread: on a 2-vCPU host a helper thread sharing long
tiles made no command-line call faster.  Since a tile's draws follow from its
config alone, a sweep counts them before it allocates or draws, and refuses
with :class:`ParameterError` a call that plans more than ``_DRAW_BUDGET``.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    DimensionError,
    Distribution,
    ParameterError,
    SchemeParams,
    _DRAW_BUDGET,
    _TILE_BUDGET,
    _alloc,
    _check_int,
    _frozen,
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
        self.params._same_ring(self.init.m, "initial distribution")

    @classmethod
    def from_preset(
        cls, preset: SchemePreset, *, n_quanta: int, n_walks: int, seed: int = 0
    ) -> "SimConfig":
        return cls(preset.params, preset.init, n_quanta, n_walks, seed)


@dataclass(frozen=True, eq=False)
class OccupancyEstimate:
    """Per-quantum state occupancy counts over all walks.

    ``counts[t, j]`` is the number of walks in state ``j`` (columns ordered
    P1..Pm, D) at quantum ``t``; every row sums to ``n_walks``.  Counts are
    integers, held as int64 under the array rules of :mod:`schedchain.model`.
    """

    counts: np.ndarray
    n_walks: int

    def __post_init__(self) -> None:
        n_walks = _check_int(self.n_walks, "walks", 1)
        counts = _frozen(self.counts, np.int64, "counts")
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
                raise ParameterError("every counts row must sum to walks")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n_walks", n_walks)

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
        horizon = _check_int(self.horizon, "quanta", 0)
        hits = _frozen(self.first_hit, np.int64, "first_hit")
        if hits.ndim != 1 or hits.size == 0:
            raise DimensionError("first_hit must be a non-empty vector")
        # CENSORED is -1, so [CENSORED, horizon] holds it and the quanta 0..horizon
        if hits.min() < CENSORED or hits.max() > horizon:
            raise ParameterError(f"first_hit must be in [0, {horizon}] or CENSORED ({CENSORED})")
        object.__setattr__(self, "first_hit", hits)
        object.__setattr__(self, "horizon", horizon)

    @property
    def n_walks(self) -> int:
        return self.first_hit.size

    @property
    def n_censored(self) -> int:
        return int((self.first_hit == CENSORED).sum())

    @property
    def censored_fraction(self) -> float:
        return self.n_censored / self.n_walks

    @property
    def mean_first_hit(self) -> float:
        """Empirical mean of the uncensored hit times (NaN if all censored)."""
        observed = self.first_hit[self.first_hit != CENSORED]
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

    One serves every tile of a sweep.  With ``state_struct`` (pass
    :func:`_state_rekey_works`) rekeying writes the key, the counter and
    ``buffer_pos`` straight into the generator's state struct; otherwise
    each walk gets the documented ``Philox(key=..., counter=...)``.
    Measured on a 2-vCPU Xeon VM, a fill of four draws a walk takes about
    1.2 us a walk through the struct and 19 us through the constructor.
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

    Runs once per process, on the first sweep; any error counts as a
    mismatch.  Nothing is written through the views until they read back the
    key and counter numpy set, and the struct's two leading words must look
    like pointers (a key or counter held inline would show 2 or a word above
    2**56 there).
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


def _tiles(n_walks: int, n_cols: int, m: int) -> tuple[int, int, int]:
    """The sweep's tile rule: ``(span, tile_walks, group)`` for walks of ``n_cols`` draws.

    A time block spans the whole walk or the largest multiple of 4 draws within
    :data:`_TILE_BUDGET`, where a Philox stream resumes, whichever is shorter; a
    tile holds as many walks of one block as the budget allows, and one bincount
    counts ``group`` quanta of ``m + 1`` cells, so its output fits the budget too.
    Any budget of at least 4 yields identical results.
    """
    span = min(n_cols, _TILE_BUDGET - _TILE_BUDGET % 4)
    return span, min(n_walks, _TILE_BUDGET // span), max(1, _TILE_BUDGET // (m + 1))


def _planned_draws(config: SimConfig, c3: float, hits_only: bool) -> int:
    """Uniforms the sweep of ``config`` will draw, counted from the config alone.

    Without ``hits_only`` every walk draws every quantum.  With it, a tile of
    ``k`` walks draws block 0 alone when no later draw can deadlock
    (``c3 >= 1``) or every walk starts in D, and otherwise the blocks up to
    quantum ``T``, capped at the horizon: ``T = 1`` when every draw deadlocks
    (``c3 = 0``), else ``ceil(log(1e-9 / (k·a)) / log(c3))`` for start ring
    mass ``a``, the quantum past which a walk of the tile is still undecided
    with probability at most 1e-9 (the first-hit law is geometric).
    """
    n_walks, n_cols = config.n_walks, config.n_quanta + 1
    if not hits_only:
        return n_walks * n_cols
    span, tile_walks, _ = _tiles(n_walks, n_cols, config.params.m)
    alive = 1.0 - config.init.deadlock

    def tile_draws(k: int) -> int:
        if c3 >= 1.0 or alive <= 0.0:
            last = 0
        elif c3 <= 0.0:
            last = 1
        else:
            last = max(0, math.ceil(math.log(1e-9 / (k * alive)) / math.log(c3)))
        return k * min(n_cols, (min(last, n_cols - 1) // span + 1) * span)

    full, rest = divmod(n_walks, tile_walks)
    return full * tile_draws(tile_walks) + (tile_draws(rest) if rest else 0)


def _sweep(
    config: SimConfig, hits_only: bool = False
) -> tuple[np.ndarray | None, np.ndarray]:
    """Evolve all walks; return (counts, first_hit).

    With ``hits_only`` the walks' positions are never formed and ``counts``
    is None: a first hit depends only on the deadlock draws and the start
    slot.  A tile then stops after the first time block at whose end every
    walk in it has a first hit, or after block 0 when no later draw can
    deadlock (``c3 >= 1``: ``r == 0``, or ``p + s + q`` rounds to 1).

    Walks are swept in the tiles of :func:`_tiles` with no loop over quanta.
    A walk longer than a block is swept one walk per tile, and its slot and
    first hit carry from one block to the next.  A call that plans more than
    :data:`_DRAW_BUDGET` draws (:func:`_planned_draws`) raises
    :class:`ParameterError` before its outputs are made.

    A tile is reduced time-major.  Its moves (+1 advance, 0 stay, -1 retreat
    or deadlock) are copied transposed into a ``(quanta, walks)`` position
    table, the start slot is added to the first row, and a running sum down
    the quanta gives each walk's unwrapped position.  Every walk with a known
    first hit gets a jump larger than the ring table at column
    ``max(first_hit - t0, 0)`` of the block from quantum ``t0``, so one lookup
    in that table maps positions mod ``m`` and every quantum from the first
    hit on to D.  No deadlock draw comes before a walk's first hit: draw 0
    places the walk, and its move is 0.

    Every tile runs on the calling thread, one after another.  Neither
    tiling nor the stop changes a draw a walk sees, so every budget gives
    the same arrays.
    """
    params = config.params
    m = params.m
    n_walks = config.n_walks
    n_cols = config.n_quanta + 1
    # Cumulative bounds of the category order (advance, stay, retreat, deadlock).
    # With r == 0 the retreat bound is pinned to 1 so no draw can deadlock.
    c1, c2 = params.p, params.p + params.s
    c3 = 1.0 if params.r == 0.0 else c2 + params.q

    cdf = np.cumsum(config.init.probs)
    cdf[-1] = 1.0  # guard against float shortfall; draws are in [0, 1)

    planned = _planned_draws(config, c3, hits_only)
    if planned > _DRAW_BUDGET:
        raise ParameterError(
            f"a sweep of {planned} draws is too large to run, past the budget of {_DRAW_BUDGET}"
        )
    counts = None if hits_only else _alloc(np.zeros, (n_cols, m + 1), dtype=np.int64)
    first_hit = _alloc(np.full, n_walks, CENSORED, dtype=np.int64)

    span, tile_walks, group = _tiles(n_walks, n_cols, m)
    offsets = np.arange(min(span, group))[:, None] * (m + 1)
    # A position is slot + span + the running sum of at most span moves, so
    # it lies in [0, 2 span + m); the ring maps it to (position - span) mod m,
    # and any position past its end, such as one after a jump, to D.
    ring = np.append(np.arange(-span, span + m) % m, m)
    jump = ring.size

    # One workspace and one generator serve every tile; the draw buffer
    # becomes the position table once a tile's moves are read from it.
    streams = _WalkStreams(_state_rekey_works())
    size = tile_walks * span
    draws = np.empty(size)
    dead, advance, back = (np.empty(size, dtype=bool) for _ in range(3))
    for lo in range(0, n_walks, tile_walks):
        hi = min(lo + tile_walks, n_walks)
        hits = first_hit[lo:hi]
        for t0 in range(0, n_cols, span):
            t1 = min(t0 + span, n_cols)
            shape = (hi - lo, t1 - t0)
            n = shape[0] * shape[1]
            u = draws[:n].reshape(shape)
            dd = dead[:n].reshape(shape)
            streams.fill(config.seed, lo, u, t0)
            np.greater_equal(u, c3, out=dd)
            if t0 == 0:
                slot = np.searchsorted(cdf, u[:, 0], side="right")
                dd[:, 0] = slot == m

            # first hits: the first deadlock column of a walk still alive
            np.copyto(hits, t0 + dd.argmax(axis=1), where=(hits == CENSORED) & dd.any(axis=1))
            if hits_only:
                if c3 >= 1.0 or CENSORED not in hits:
                    break  # no later block can change a first hit of this tile
                continue

            adv, bk = advance[:n].reshape(shape), back[:n].reshape(shape)
            np.less(u, c1, out=adv)
            np.greater_equal(u, c2, out=bk)
            moves = adv.view(np.int8)
            moves -= bk.view(np.int8)
            if t0 == 0:
                moves[:, 0] = 0
            jumped = np.flatnonzero(hits != CENSORED)

            pos = draws.view(np.int64)[:n].reshape(shape[::-1])
            pos[...] = moves.T
            pos[0] += slot + span
            pos[np.maximum(hits[jumped] - t0, 0), jumped] += jump
            np.add.accumulate(pos, axis=0, out=pos)
            state = np.take(ring, pos, out=pos, mode="clip")
            slot = state[-1].copy()

            for g0 in range(0, shape[1], group):
                g1 = min(g0 + group, shape[1])
                cells = state[g0:g1]
                cells += offsets[: g1 - g0]
                tally = np.bincount(cells.ravel(), minlength=(g1 - g0) * (m + 1))
                counts[t0 + g0 : t0 + g1] += tally.reshape(g1 - g0, m + 1)
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
    censored.  A tile of walks stops drawing after the time block that
    decides it: once every walk in it has hit D, or after block 0 when no
    later draw can deadlock (``r == 0``, or ``p + s + q`` rounds to 1), so
    walks that all hit early return early at any horizon.
    """
    _, first_hit = _sweep(config, hits_only=True)
    first_hit.flags.writeable = False
    return AbsorptionSample(first_hit, config.n_quanta)

