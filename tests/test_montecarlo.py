"""Tests for the seeded Monte Carlo walk engine."""

import ctypes
import os
import subprocess
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest

import schedchain.montecarlo as mc
from schedchain import (
    CENSORED,
    DimensionError,
    Distribution,
    ParameterError,
    SchemeId,
    SchemeParams,
    SimConfig,
    absorption_times,
    closed_form,
    make_preset,
    simulate,
)

PB5 = (0.27, 0.15, 0.17, 0.18, 0.23)


@pytest.fixture(scope="module")
def fifo_hazard_estimate():
    """One shared 1e5-walk run of the FIFO-with-hazard preset (r = 0.166)."""
    preset = make_preset(SchemeId.I_B, {"r": 0.166}, pb=PB5)
    config = SimConfig.from_preset(preset, n_quanta=20, n_walks=100_000, seed=20240901)
    return preset, simulate(config)


# ---------------------------------------------------------------------------
# configuration validation


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_quanta=0, n_walks=10, seed=0),
        dict(n_quanta=5, n_walks=0, seed=0),
        dict(n_quanta=5, n_walks=10, seed=-1),
        dict(n_quanta=5, n_walks=10, seed=2 ** 64),
    ],
)
def test_invalid_config_rejected(kwargs):
    params = SchemeParams(0.5, 0.5, 0.0, 0.0, 4)
    init = Distribution.from_process_probs([0.25] * 4)
    with pytest.raises(ParameterError):
        SimConfig(params, init, **kwargs)


def test_config_dimension_mismatch():
    params = SchemeParams(0.5, 0.5, 0.0, 0.0, 4)
    init = Distribution.from_process_probs(PB5)
    with pytest.raises(DimensionError):
        SimConfig(params, init, n_quanta=5, n_walks=10, seed=0)


# messages name the counts walks and quanta, as SimConfig and the CLI do
@pytest.mark.parametrize(
    "counts, n_walks, exc, match",
    [
        # no walks to normalize by
        (np.zeros((2, 3), dtype=np.int64), 0, ParameterError, "^walks must be >= 1"),
        # a negative count in a row of the right sum
        (np.array([[-1, 2, 0]]), 1, ParameterError, None),
        # a row of another sum
        (np.array([[1, 0, 0], [0, 2, 0]]), 1, ParameterError, "sum to walks$"),
        (np.zeros((0, 3), dtype=np.int64), 1, DimensionError, None),  # no quantum 0
        (np.ones((2, 1), dtype=np.int64), 1, DimensionError, None),  # no slot, only D
        (np.array([[1, 0], [1, 0]]), 1, DimensionError, None),  # one slot plus D
        # rows that would sum to n_walks once truncated to integers
        (np.array([[1.7, 0, 0], [0.2, 1.9, 0]]), 1, ParameterError, None),
        (np.array([[True, False, False]]), 1, ParameterError, None),  # not a count
    ],
    ids=[
        "no-walks", "negative-count", "row-sum", "no-rows", "one-column", "two-columns",
        "fractional", "bool",
    ],
)
def test_occupancy_estimate_rejects_inconsistent_counts(counts, n_walks, exc, match):
    with pytest.raises(exc, match=match):
        mc.OccupancyEstimate(counts, n_walks)


@pytest.mark.parametrize(
    "first_hit, horizon, exc, match",
    [
        ([5, -7, 3], -2, ParameterError, "^quanta must be >= 0"),  # a negative horizon
        ([5, -7, 3], 6, ParameterError, None),  # -7 is neither a quantum nor CENSORED
        ([0, 6], 5, ParameterError, None),  # a hit past the horizon
        ([1.7], 5, ParameterError, None),  # a fractional hit
        (np.empty(0, dtype=np.int64), 5, DimensionError, None),  # no walks
        # 2**64 - 1 is no hit, though numpy's cast to int64 would make it CENSORED
        (np.array([2**64 - 1, 3], dtype=np.uint64), 5, ParameterError, None),
    ],
    ids=["negative-horizon", "below-censored", "past-horizon", "fractional", "empty", "uint64"],
)
def test_absorption_sample_rejects_inconsistent_hits(first_hit, horizon, exc, match):
    with pytest.raises(exc, match=match):
        mc.AbsorptionSample(first_hit, horizon)


def test_absorption_sample_takes_hits_from_zero_to_the_horizon():
    sample = mc.AbsorptionSample([0, 5, CENSORED], 5)
    assert sample.n_censored == 1
    assert sample.mean_first_hit == 2.5


# ---------------------------------------------------------------------------
# degenerate chains


def test_identity_chain_walks_never_move():
    preset = make_preset(SchemeId.I_A, {}, pb=PB5)
    config = SimConfig.from_preset(preset, n_quanta=10, n_walks=2000, seed=7)
    estimate = simulate(config)
    assert np.all(estimate.counts == estimate.counts[0])
    assert np.allclose(estimate.frequencies.sum(axis=1), 1.0, atol=1e-12)


def test_pure_cycle_walk_is_deterministic():
    preset = make_preset(SchemeId.II_A, {}, pb=(0.0, 1.0, 0.0, 0.0, 0.0))
    config = SimConfig.from_preset(preset, n_quanta=10, n_walks=50, seed=3)
    counts = simulate(config).counts
    for t in range(11):
        assert counts[t, (1 + t) % 5] == 50, t


def test_certain_absorption_hits_at_quantum_one():
    params = SchemeParams(0.0, 0.0, 0.0, 1.0, 4)
    init = Distribution.from_process_probs([0.25] * 4)
    sample = absorption_times(SimConfig(params, init, n_quanta=10, n_walks=500, seed=1))
    assert np.all(sample.first_hit == 1)
    assert sample.mean_first_hit == 1.0
    assert sample.n_censored == 0
    assert not sample.biased_low


def test_initial_deadlock_mass_absorbs_at_quantum_zero():
    # raw configurations may start with mass already on D; presets cannot
    params = SchemeParams(0.5, 0.5, 0.0, 0.0, 3)
    init = Distribution(np.array([0.3, 0.3, 0.0, 0.4]))
    config = SimConfig(params, init, n_quanta=5, n_walks=4000, seed=2)
    sample = absorption_times(config)
    estimate = simulate(config)
    started_dead = int((sample.first_hit == 0).sum())
    assert started_dead == estimate.counts[0, -1]
    assert abs(started_dead / 4000 - 0.4) < 0.03
    assert np.all(estimate.counts[:, -1] == started_dead)  # r == 0 afterwards


def test_no_hazard_censors_every_walk():
    preset = make_preset(SchemeId.III_A, {"p": 0.5}, pb=PB5)
    sample = absorption_times(SimConfig.from_preset(preset, n_quanta=30, n_walks=400, seed=5))
    assert np.all(sample.first_hit == CENSORED)
    assert sample.censored_fraction == 1.0
    assert np.isnan(sample.mean_first_hit)
    assert sample.biased_low


# ---------------------------------------------------------------------------
# statistical agreement with the analytic engines


def test_deadlock_frequency_within_three_sigma(fifo_hazard_estimate):
    _, estimate = fifo_hazard_estimate
    sigma = np.sqrt(0.166 * 0.834 / estimate.n_walks)
    assert abs(estimate.frequencies[1, -1] - 0.166) <= 3 * sigma


def test_occupancy_tracks_closed_form_everywhere(fifo_hazard_estimate):
    preset, estimate = fifo_hazard_estimate
    freq = estimate.frequencies
    for n in range(len(estimate.counts)):
        analytic = closed_form(preset, n).probs
        observed = freq[n]
        bound = 4.0 * np.sqrt(observed * (1.0 - observed) / estimate.n_walks) + 1e-9
        assert np.all(np.abs(observed - analytic) <= bound), f"quantum {n}"


def test_absorption_mean_matches_truncated_geometric_oracle():
    r = 0.166
    horizon = 200
    preset = make_preset(SchemeId.II_B, {"r": r}, pb=PB5)
    config = SimConfig.from_preset(preset, n_quanta=horizon, n_walks=20_000, seed=99)
    sample = absorption_times(config)

    # oracle: conditional mean of a geometric first-hit time given a hit
    # within the horizon, by direct partial summation
    hit_mass = sum(n * (1 - r) ** (n - 1) * r for n in range(1, horizon + 1))
    p_hit = 1.0 - (1 - r) ** horizon
    conditional_mean = hit_mass / p_hit
    geom_sd = np.sqrt(1 - r) / r
    n_obs = sample.n_walks - sample.n_censored
    assert abs(sample.mean_first_hit - conditional_mean) <= 4 * geom_sd / np.sqrt(n_obs)


# ---------------------------------------------------------------------------
# determinism and stream layout


def test_identical_configs_reproduce_bitwise():
    preset = make_preset(SchemeId.III_B, {"p": 0.4, "r": 0.2}, pb=PB5)
    config = SimConfig.from_preset(preset, n_quanta=25, n_walks=3000, seed=11)
    first = simulate(config)
    second = simulate(config)
    assert np.array_equal(first.counts, second.counts)
    a = absorption_times(config)
    b = absorption_times(config)
    assert np.array_equal(a.first_hit, b.first_hit)


def test_chunk_size_does_not_change_results(monkeypatch):
    default = mc._TILE_BUDGET
    preset = make_preset(SchemeId.III_B, {"p": 0.4, "r": 0.2}, pb=PB5)
    config = SimConfig.from_preset(preset, n_quanta=15, n_walks=1000, seed=13)
    counts, first_hit = mc._sweep(config)
    # 16: one walk per tile; 10 (not a multiple of 4) and 7: time blocks of
    # 8 and 4 draws, one quantum per bincount; 50: three walks per tile, two
    # bincounts per tile; 2**20: every walk in one tile
    for budget in (16, 10, 7, 50, 2 ** 20):
        monkeypatch.setattr(mc, "_TILE_BUDGET", budget)
        tiled = mc._sweep(config)
        assert np.array_equal(tiled[0], counts), budget
        assert np.array_equal(tiled[1], first_hit), budget
    # 9 draws a walk within a budget of 10 that is not a multiple of 4: time
    # blocks of 8 draws and 1 draw, one walk per tile
    short = SimConfig.from_preset(preset, n_quanta=8, n_walks=200, seed=13)
    whole = mc._sweep(short)
    monkeypatch.setattr(mc, "_TILE_BUDGET", 10)
    for name, a, b in zip(("counts", "first_hit"), mc._sweep(short), whole):
        assert np.array_equal(a, b), name
    # the default budget against one tile of every walk: three tiles of whole
    # walks, then walks longer than the budget, cut into time blocks
    hazard = make_preset(SchemeId.III_B, {"p": 0.4, "r": 1e-4}, pb=PB5)
    for config in (
        SimConfig.from_preset(preset, n_quanta=15, n_walks=9000, seed=37),
        SimConfig.from_preset(hazard, n_quanta=70_000, n_walks=3, seed=37),
    ):
        monkeypatch.setattr(mc, "_TILE_BUDGET", default)
        tiled = mc._sweep(config)
        monkeypatch.setattr(mc, "_TILE_BUDGET", 2 ** 20)
        for name, a, b in zip(("counts", "first_hit"), tiled, mc._sweep(config)):
            assert np.array_equal(a, b), (config.n_walks, name)


# A sweep that kept drawing time blocks to a horizon of 10**20 quanta would
# never return, so these calls run in a child process that a timeout stops.
_DECIDED_EARLY = """
from schedchain import SchemeId, SimConfig, absorption_times, make_preset
pb = (0.27, 0.15, 0.17, 0.18, 0.23)
for scheme, free, n_walks, seed in [
    (SchemeId.III_A, {"p": 0.5}, 1, 0),
    (SchemeId.I_B, {"r": 0.5}, 5, 3),
]:
    preset = make_preset(scheme, free, pb=pb)
    config = SimConfig.from_preset(preset, n_quanta=10**20, n_walks=n_walks, seed=seed)
    print(*absorption_times(config).first_hit)
"""


def test_absorption_returns_at_any_horizon_once_decided():
    child = subprocess.run(
        [sys.executable, "-c", _DECIDED_EARLY], capture_output=True, text=True, timeout=60
    )
    assert child.returncode == 0, child.stderr
    never, early = ([int(hit) for hit in line.split()] for line in child.stdout.splitlines())
    assert never == [CENSORED]  # r == 0: decided by draw 0
    assert len(early) == 5 and all(1 <= hit <= 10 for hit in early)


def _record_fills(monkeypatch):
    """Record ``(first_walk, first_draw, draws)`` of each fill, and make the draws."""
    mc._state_rekey_works()  # its one-off self-check fills draws of its own
    fills = []
    fill = mc._WalkStreams.fill

    def recorded(self, seed, first_walk, out, first_draw):
        fills.append((first_walk, first_draw, out.size))
        fill(self, seed, first_walk, out, first_draw)

    monkeypatch.setattr(mc._WalkStreams, "fill", recorded)
    return fills


def test_absorption_draws_no_block_after_the_one_that_decides_its_tile(monkeypatch):
    fills = _record_fills(monkeypatch)
    # 64-draw blocks: one walk per tile, each walk cut into time blocks
    monkeypatch.setattr(mc, "_TILE_BUDGET", 64)
    hazard = make_preset(SchemeId.I_B, {"r": 0.02}, pb=PB5)
    hits = absorption_times(SimConfig.from_preset(hazard, n_quanta=1000, n_walks=20, seed=5))
    assert hits.n_censored == 0 and hits.first_hit.max() >= 64
    hit_at = hits.first_hit.tolist()
    assert [fill[:2] for fill in fills] == [
        (w, t0) for w, hit in enumerate(hit_at) for t0 in range(0, hit + 1, 64)
    ]
    # no draw after draw 0 can deadlock: r == 0, with start mass in D, and a
    # hazard that p + s + q rounds away
    for params, init in [
        (SchemeParams(0.5, 0.5, 0.0, 0.0, 3), Distribution(np.array([0.3, 0.3, 0.0, 0.4]))),
        (make_preset(SchemeId.III_B, {"p": 0.5, "r": 1e-20}, pb=PB5).params,
         Distribution.from_process_probs(PB5)),
    ]:
        fills.clear()
        absorption_times(SimConfig(params, init, n_quanta=1000, n_walks=20, seed=5))
        assert [fill[:2] for fill in fills] == [(w, 0) for w in range(20)]


# Calls that would draw for hours: each must be refused before its first draw.
# They run in a child process that a timeout stops, in case one is not.
_PAST_THE_DRAW_BUDGET = """
from schedchain import ParameterError, SimConfig, absorption_times, make_preset, simulate
for run, scheme, free, n_quanta, n_walks in [
    # a first hit some 1e12 quanta away: about 2.1e13 draws planned
    (absorption_times, "III_B", {"p": 0.5, "r": 1e-12}, 10**20, 1),
    # 1e12 draws, though its outputs fit in about 1 GB
    (simulate, "I_B", {"r": 0.1}, 10**4, 10**8),
]:
    preset = make_preset(scheme, free, pb=(0.5, 0.5))
    try:
        run(SimConfig.from_preset(preset, n_quanta=n_quanta, n_walks=n_walks))
    except ParameterError as exc:
        print(exc)
"""


def test_draw_budget_refuses_calls_no_host_finishes():
    child = subprocess.run(
        [sys.executable, "-c", _PAST_THE_DRAW_BUDGET], capture_output=True, text=True, timeout=60
    )
    assert child.returncode == 0, child.stderr
    budget = mc._DRAW_BUDGET
    assert child.stdout.splitlines() == [
        f"a sweep of {draws} draws is too large to run, past the budget of {budget}"
        for draws in (20723724320768, 10**8 * (10**4 + 1))
    ]


# (run, params, init, n_quanta, n_walks, tile budget, planned draws)
_PLANS = [
    # every quantum of every walk
    (simulate, SchemeParams(0.4, 0.3, 0.2, 0.1, 3), None, 9, 10, None, 10 * 10),
    # I_B with r = 0.02 at 64-draw blocks, one walk a tile: T = ceil(log(1e-9) /
    # log(0.98)) = 1026 lies in block 16, so each walk plans 17 blocks
    (absorption_times, SchemeParams(0.0, 0.98, 0.0, 0.02, 3), None, 5000, 3, 64, 3 * 17 * 64),
    # the same capped at a horizon of 1000 quanta: every draw
    (absorption_times, SchemeParams(0.0, 0.98, 0.0, 0.02, 3), None, 1000, 3, 64, 3 * 1001),
    # block 0 of 201 draws: no later draw deadlocks (r == 0), every draw does
    # (r == 1), or every walk starts in D
    (absorption_times, SchemeParams(0.5, 0.5, 0.0, 0.0, 3), None, 200, 7, None, 7 * 201),
    (absorption_times, SchemeParams(0.0, 0.0, 0.0, 1.0, 3), None, 200, 7, None, 7 * 201),
    (absorption_times, SchemeParams(0.0, 0.98, 0.0, 0.02, 3), [0.0, 0.0, 0.0, 1.0], 200, 7,
     None, 7 * 201),
]


@pytest.mark.parametrize(
    "run, params, init, n_quanta, n_walks, budget, planned",
    _PLANS,
    ids=["simulate", "absorb-blocks", "absorb-horizon", "absorb-r0", "absorb-r1", "absorb-in-D"],
)
def test_draw_budget_admits_exactly_the_planned_draws(
    monkeypatch, run, params, init, n_quanta, n_walks, budget, planned
):
    if budget is not None:
        monkeypatch.setattr(mc, "_TILE_BUDGET", budget)
    init = Distribution([1 / 3, 1 / 3, 1 / 3, 0.0] if init is None else init)
    config = SimConfig(params, init, n_quanta, n_walks, seed=5)
    fills = _record_fills(monkeypatch)
    monkeypatch.setattr(mc, "_DRAW_BUDGET", planned - 1)
    with pytest.raises(ParameterError, match=f"^a sweep of {planned} draws .* {planned - 1}$"):
        run(config)
    assert fills == []  # refused before the first draw
    monkeypatch.setattr(mc, "_DRAW_BUDGET", planned)
    run(config)
    assert 0 < sum(draws for _, _, draws in fills) <= planned


def test_sweep_starts_no_thread(monkeypatch):
    # two free CPUs and tiles of 1500 quanta: every tile still runs on the
    # calling thread
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def no_start(thread):
        raise AssertionError(f"the sweep started thread {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", no_start)
    preset = make_preset(SchemeId.III_B, {"p": 0.4, "r": 1e-3}, pb=PB5)
    config = SimConfig.from_preset(preset, n_quanta=1500, n_walks=100, seed=47)
    assert config.n_walks * (config.n_quanta + 1) > mc._TILE_BUDGET  # several tiles
    simulate(config)
    absorption_times(config)


def _traced_peak(run, config):
    run(config)  # the first call in a process allocates some one-off state
    tracemalloc.start()
    try:
        result = run(config)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n_walks, n_quanta", [(64, 100_000), (2, 1_000_000)])
def test_memory_is_bounded_by_counts_plus_tiles(monkeypatch, n_walks, n_quanta):
    preset = make_preset(SchemeId.III_B, {"p": 0.417, "r": 1e-4}, pb=PB5)
    config = SimConfig.from_preset(preset, n_quanta=n_quanta, n_walks=n_walks, seed=31)
    estimate, simulate_peak = _traced_peak(simulate, config)
    sample, absorb_peak = _traced_peak(absorption_times, config)
    # the counts output plus a budget of draws and a few budget-sized
    # integer buffers; a whole-horizon draw buffer (51 MB for 64 x 100k)
    # does not fit
    bound = estimate.counts.nbytes + 8 * mc._TILE_BUDGET * 8
    assert simulate_peak < bound
    assert absorb_peak < bound
    # time blocks give the same arrays as whole-horizon tiles
    monkeypatch.setattr(mc, "_TILE_BUDGET", n_quanta + 1)
    assert np.array_equal(simulate(config).counts, estimate.counts)
    assert np.array_equal(absorption_times(config).first_hit, sample.first_hit)


def _short_and_long(preset, n_walks, seed):
    """(counts, first_hit) of the same walks over 10 and over 40 quanta."""
    views = []
    for n_quanta in (10, 40):
        config = SimConfig.from_preset(preset, n_quanta=n_quanta, n_walks=n_walks, seed=seed)
        views.append((simulate(config).counts, absorption_times(config).first_hit))
    return views


def test_longer_horizon_extends_the_same_paths():
    preset = make_preset(SchemeId.III_B, {"p": 0.4, "r": 0.2}, pb=PB5)
    # one walk's counts hold its path: a single 1 per row, in the walk's state
    for seed in range(40):
        (short, short_hit), (long, long_hit) = _short_and_long(preset, 1, seed)
        assert np.array_equal(short, long[:11]), seed
        assert np.array_equal(short_hit, np.where(long_hit > 10, CENSORED, long_hit)), seed
    (short, short_hit), (long, long_hit) = _short_and_long(preset, 200, 21)
    assert np.array_equal(short, long[:11])
    assert np.array_equal(short_hit, np.where(long_hit > 10, CENSORED, long_hit))


def _fill(seed, first_walk, out, first_draw=0):
    """Draws of consecutive walks, from a generator as a sweep builds it."""
    mc._WalkStreams(mc._state_rekey_works()).fill(seed, first_walk, out, first_draw)


def test_per_walk_streams_match_documented_keying():
    out = np.empty((4, 9))
    _fill(123, 50, out)
    for i in range(4):
        reference = np.random.Generator(np.random.Philox(key=(123 << 64) | (50 + i)))
        assert np.array_equal(out[i], reference.random(9))


def test_streams_resume_at_multiples_of_four_draws():
    out = np.empty((3, 9))
    _fill(123, 50, out, first_draw=12)
    for i in range(3):
        reference = np.random.Generator(np.random.Philox(key=(123 << 64) | (50 + i)))
        assert np.array_equal(out[i], reference.random(21)[12:])


@pytest.fixture
def fresh_rekey():
    """Forget the process's rekey self-check."""
    mc._state_rekey_works.cache_clear()
    yield
    mc._state_rekey_works.cache_clear()


def _force_fallback_rekey(monkeypatch, how):
    if how == "error":
        def broken(bg):
            raise RuntimeError("no state struct")

        monkeypatch.setattr(mc, "_state_views", broken)
    else:  # views of another generator: the self-check reads the wrong key
        other = np.random.Philox(key=1)
        views = mc._state_views
        monkeypatch.setattr(mc, "_state_views", lambda bg: views(other))


@pytest.mark.parametrize("rekey", ["state-struct", "error", "mismatch"])
@pytest.mark.parametrize("first_draw", [0, 8, 12])
def test_both_rekey_paths_match_documented_keying(monkeypatch, fresh_rekey, rekey, first_draw):
    if rekey != "state-struct":
        _force_fallback_rekey(monkeypatch, rekey)
    seed, first_walk = 2 ** 64 - 3, 2 ** 63 - 2  # both key words use their top bit
    out = np.empty((4, 7))
    _fill(seed, first_walk, out, first_draw)
    assert mc._state_rekey_works() is (rekey == "state-struct")
    for i in range(4):
        reference = np.random.Generator(np.random.Philox(key=(seed << 64) | (first_walk + i)))
        assert np.array_equal(out[i], reference.random(first_draw + 7)[first_draw:])


def test_dict_rekey_fallback_gives_identical_runs(monkeypatch, fresh_rekey):
    preset = make_preset(SchemeId.III_B, {"p": 0.4, "r": 0.2}, pb=PB5)
    config = SimConfig.from_preset(preset, n_quanta=15, n_walks=300, seed=43)
    fast = mc._sweep(config)
    _force_fallback_rekey(monkeypatch, "error")
    mc._state_rekey_works.cache_clear()
    slow = mc._sweep(config)
    assert not mc._state_rekey_works()
    for name, a, b in zip(("counts", "first_hit"), fast, slow):
        assert np.array_equal(a, b), name


def test_fallback_needs_no_state_dict(monkeypatch, fresh_rekey):
    # the fallback builds each walk's Philox, so a generator whose ``state``
    # property is unusable still gives every walk its stream
    preset = make_preset(SchemeId.III_B, {"p": 0.4, "r": 0.2}, pb=PB5)
    config = SimConfig.from_preset(preset, n_quanta=15, n_walks=300, seed=43)
    counts = simulate(config).counts
    first_hit = absorption_times(config).first_hit

    class NoStatePhilox(np.random.Philox):
        @property
        def state(self):
            raise RuntimeError("no state dict")

    _force_fallback_rekey(monkeypatch, "error")
    monkeypatch.setattr(np.random, "Philox", NoStatePhilox)
    mc._state_rekey_works.cache_clear()
    assert np.array_equal(simulate(config).counts, counts)
    assert np.array_equal(absorption_times(config).first_hit, first_hit)
    assert not mc._state_rekey_works()


def _watch_fills(monkeypatch):
    """Record fills instead of drawing; the self-check swallows errors, so no raising spy."""
    fills = []
    monkeypatch.setattr(mc._WalkStreams, "fill", lambda self, *args: fills.append(args))
    return fills


@pytest.mark.parametrize("wrong", ["key", "counter"])
def test_rekey_self_check_writes_nothing_through_views_that_read_back_wrong(
    monkeypatch, fresh_rekey, wrong
):
    real = mc._state_views
    built = []

    def views(bg):
        # detached copies of what numpy set, with one word changed
        key, counter, buffer_pos = real(bg)
        key, counter = (ctypes.c_uint64 * 2)(*key), (ctypes.c_uint64 * 4)(*counter)
        (key if wrong == "key" else counter)[1] ^= 1
        built.append((key, counter, list(key), list(counter)))
        return key, counter, ctypes.c_int(buffer_pos.value)

    monkeypatch.setattr(mc, "_state_views", views)
    fills = _watch_fills(monkeypatch)
    assert mc._state_rekey_works() is False
    [(key, counter, key_read, counter_read)] = built  # no struct-keyed generator was built
    assert (list(key), list(counter)) == (key_read, counter_read)
    assert fills == []


def test_rekey_self_check_refuses_a_struct_without_pointers(monkeypatch, fresh_rekey):
    # a key or counter held inline would put 2, or a word above 2**56, where
    # numpy's struct keeps its two pointers
    monkeypatch.setattr(mc, "_state_views", lambda bg: pytest.fail("views of a bad struct"))
    fills = _watch_fills(monkeypatch)
    for words in ((2, 1 << 40), (1 << 40, 1 << 60)):
        inline = (ctypes.c_uint64 * 8)(*words, 4)

        class InlinePhilox(np.random.Philox):
            @property
            def ctypes(self):
                return types.SimpleNamespace(state_address=ctypes.addressof(inline))

        monkeypatch.setattr(np.random, "Philox", InlinePhilox)
        mc._state_rekey_works.cache_clear()
        assert mc._state_rekey_works() is False
        assert list(inline) == [*words, 4, 0, 0, 0, 0, 0]
        assert fills == []


def test_rekey_self_check_runs_once_per_process(monkeypatch, fresh_rekey):
    monkeypatch.setattr(mc, "_TILE_BUDGET", 48)
    preset = make_preset(SchemeId.III_B, {"p": 0.4, "r": 0.2}, pb=PB5)
    config = SimConfig.from_preset(preset, n_quanta=15, n_walks=60, seed=41)
    simulate(config)
    absorption_times(config)
    assert mc._state_rekey_works.cache_info().misses == 1


# ---------------------------------------------------------------------------
# structural invariants


def test_counts_rows_sum_to_walks(fifo_hazard_estimate):
    _, estimate = fifo_hazard_estimate
    assert np.all(estimate.counts.sum(axis=1) == estimate.n_walks)
    assert np.max(np.abs(estimate.frequencies.sum(axis=1) - 1.0)) <= 1e-12


# The D column is the running total of first hits: a walk that left D would
# leave it short, one counted in D before its first hit would push it over.
# With retreat, the draws after a walk's first hit move it back; with a
# budget of 64 draws, walks are cut into time blocks and one dead in a block
# must stay in D in the next.
@pytest.mark.parametrize(
    "params, n_quanta, n_walks, seed, budget",
    [
        (make_preset(SchemeId.I_B, {"r": 0.25}, pb=PB5).params, 40, 2000, 29, None),
        (make_preset(SchemeId.II_B, {"r": 0.3}, pb=PB5).params, 30, 500, 17, None),
        (SchemeParams(0.4, 0.3, 0.2, 0.1, 5), 40, 2000, 23, None),
        (SchemeParams(0.4, 0.3, 0.28, 0.02, 5), 200, 300, 11, 64),
        (SchemeParams(0.5, 0.25, 0.25, 0.0, 5), 300, 40, 19, 64),
        (make_preset(SchemeId.III_B, {"p": 0.5, "r": 1e-20}, pb=PB5).params, 200, 40, 7, 64),
    ],
    ids=["I_B", "II_B", "retreat", "time-blocks", "deadlock-free", "rounded-hazard"],
)
def test_simulate_and_absorption_describe_the_same_walks(
    monkeypatch, params, n_quanta, n_walks, seed, budget
):
    if budget is not None:
        monkeypatch.setattr(mc, "_TILE_BUDGET", budget)
    init = Distribution.from_process_probs(PB5)
    config = SimConfig(params, init, n_quanta, n_walks, seed)
    estimate = simulate(config)
    sample = absorption_times(config)
    hit_counts = np.bincount(
        sample.first_hit[sample.first_hit != CENSORED], minlength=n_quanta + 1
    )
    in_deadlock = np.cumsum(hit_counts)
    assert np.array_equal(estimate.counts[:, -1], in_deadlock)
