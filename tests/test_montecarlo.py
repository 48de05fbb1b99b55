"""Tests for the seeded Monte Carlo walk engine."""

import ctypes
import threading
import time
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


@pytest.mark.parametrize(
    "counts, n_walks, exc",
    [
        (np.zeros((2, 3), dtype=np.int64), 0, ParameterError),  # no walks to normalize by
        # a negative count in a row of the right sum
        (np.array([[-1, 2, 0]]), 1, ParameterError),
        (np.array([[1, 0, 0], [0, 2, 0]]), 1, ParameterError),  # a row of another sum
        (np.zeros((0, 3), dtype=np.int64), 1, DimensionError),  # no quantum 0
        (np.ones((2, 1), dtype=np.int64), 1, DimensionError),  # no slot, only D
        (np.array([[1, 0], [1, 0]]), 1, DimensionError),  # one slot plus D
        # rows that would sum to n_walks once truncated to integers
        (np.array([[1.7, 0, 0], [0.2, 1.9, 0]]), 1, ParameterError),
        (np.array([[True, False, False]]), 1, ParameterError),  # not a count
    ],
    ids=[
        "no-walks", "negative-count", "row-sum", "no-rows", "one-column", "two-columns",
        "fractional", "bool",
    ],
)
def test_occupancy_estimate_rejects_inconsistent_counts(counts, n_walks, exc):
    with pytest.raises(exc):
        mc.OccupancyEstimate(counts, n_walks)


@pytest.mark.parametrize(
    "first_hit, horizon, exc",
    [
        ([5, -7, 3], -2, ParameterError),  # a negative horizon
        ([5, -7, 3], 6, ParameterError),  # -7 is neither a quantum nor CENSORED
        ([0, 6], 5, ParameterError),  # a hit past the horizon
        ([1.7], 5, ParameterError),  # a fractional hit
        (np.empty(0, dtype=np.int64), 5, DimensionError),  # no walks
    ],
    ids=["negative-horizon", "below-censored", "past-horizon", "fractional", "empty"],
)
def test_absorption_sample_rejects_inconsistent_hits(first_hit, horizon, exc):
    with pytest.raises(exc):
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
    for n in range(estimate.n_quanta + 1):
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


def _two_workers(monkeypatch, on: bool):
    """Open the sweep's two-worker gate for any tile, or shut it."""
    monkeypatch.setattr(mc, "_spare_cpu", lambda: True)
    monkeypatch.setattr(mc, "_PARALLEL_SPAN", 1 if on else 2 ** 62)


@pytest.mark.parametrize(
    "budget, n_walks, n_quanta",
    [
        # time blocks of 4 draws (7, 10), one walk per tile (16), three walks
        # per tile (50), one tile and so one worker (2**20)
        (7, 300, 15),
        (10, 300, 15),
        (16, 300, 15),
        (50, 300, 15),
        (2 ** 20, 300, 15),
        # default budget: three tiles of whole walks, then walks longer than
        # the budget, whose time blocks two workers halve
        (mc._TILE_BUDGET, 9000, 15),
        (mc._TILE_BUDGET, 3, 70_000),
    ],
)
def test_worker_count_does_not_change_results(monkeypatch, budget, n_walks, n_quanta):
    preset = make_preset(SchemeId.III_B, {"p": 0.4, "r": 0.2 if n_quanta < 100 else 1e-4}, pb=PB5)
    config = SimConfig.from_preset(preset, n_quanta=n_quanta, n_walks=n_walks, seed=37)
    monkeypatch.setattr(mc, "_TILE_BUDGET", budget)
    fill = mc._WalkStreams.fill
    fillers = set()

    def recording_fill(streams, *args):
        ident = threading.get_ident()
        if ident not in fillers and ident != threading.main_thread().ident:
            time.sleep(0.05)  # the helper starts late: it must still sweep its tiles
        fillers.add(ident)
        fill(streams, *args)

    monkeypatch.setattr(mc._WalkStreams, "fill", recording_fill)
    _two_workers(monkeypatch, False)
    one = mc._sweep(config)
    assert len(fillers) == 1
    fillers.clear()
    _two_workers(monkeypatch, True)
    two = mc._sweep(config)
    several_tiles = budget < (n_quanta + 1) * n_walks
    assert len(fillers) == (2 if several_tiles else 1)
    for name, a, b in zip(("counts", "first_hit"), one, two):
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("bad_walk", [0, 4], ids=["caller-tile", "helper-tile"])
def test_worker_error_reaches_the_caller_and_threads_are_joined(monkeypatch, bad_walk):
    # three walks a tile: walk 0 is in the caller's first tile, walk 4 in
    # the helper's
    monkeypatch.setattr(mc, "_TILE_BUDGET", 48)
    _two_workers(monkeypatch, True)
    fill = mc._WalkStreams.fill

    def failing_fill(streams, seed, first_walk, out, first_draw):
        if first_walk <= bad_walk < first_walk + out.shape[0]:
            raise RuntimeError(f"walk {bad_walk} failed")
        fill(streams, seed, first_walk, out, first_draw)

    monkeypatch.setattr(mc._WalkStreams, "fill", failing_fill)
    preset = make_preset(SchemeId.III_B, {"p": 0.4, "r": 0.2}, pb=PB5)
    config = SimConfig.from_preset(preset, n_quanta=15, n_walks=60, seed=41)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"walk {bad_walk} failed"):
        simulate(config)
    assert threading.active_count() == before


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
    """Draws of consecutive walks, from a generator as a sweep worker builds it."""
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


@pytest.mark.parametrize("count, spare", [(None, False), (1, False), (2, True), (64, True)])
def test_spare_cpu_falls_back_to_the_cpu_count(monkeypatch, count, spare):
    # platforms without sched_getaffinity (macOS, Windows) ask for the CPU count
    monkeypatch.delattr(mc.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: count)
    assert mc._spare_cpu() is spare


def test_rekey_self_check_runs_once_per_process(monkeypatch, fresh_rekey):
    monkeypatch.setattr(mc, "_TILE_BUDGET", 48)
    _two_workers(monkeypatch, True)  # each worker builds its own generator
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
@pytest.mark.parametrize(
    "scheme, free, n_quanta, n_walks, seed",
    [
        (SchemeId.I_B, {"r": 0.25}, 40, 2000, 29),
        (SchemeId.II_B, {"r": 0.3}, 30, 500, 17),
    ],
    ids=["I_B", "II_B"],
)
def test_simulate_and_absorption_describe_the_same_walks(scheme, free, n_quanta, n_walks, seed):
    preset = make_preset(scheme, free, pb=PB5)
    config = SimConfig.from_preset(preset, n_quanta=n_quanta, n_walks=n_walks, seed=seed)
    estimate = simulate(config)
    sample = absorption_times(config)
    hit_counts = np.bincount(
        sample.first_hit[sample.first_hit != CENSORED], minlength=n_quanta + 1
    )
    in_deadlock = np.cumsum(hit_counts)
    assert np.array_equal(estimate.counts[:, -1], in_deadlock)
