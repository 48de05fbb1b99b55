"""Tests for trajectory metrics and scheme comparison."""

import math
import warnings

import numpy as np
import pytest

from schedchain import (
    DimensionError,
    Distribution,
    ParameterError,
    SchemeId,
    SchemeParams,
    build_matrix,
    compare,
    jain_fairness,
    make_preset,
    metrics,
    propagate,
)

PB5 = (0.27, 0.15, 0.17, 0.18, 0.23)
JAIN_PB5 = 0.9541984732824427  # (sum pb)^2 / (5 * sum pb^2) with sum pb^2 = 0.2096


def _trajectory(preset, n):
    return propagate(preset.init, build_matrix(preset.params), n)


# ---------------------------------------------------------------------------
# fairness index


def test_jain_equal_shares():
    assert jain_fairness([0.2] * 5) == pytest.approx(1.0, abs=1e-15)


def test_jain_single_monopolist():
    assert jain_fairness([1.0, 0.0, 0.0, 0.0, 0.0]) == pytest.approx(0.2, abs=1e-15)


def test_jain_reference_vector():
    assert jain_fairness(PB5) == pytest.approx(JAIN_PB5, abs=1e-12)


def test_jain_is_scale_invariant():
    assert jain_fairness(np.array(PB5) * 7.3) == pytest.approx(JAIN_PB5, abs=1e-12)
    # shares whose squares, or k times their sum, overflow are scaled first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert jain_fairness(np.array(PB5) * 1e200) == pytest.approx(JAIN_PB5, abs=1e-12)
        assert jain_fairness([1e154] * 1000) == pytest.approx(1.0, abs=1e-12)
        assert jain_fairness([1e308, 1e308]) == 1.0


def test_jain_rejects_bad_shares():
    with pytest.raises(ParameterError):
        jain_fairness([0.0, 0.0])
    with pytest.raises(ParameterError):
        jain_fairness([0.5, -0.5])
    with pytest.raises(DimensionError):
        jain_fairness([])
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError):
            jain_fairness([bad, 1.0])


# ---------------------------------------------------------------------------
# metrics


def test_metrics_fifo_with_hazard_first_quantum():
    preset = make_preset(SchemeId.I_B, {"r": 0.166}, pb=PB5)
    mx = metrics(_trajectory(preset, 10), preset.params)
    assert mx.survival[0] == 1.0
    assert mx.survival[1] == pytest.approx(0.834, abs=1e-15)
    assert mx.fairness[1] == pytest.approx(JAIN_PB5, abs=1e-12)
    assert mx.efficiency_index[1] == pytest.approx(0.834 * JAIN_PB5, abs=1e-12)
    assert mx.expected_absorption == pytest.approx(1 / 0.166, abs=1e-12)


def test_metrics_rejects_params_of_another_ring():
    preset = make_preset(SchemeId.III_A, {"p": 0.5}, pb=(0.2, 0.3, 0.5))
    with pytest.raises(DimensionError):
        metrics(_trajectory(preset, 3), SchemeParams(0.5, 0.5, 0.0, 0.0, 2))


def test_metrics_deadlock_free_scheme():
    preset = make_preset(SchemeId.III_A, {"p": 0.5}, pb=PB5)
    mx = metrics(_trajectory(preset, 20), preset.params)
    assert np.all(mx.survival == 1.0)
    assert math.isinf(mx.expected_absorption)


def test_metrics_fairness_after_total_deadlock():
    params = SchemeParams(0.0, 0.0, 0.0, 1.0, 4)
    init = Distribution.from_process_probs([0.25] * 4)
    mx = metrics(propagate(init, build_matrix(params), 3), params)
    assert mx.survival[1] == 0.0
    assert mx.fairness[1] == 1.0
    assert mx.efficiency_index[1] == 0.0


def test_metrics_fairness_stays_in_range_when_shares_underflow():
    # At r = 0.85 the slot mass falls below 1e-160 by quantum 200, far below
    # what 1 - D resolves, so the squared conditional shares underflow.
    preset = make_preset(SchemeId.I_B, {"r": 0.85}, pb=PB5)
    fairness = metrics(_trajectory(preset, 400), preset.params).fairness
    assert np.all((fairness >= 0.2) & (fairness <= 1.0 + 1e-12))
    assert jain_fairness([1e-200, 1e-200]) == 1.0
    assert jain_fairness(np.array(PB5) * 1e-160) == pytest.approx(JAIN_PB5, abs=1e-12)


def test_survival_keeps_relative_accuracy_after_deadlock_rounds_to_one():
    # The hazard does not depend on the slot, so survival is 0.57^n exactly.
    # D reads 1.0 from quantum 63 on; 1 - D would give 0 there.
    params = SchemeParams(0.1, 0.4, 0.07, 0.43, 2)
    traj = propagate(Distribution.from_process_probs((0.8, 0.2)), build_matrix(params), 100)
    assert traj.rows[100, -1] == 1.0
    expected = 0.57 ** np.arange(101)
    np.testing.assert_allclose(traj.survival(), expected, rtol=1e-10, atol=0.0)
    mx = metrics(traj, params)
    np.testing.assert_allclose(mx.survival, expected, rtol=1e-10, atol=0.0)
    # fairness comes from the slot masses, not from a survival of zero
    assert mx.fairness[100] == jain_fairness(traj.to_array()[100, :-1])
    assert mx.efficiency_index[100] > 0.0


def test_metrics_survival_never_increases():
    preset = make_preset(SchemeId.III_B, {"p": 0.3, "r": 0.2}, pb=PB5)
    mx = metrics(_trajectory(preset, 60), preset.params)
    assert np.all(np.diff(mx.survival) <= 1e-12)


def test_rotation_fairness_is_periodic_and_pinned_start_is_flat():
    rotating = make_preset(SchemeId.II_A, {}, pb=PB5)
    mx = metrics(_trajectory(rotating, 20), rotating.params)
    m = rotating.params.m
    for n in range(20 - m + 1):
        assert mx.fairness[n] == pytest.approx(mx.fairness[n + m], abs=1e-12)

    pinned = make_preset(SchemeId.IV, m=5)
    mx_pinned = metrics(_trajectory(pinned, 20), pinned.params)
    assert np.allclose(mx_pinned.fairness, 0.2, atol=1e-12)


def test_rotation_efficiency_invariant_under_pb_rotation():
    base = make_preset(SchemeId.II_A, {}, pb=PB5)
    rolled = make_preset(SchemeId.II_A, {}, pb=np.roll(PB5, 2))
    mx_a = metrics(_trajectory(base, 15), base.params)
    mx_b = metrics(_trajectory(rolled, 15), rolled.params)
    assert np.allclose(mx_a.efficiency_index, mx_b.efficiency_index, atol=1e-12)


# ---------------------------------------------------------------------------
# comparison reports


def test_compare_prefers_even_initial_mass():
    uniform = make_preset(SchemeId.I_A, {}, pb=[0.2] * 5)
    lopsided = make_preset(SchemeId.I_A, {}, pb=[1.0, 0.0, 0.0, 0.0, 0.0])
    report = compare([lopsided, uniform], 10)
    assert report.ranking[0] == 1
    top = report.entries[report.ranking[0]]
    # the uniform pb, whose Jain fairness is 1 up to the rounding of 0.2
    assert top.metrics.fairness[0] == pytest.approx(1.0, rel=1e-15)


def test_compare_singleton():
    report = compare([make_preset(SchemeId.I_A, {}, pb=PB5)], 5)
    assert report.ranking == (0,)
    assert report.ranked_schemes == (SchemeId.I_A,)


def test_compare_rejects_mixed_ring_sizes():
    a = make_preset(SchemeId.I_A, {}, pb=PB5)
    b = make_preset(SchemeId.I_A, {}, pb=[0.25] * 4)
    with pytest.raises(DimensionError):
        compare([a, b], 10)


def test_compare_rejects_bad_horizon():
    preset = make_preset(SchemeId.I_A, {}, pb=PB5)
    with pytest.raises(ParameterError):
        compare([preset], 0)
    with pytest.raises(ParameterError):
        compare([], 10)


def test_compare_is_deterministic_and_tolerates_renormalized_pb():
    presets = [
        make_preset(SchemeId.I_B, {"r": 0.166}, pb=PB5),
        make_preset(SchemeId.III_B, {"p": 0.417, "r": 0.166}, pb=PB5),
    ]
    first = compare(presets, 30)
    second = compare(presets, 30)
    assert first.ranking == second.ranking

    scaled_pb = tuple(v * (1.0 + 2e-10) for v in PB5)
    rescaled = [
        make_preset(SchemeId.I_B, {"r": 0.166}, pb=scaled_pb),
        make_preset(SchemeId.III_B, {"p": 0.417, "r": 0.166}, pb=scaled_pb),
    ]
    assert compare(rescaled, 30).ranked_schemes == first.ranked_schemes


def test_compare_ties_fall_back_to_catalog_order():
    # identical parameters under two ids: II_A is I_A's cyclic twin only in
    # fairness terms, so force a literal tie with two copies of one scheme
    a = make_preset(SchemeId.II_A, {}, pb=[0.2] * 5)
    b = make_preset(SchemeId.I_A, {}, pb=[0.2] * 5)
    report = compare([a, b], 10)
    # both have survival 1 and fairness 1 at the horizon: tie -> I_A first
    assert report.ranked_schemes == (SchemeId.I_A, SchemeId.II_A)


def _hazard_pair_cases():
    yield 3, 0.166, 50, (0.0857332143268004, 0.5553958146159783, 0.3588709710572213)
    rng = np.random.default_rng(20261018)
    for _ in range(40):
        m = int(rng.choice([3, 5, 8]))
        r = float(rng.choice([0.166, 0.01, 1e-4]))
        yield m, r, int(rng.choice([50, 200])), rng.dirichlet(np.ones(m))


def test_compare_ties_within_rounding_fall_back_to_catalog_order():
    # I_B keeps the slot vector and II_B rotates it, so at one r both have
    # the same survival and fairness in exact arithmetic; their computed
    # efficiencies differ in the last bits, which must not decide the order
    for m, r, horizon, pb in _hazard_pair_cases():
        pair = [make_preset(scheme, {"r": r}, pb=pb) for scheme in (SchemeId.II_B, SchemeId.I_B)]
        report = compare(pair, horizon)
        final = [entry.metrics.efficiency_index[-1] for entry in report.entries]
        assert abs(final[0] - final[1]) <= 1e-13 * final[0], (m, r, horizon)
        assert report.ranked_schemes == (SchemeId.I_B, SchemeId.II_B), (m, r, horizon, pb)
