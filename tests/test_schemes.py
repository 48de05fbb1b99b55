"""Tests for scheme presets and their closed-form evaluators."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schedchain import (
    ConstraintError,
    DimensionError,
    Distribution,
    ParameterError,
    SchemeId,
    SchemePreset,
    SchemeParams,
    build_matrix,
    closed_form,
    closed_form_table,
    closed_form_trajectory,
    make_preset,
    propagate,
)

PB5 = (0.27, 0.15, 0.17, 0.18, 0.23)


# ---------------------------------------------------------------------------
# preset construction


def test_fifo_preset_pins_everything():
    preset = make_preset(SchemeId.I_A, {}, pb=PB5)
    assert (preset.params.p, preset.params.s, preset.params.q, preset.params.r) == (
        0.0, 1.0, 0.0, 0.0,
    )
    assert preset.params.m == 5


def test_mixture_preset_completes_stay_probability():
    preset = make_preset(SchemeId.III_A, {"p": 0.5}, pb=PB5)
    assert preset.params.p == 0.5
    assert preset.params.s == 0.5
    assert preset.params.q == preset.params.r == 0.0


def test_round_robin_rejects_pinned_parameter():
    with pytest.raises(ConstraintError):
        make_preset(SchemeId.II_A, {"s": 0.3}, pb=PB5)
    # consistent values are still over-determined
    with pytest.raises(ConstraintError):
        make_preset(SchemeId.II_A, {"s": 0.0}, pb=PB5)


def test_fifo_hazard_accepts_either_free_name():
    by_r = make_preset(SchemeId.I_B, {"r": 0.166}, pb=PB5)
    by_s = make_preset(SchemeId.I_B, {"s": 0.834}, pb=PB5)
    assert by_r.params.s == pytest.approx(0.834, abs=1e-15)
    assert by_s.params.r == pytest.approx(0.166, abs=1e-15)


def test_numpy_scalar_free_parameter_is_taken_as_its_float():
    # under NumPy 2 promotion 1 - r of a float32 stays a float32, off unit mass
    single = make_preset(SchemeId.I_B, {"r": np.float32(0.1)}, pb=PB5)
    double = make_preset(SchemeId.I_B, {"r": float(np.float32(0.1))}, pb=PB5)
    assert single.params == double.params


@pytest.mark.parametrize(
    "scheme, free",
    [
        (SchemeId.I_B, {}),                      # under-determined
        (SchemeId.I_B, {"r": 0.1, "s": 0.9}),    # over-determined
        (SchemeId.III_B, {"p": 0.4}),            # needs two of p, s, r
        (SchemeId.I_B, {"q": 0.1}),              # q is never free
        (SchemeId.I_B, {"r": 1.2}),              # not a probability
        (SchemeId.III_B, {"p": 0.7, "r": 0.7}),  # implied s < 0
        (SchemeId.I_B, {"x": 0.1}),              # unknown name
    ],
)
def test_bad_free_parameters_rejected(scheme, free):
    with pytest.raises(ConstraintError):
        make_preset(scheme, free, pb=PB5)


@pytest.mark.parametrize("value", [True, np.True_, "0.5"], ids=["bool", "numpy-bool", "str"])
def test_free_parameter_must_be_a_real_number(value):
    with pytest.raises(ConstraintError):
        make_preset(SchemeId.I_B, {"r": value}, pb=(0.5, 0.5))


def test_mixture_with_hazard_completes_third_parameter():
    preset = make_preset(SchemeId.III_B, {"p": 0.417, "r": 0.166}, pb=PB5)
    assert preset.params.s == pytest.approx(0.417, abs=1e-12)
    assert preset.params.q == 0.0


def test_pinned_start_preset_defaults_to_first_slot():
    preset = make_preset(SchemeId.IV, m=5)
    assert np.array_equal(preset.pb, [1, 0, 0, 0, 0])
    explicit = make_preset(SchemeId.IV, pb=(1.0, 0.0, 0.0, 0.0, 0.0))
    assert np.array_equal(explicit.pb, preset.pb)
    with pytest.raises(ConstraintError):
        make_preset(SchemeId.IV, pb=PB5)
    with pytest.raises(ParameterError):
        make_preset(SchemeId.IV)


@pytest.mark.parametrize(
    "pb, exc",
    [
        ((0.5, 0.4), ParameterError),            # mass 0.9
        ((0.5, -0.1, 0.6), ParameterError),      # negative entry
        ((1.0,), DimensionError),                # m == 1
    ],
)
def test_bad_pb_rejected(pb, exc):
    with pytest.raises(exc):
        make_preset(SchemeId.I_A, {}, pb=pb)


def test_pb_length_must_match_m():
    with pytest.raises(DimensionError):
        make_preset(SchemeId.I_A, {}, pb=PB5, m=4)


def test_preset_rejects_initial_deadlock_mass():
    params = SchemeParams(0.0, 1.0, 0.0, 0.0, 4)
    tainted = Distribution(np.array([0.5, 0.2, 0.2, 0.0, 0.1]))
    with pytest.raises(ConstraintError):
        SchemePreset(SchemeId.I_A, params, tainted)


@pytest.mark.parametrize(
    "params, exc",
    [
        (SchemeParams(0.5, 0.5, 0.0, 0.0, 5), ConstraintError),  # I_A pins p = 0
        (SchemeParams(0.0, 1.0, 0.0, 0.0, 4), DimensionError),  # pb has five slots
    ],
    ids=["pinned-value", "ring-size"],
)
def test_preset_built_directly_checks_its_params(params, exc):
    with pytest.raises(exc):
        SchemePreset(SchemeId.I_A, params, Distribution.from_process_probs(PB5))


# ---------------------------------------------------------------------------
# closed forms against frozen values


def test_closed_form_rotation_one_quantum():
    preset = make_preset(SchemeId.II_A, {}, pb=PB5)
    out = closed_form(preset, 1)
    assert np.allclose(out.processes, (0.23, 0.27, 0.15, 0.17, 0.18), atol=1e-15)
    assert out.deadlock == 0.0


def test_closed_form_pinned_start_cycles():
    preset = make_preset(SchemeId.IV, m=5)
    out = closed_form(preset, 2)
    assert np.array_equal(out.processes, [0, 0, 1, 0, 0])


def test_closed_form_rotation_with_hazard():
    preset = make_preset(SchemeId.II_B, {"p": 0.834}, pb=PB5)
    out = closed_form(preset, 1)
    assert out.probs[1] == pytest.approx(0.22518, abs=1e-12)
    assert out.deadlock == pytest.approx(0.166, abs=1e-15)


def test_closed_form_fifo_is_constant():
    preset = make_preset(SchemeId.I_A, {}, pb=PB5)
    for n in (0, 1, 7, 40):
        assert np.array_equal(closed_form(preset, n).probs, preset.init.probs)


def test_closed_form_periodicity_is_exact():
    rotating = make_preset(SchemeId.II_A, {}, pb=PB5)
    pinned = make_preset(SchemeId.IV, m=5)
    for preset in (rotating, pinned):
        m = preset.params.m
        for n in (0, 1, 3, 11):
            a = closed_form(preset, n).probs
            b = closed_form(preset, n + m).probs
            assert np.array_equal(a, b)


@pytest.mark.parametrize("m", [2, 3, 5, 8, 32, 40])
def test_closed_form_trajectory_matches_pointwise(m):
    # every ring size takes the one FFT path (m = 2 has only the DC and
    # Nyquist bins); a row is bit-identical whatever rows come with it
    pb = PB5 if m == 5 else np.random.default_rng(m).dirichlet(np.ones(m))
    preset = make_preset(SchemeId.III_B, {"p": 0.417, "r": 0.166}, pb=pb)
    traj = closed_form_trajectory(preset, 60)
    assert len(traj) == 61
    for n in (*range(9), 17, 59, 60):
        assert np.array_equal(traj[n].probs, closed_form(preset, n).probs)


def test_closed_form_rejects_negative_quantum():
    preset = make_preset(SchemeId.I_A, {}, pb=PB5)
    with pytest.raises(ParameterError):
        closed_form(preset, -1)
    # the table kernel checks its own inputs: every count, and pb against m
    params = SchemeParams(0.4, 0.3, 0.2, 0.1, 5)
    with pytest.raises(ParameterError):
        closed_form_table(params, np.array(PB5), [0, -3])
    # counts must be finite integers, on the spectral and the rotation branch
    rotation = SchemeParams(1.0, 0.0, 0.0, 0.0, 5)
    for bad in (1.5, np.nan, np.inf, 10**400):
        for chain in (params, rotation):
            with pytest.raises(ParameterError):
                closed_form_table(chain, np.array(PB5), [0, bad])
    with pytest.raises(DimensionError):
        closed_form_table(params, np.array([0.5, 0.5, 0.0]), [0, 1])
    # any array-like pb is taken
    np.testing.assert_array_equal(
        closed_form_table(params, list(PB5), [0, 7]),
        closed_form_table(params, np.array(PB5), [0, 7]),
    )


# ---------------------------------------------------------------------------
# the per-scheme formulas of the paper, kept as an oracle for the one closed form


def _paper_processes(preset, n):
    """Slot mass at quantum ``n`` from the scheme's own formula."""
    pb, p, s = preset.pb, preset.params.p, preset.params.s
    if preset.scheme is SchemeId.I_A:
        return pb
    if preset.scheme is SchemeId.I_B:
        return pb * s**n
    if preset.scheme in (SchemeId.II_A, SchemeId.IV):
        return np.roll(pb, n)
    if preset.scheme is SchemeId.II_B:
        return np.roll(pb, n) * p**n
    return sum(math.comb(n, k) * p**k * s ** (n - k) * np.roll(pb, k) for k in range(n + 1))


@pytest.mark.parametrize(
    "scheme, free",
    [
        (SchemeId.I_A, {}),
        (SchemeId.I_B, {"r": 0.166}),
        (SchemeId.II_A, {}),
        (SchemeId.II_B, {"p": 0.834}),
        (SchemeId.III_A, {"p": 0.5}),
        (SchemeId.III_B, {"p": 0.417, "r": 0.166}),
        (SchemeId.IV, {}),
    ],
)
def test_closed_form_matches_paper_formulas(scheme, free):
    preset = make_preset(scheme, free, pb=None if scheme is SchemeId.IV else PB5, m=5)
    for n in (0, 1, 2, 7, 13, 60):
        out = closed_form(preset, n)
        expected = _paper_processes(preset, n)
        np.testing.assert_allclose(out.processes, expected, rtol=1e-12)
        assert out.deadlock == pytest.approx(1.0 - expected.sum(), abs=1e-14)
        # CSV would print a negative zero as "-0"
        assert not np.signbit(out.deadlock)


def _hazard_free(scheme, r):
    return {"p": 0.417 * (1.0 - r), "r": r} if scheme is SchemeId.III_B else {"r": r}


@pytest.mark.parametrize("r", [1e-12, 1e-9, 1e-4])
@pytest.mark.parametrize("scheme", [SchemeId.I_B, SchemeId.II_B, SchemeId.III_B])
def test_closed_form_small_hazard_has_relative_accuracy(scheme, r):
    preset = make_preset(scheme, _hazard_free(scheme, r), pb=PB5)
    exact = propagate(preset.init, build_matrix(preset.params), 5000)
    dead, survival = exact.rows[:, -1], exact.survival()
    for n in (1, 2, 10, 100, 1000, 4999, 5000):
        out = closed_form(preset, n)
        assert out.deadlock == pytest.approx(dead[n], rel=1e-10, abs=0.0)
        assert float(out.processes.sum()) == pytest.approx(survival[n], rel=1e-10, abs=0.0)


@pytest.mark.parametrize("scheme", [SchemeId.I_B, SchemeId.II_B, SchemeId.III_B])
def test_closed_form_certain_deadlock(scheme):
    free = {"p": 0.0, "r": 1.0} if scheme is SchemeId.III_B else {"r": 1.0}
    preset = make_preset(scheme, free, pb=PB5)
    assert np.array_equal(closed_form(preset, 0).probs, preset.init.probs)
    exact = propagate(preset.init, build_matrix(preset.params), 3)
    for n in (1, 2, 3):
        out = closed_form(preset, n)
        assert out.deadlock == 1.0
        assert not out.processes.any()
        assert np.max(np.abs(out.probs - exact[n].probs)) <= 1e-15


@pytest.mark.parametrize(
    "scheme, free, n",
    [(SchemeId.III_B, {"p": 0.3, "r": 1e-20}, 2**62), (SchemeId.I_B, {"r": 1e-17}, 10**17)],
)
def test_closed_form_rows_sum_to_one_when_the_ring_factor_rounds_to_one(scheme, free, n):
    # p + s + q rounds to 1 while r > 0: the slots must still lose what D gains
    preset = make_preset(scheme, free, pb=(0.5, 0.2, 0.3))
    out = closed_form(preset, n)
    hazard = n * free["r"]  # n·log1p(-r) to double precision
    assert out.deadlock == pytest.approx(-math.expm1(-hazard), rel=1e-12)
    assert float(out.processes.sum()) == pytest.approx(math.exp(-hazard), rel=1e-12)
    assert abs(float(out.probs.sum()) - 1.0) <= 1e-15


# ---------------------------------------------------------------------------
# mixture stabilization


def test_even_mixture_flattens_toward_uniform():
    preset = make_preset(SchemeId.III_A, {"p": 0.5}, pb=PB5)
    deviations = []
    for n in range(120):
        proc = closed_form(preset, n).processes
        deviations.append(float(np.max(np.abs(proc - 0.2))))
    # non-increasing once every slot has been reachable at least once
    m = preset.params.m
    for a, b in zip(deviations[m:], deviations[m + 1:]):
        assert b <= a + 1e-12
    assert deviations[-1] < 0.01


# ---------------------------------------------------------------------------
# dual-route equivalence (spot check; the acceptance suite runs the full grid)


@st.composite
def preset_case(draw):
    scheme = draw(st.sampled_from(list(SchemeId)))
    m = draw(st.integers(2, 8))
    if scheme is SchemeId.IV:
        pb = None
    else:
        raw = draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m))
        pb = tuple(np.array(raw) / sum(raw))
    unit = st.floats(0.0, 1.0)
    if scheme in (SchemeId.I_B, SchemeId.III_A):
        free = {"s": draw(unit)}
    elif scheme is SchemeId.II_B:
        free = {"p": draw(unit)}
    elif scheme is SchemeId.III_B:
        a, b = draw(unit), draw(unit)
        total = max(a + b, 1.0)
        free = {"p": a / total, "r": b / total}
    else:
        free = {}
    return make_preset(scheme, free, pb=pb, m=m)


@settings(max_examples=60, deadline=None)
@given(preset=preset_case(), n=st.integers(0, 60))
def test_closed_form_agrees_with_matrix_engine(preset, n):
    traj = propagate(preset.init, build_matrix(preset.params), n)
    analytic = closed_form(preset, n)
    assert np.max(np.abs(analytic.probs - traj[n].probs)) <= 1e-10


# ---------------------------------------------------------------------------
# the spectral kernel: exact corners, accuracy, unreached slots, speed


def test_closed_form_trajectory_corners_are_exact():
    fifo = make_preset(SchemeId.I_A, {}, pb=PB5)
    rotating = make_preset(SchemeId.II_A, {}, pb=PB5)
    pinned = make_preset(SchemeId.IV, m=5)
    for preset, shift in ((fifo, 0), (rotating, 1), (pinned, 1)):
        table = closed_form_trajectory(preset, 16).to_array()
        for n, row in enumerate(table):
            assert np.array_equal(row[:-1], np.roll(preset.pb, shift * n))
            assert row[-1] == 0.0


def test_closed_form_rotates_exactly_at_huge_quantum_counts():
    forward = make_preset(SchemeId.II_A, {}, pb=PB5)
    backward = SchemeParams(0.0, 0.0, 1.0, 0.0, 5)
    # 10**10 + 3 would take seconds if the rotation were not reduced mod m
    # first; 2**53 + 1 is not a float; numpy holds 2**63 + 2 as a uint64 and
    # 2**64 + 3 as a Python int, neither of which may wrap when negated
    for n in (10**10 + 3, 2**53 + 1, 2**63 + 2, 2**64 + 3):
        start = time.perf_counter()
        assert np.array_equal(closed_form(forward, n).processes, np.roll(PB5, n % 5))
        assert time.perf_counter() - start < 1.0
        table = closed_form_table(backward, np.array(PB5), (n,))
        assert np.array_equal(table[0, :-1], np.roll(PB5, -n % 5))


def test_closed_form_trajectory_long_horizon_matches_propagate():
    preset = make_preset(SchemeId.III_B, {"p": 0.417, "r": 1e-4}, pb=PB5)
    analytic = closed_form_trajectory(preset, 20000)
    exact = propagate(preset.init, build_matrix(preset.params), 20000)
    assert np.max(np.abs(analytic.to_array() - exact.to_array())) <= 1e-12
    np.testing.assert_allclose(analytic.survival(), exact.survival(), rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(
        analytic.rows[:, -1], exact.rows[:, -1], rtol=1e-10, atol=0.0
    )


def test_closed_form_trajectory_wide_ring_matches_propagate():
    pb = np.random.default_rng(2000).dirichlet(np.ones(2000))
    preset = make_preset(SchemeId.III_B, {"p": 0.417, "r": 0.166}, pb=pb)
    analytic = closed_form_trajectory(preset, 200).to_array()
    exact = propagate(preset.init, build_matrix(preset.params), 200).to_array()
    assert np.max(np.abs(analytic - exact)) <= 1e-13


@pytest.mark.parametrize("m", [5, 50])
@pytest.mark.parametrize("steps", [(0.5, 0.5, 0.0), (0.0, 0.5, 0.5), (0.3, 0.4, 0.3)])
def test_closed_form_unreached_slots_are_exactly_zero(m, steps):
    # from P1 the walk needs k advances (or k retreats) to reach a slot k away;
    # before that its mass is 0, not FFT round-off
    p, s, q = steps
    params = SchemeParams(p, s, q, 0.0, m)
    init = Distribution.from_process_probs(np.eye(m)[0])
    analytic = closed_form_table(params, init.processes, np.arange(m - 1))
    exact = propagate(init, build_matrix(params), m - 2).to_array()
    unreached = exact == 0.0
    assert unreached[1:, :-1].any()
    assert not analytic[unreached].any()
    assert np.max(np.abs(analytic - exact)) <= 1e-15


def _random_retreat_chain(rng):
    m = int(rng.integers(2, 41))
    p, s, q, r = rng.dirichlet(np.ones(4))
    shape = rng.integers(4)
    if shape == 1:
        p = 0.0  # stay or retreat
    elif shape == 2:
        s = 0.0  # advance or retreat: the parity of the shift follows n
    elif shape == 3:
        p = s = 0.0  # pure retreat, a corner
    total = p + s + q + r
    pb = rng.dirichlet(np.ones(m))
    pb[rng.random(m) < 0.3] = 0.0
    if not pb.any():
        pb[0] = 1.0
    return SchemeParams(p / total, s / total, q / total, r / total, m), pb / pb.sum()


def test_closed_form_table_matches_propagate_with_retreat():
    rng = np.random.default_rng(20261018)
    ns = np.arange(201)
    for _ in range(200):
        params, pb = _random_retreat_chain(rng)
        init = Distribution.from_process_probs(pb)
        analytic = closed_form_table(params, init.processes, ns)
        exact = propagate(init, build_matrix(params), 200).to_array()
        assert np.max(np.abs(analytic - exact)) <= 1e-12, params
        # neither negative values nor negative zeros: CSV would print "-0"
        assert not np.signbit(analytic).any(), params


def test_closed_form_table_matches_extended_precision_stepping():
    # reference: the ring step divided by λ_0 = p + s + q, stepped in
    # np.longdouble, times the survival factor (1 - r)^n
    rng = np.random.default_rng(1318)
    ns = np.arange(201)
    for _ in range(240):
        m = int(rng.integers(2, 41))
        p, s, q, x = rng.dirichlet(np.ones(4))
        r = (0.0, 1e-3 * x, x)[rng.integers(3)]
        ring = (1.0 - r) / (p + s + q)
        params = SchemeParams(p * ring, s * ring, q * ring, r, m)
        pb = rng.dirichlet(np.ones(m))
        pb[rng.random(m) < 0.3] = 0.0
        if not pb.any():
            pb[0] = 1.0
        pb /= pb.sum()
        table = closed_form_table(params, pb, ns)

        p, s, q = (np.longdouble(v) for v in (params.p, params.s, params.q))
        walk = np.empty((ns.size, m), dtype=np.longdouble)
        walk[0] = pb
        for n in ns[1:]:
            prev = walk[n - 1]
            walk[n] = (s * prev + p * np.roll(prev, 1) + q * np.roll(prev, -1)) / (p + s + q)
        alive = (1 - np.longdouble(params.r)) ** ns.astype(np.longdouble)
        exact = np.column_stack([walk * alive[:, None], 1 - alive])
        assert np.max(np.abs(table - exact)) <= 1e-15, (params, pb)


@pytest.mark.parametrize("scheme, free", [
    (SchemeId.I_B, {"r": 0.166}),
    (SchemeId.II_B, {"p": 0.834}),
    (SchemeId.III_A, {"p": 0.5}),
    (SchemeId.III_B, {"p": 0.417, "r": 0.166}),
])
@pytest.mark.parametrize("pb", [PB5, (1.0, 0.0, 0.0, 0.0, 0.0), (0.0, 0.5, 0.0, 0.5, 0.0)])
def test_closed_form_cells_are_never_negative(scheme, free, pb):
    table = closed_form_trajectory(make_preset(scheme, free, pb=pb), 300).to_array()
    assert not np.signbit(table).any()


def test_closed_form_trajectory_is_not_quadratic():
    # a closed form that sums O(n) terms per row takes seconds here
    preset = make_preset(SchemeId.III_B, {"p": 0.417, "r": 1e-4}, pb=PB5)
    start = time.perf_counter()
    closed_form_trajectory(preset, 20000)
    assert time.perf_counter() - start < 1.0
