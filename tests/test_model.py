"""Tests for the core chain types and the exact propagation engine."""

import math
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import schedchain
from schedchain import analysis, model, montecarlo, schemes
from schedchain import (
    ATOL,
    DimensionError,
    Distribution,
    ParameterError,
    SchemeId,
    SchemeParams,
    Trajectory,
    build_matrix,
    closed_form_table,
    jain_fairness,
    make_preset,
    metrics,
    propagate,
)
from schedchain.cli import VERIFY_TOL, RunSpec, execute

PB5 = (0.27, 0.15, 0.17, 0.18, 0.23)


# ---------------------------------------------------------------------------
# hypothesis strategies


@st.composite
def move_probs(draw, min_value=0.01):
    raw = draw(st.lists(st.floats(min_value, 1.0), min_size=4, max_size=4))
    total = sum(raw)
    return tuple(v / total for v in raw)


@st.composite
def chain_case(draw, m_max=10):
    m = draw(st.integers(2, m_max))
    p, s, q, r = draw(move_probs())
    raw_pb = draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m))
    pb = np.array(raw_pb) / sum(raw_pb)
    return SchemeParams(p, s, q, r, m), pb


# ---------------------------------------------------------------------------
# parameters


@pytest.mark.parametrize(
    "p, s, q, r, m",
    [
        (-0.1, 0.6, 0.3, 0.2, 3),
        (0.5, 0.5, 0.5, 0.5, 3),
        (0.2, 0.3, 0.2, 0.2, 3),
        (0.25, 0.25, 0.25, 0.25, 1),
        (1.2, -0.2, 0.0, 0.0, 3),
    ],
)
def test_params_rejected(p, s, q, r, m):
    with pytest.raises(ParameterError):
        SchemeParams(p, s, q, r, m)


@pytest.mark.parametrize("p, s", [(True, 0), (np.True_, 0), ("a", 1)], ids=["bool", "numpy-bool", "str"])
def test_params_must_be_real_numbers(p, s):
    with pytest.raises(ParameterError):
        SchemeParams(p, s, 0, 0, 2)


def test_params_absorb_tiny_drift_but_reject_real_drift():
    params = SchemeParams(0.25 + 1e-10, 0.25, 0.25, 0.25, 4)
    assert abs(params.p + params.s + params.q + params.r - 1.0) <= ATOL
    with pytest.raises(ParameterError):
        SchemeParams(0.25 + 1e-7, 0.25, 0.25, 0.25, 4)


def test_params_keep_exact_inputs():
    params = SchemeParams(0.0, 0.834, 0.0, 0.166, 5)
    assert params.s == 0.834
    assert params.r == 0.166


# ---------------------------------------------------------------------------
# distributions


def test_distribution_basic():
    d = Distribution.from_process_probs(PB5)
    assert d.m == 5
    assert d.deadlock == 0.0
    assert np.allclose(d.processes, PB5)


@pytest.mark.parametrize(
    "probs",
    [
        (0.5, 0.6, 0.0),
        (0.7, -0.2, 0.5),
        (0.5, 0.5),
    ],
)
def test_distribution_rejected(probs):
    with pytest.raises((ParameterError, DimensionError)):
        Distribution(np.asarray(probs))


def test_distribution_from_process_probs_needs_a_vector():
    with pytest.raises(DimensionError):
        Distribution.from_process_probs([[0.5, 0.5]])


def test_distribution_is_immutable():
    d = Distribution.from_process_probs(PB5)
    with pytest.raises(ValueError):
        d.probs[0] = 0.5


# ---------------------------------------------------------------------------
# matrix construction


def _dense(params: SchemeParams) -> np.ndarray:
    """Oracle: the dense row-stochastic ``(m + 1)²`` transition matrix of ``params``.

    Rows and columns are ordered ``P1..Pm, D``.  Each slot row holds ``p`` on its
    successor, ``s`` on itself, ``q`` on its predecessor and ``r`` on D; the D
    row is absorbing.  With ``m == 2`` the successor and predecessor coincide,
    so their masses accumulate on the single neighbour.
    """
    m = params.m
    t = np.zeros((m + 1, m + 1))
    slots = np.arange(m)
    t[slots, (slots + 1) % m] += params.p
    t[slots, slots] += params.s
    t[slots, (slots - 1) % m] += params.q
    t[:m, m] = params.r
    t[m, m] = 1.0
    return t


def test_build_matrix_pure_cycle():
    mat = _dense(build_matrix(SchemeParams(1.0, 0.0, 0.0, 0.0, 3)))
    expected = np.array(
        [
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 1],
        ],
        dtype=float,
    )
    assert np.array_equal(mat, expected)


def test_build_matrix_identity_on_processes():
    mat = _dense(build_matrix(SchemeParams(0.0, 1.0, 0.0, 0.0, 5)))
    assert np.array_equal(mat, np.eye(6))


def test_build_matrix_advance_or_deadlock():
    mat = _dense(build_matrix(SchemeParams(0.834, 0.0, 0.0, 0.166, 5)))
    for i in range(5):
        row = np.zeros(6)
        row[(i + 1) % 5] = 0.834
        row[5] = 0.166
        assert np.array_equal(mat[i], row)
    assert np.array_equal(mat[5], [0, 0, 0, 0, 0, 1])


def test_build_matrix_two_slots_merges_neighbours():
    mat = _dense(build_matrix(SchemeParams(0.3, 0.2, 0.4, 0.1, 2)))
    # successor and predecessor of each slot coincide when m == 2
    assert mat[0, 1] == pytest.approx(0.7, abs=1e-15)
    assert mat[0, 0] == pytest.approx(0.2, abs=1e-15)
    assert mat[0, 2] == pytest.approx(0.1, abs=1e-15)


def test_transition_matrix_is_the_ring_operator():
    # the parameters are the operator: propagate steps them as the dense matrix would
    params = SchemeParams(0.3, 0.2, 0.4, 0.1, 4)
    assert build_matrix(params) is params
    init = Distribution.from_process_probs((0.1, 0.2, 0.3, 0.4))
    out = propagate(init, params, 1)[1]
    np.testing.assert_allclose(out.probs, init.probs @ _dense(params), rtol=0.0, atol=1e-15)
    with pytest.raises(TypeError):
        propagate(init, np.eye(5), 1)  # a hand-built matrix is not a chain


# ---------------------------------------------------------------------------
# one quantum


def _one_step(dist, params):
    return propagate(dist, params, 1)[1]


def test_step_leaves_deadlock_alone():
    mat = build_matrix(SchemeParams(0.3, 0.3, 0.2, 0.2, 4))
    dist = Distribution(np.array([0, 0, 0, 0, 1.0]))
    out = _one_step(dist, mat)
    assert np.array_equal(out.probs, dist.probs)


def test_step_identity_keeps_initial_mass():
    mat = build_matrix(SchemeParams(0.0, 1.0, 0.0, 0.0, 5))
    out = _one_step(Distribution.from_process_probs(PB5), mat)
    assert np.allclose(out.processes, PB5, atol=1e-15)


def test_step_pure_cycle_matches_independent_matvec():
    params = SchemeParams(1.0, 0.0, 0.0, 0.0, 5)
    dist = Distribution.from_process_probs(PB5)
    out = _one_step(dist, build_matrix(params))
    assert np.allclose(out.processes, (0.23, 0.27, 0.15, 0.17, 0.18), atol=1e-15)

    # independent oracle: dense matrix-vector product written out by hand
    table = [[0.0] * 6 for _ in range(6)]
    for i in range(5):
        table[i][(i + 1) % 5] = 1.0
    table[5][5] = 1.0
    expected = [
        sum(dist.probs[i] * table[i][j] for i in range(6)) for j in range(6)
    ]
    assert np.allclose(out.probs, expected, atol=1e-15)


def test_step_dimension_mismatch():
    mat = build_matrix(SchemeParams(0.5, 0.5, 0.0, 0.0, 4))
    with pytest.raises(DimensionError):
        _one_step(Distribution.from_process_probs(PB5), mat)


# ---------------------------------------------------------------------------
# propagation


def test_propagate_zero_steps():
    init = Distribution.from_process_probs(PB5)
    matrix = build_matrix(SchemeParams(0.5, 0.5, 0.0, 0.0, 5))
    traj = propagate(init, matrix, 0)
    assert len(traj) == 1
    assert np.array_equal(traj[0].probs, init.probs)
    with pytest.raises(ParameterError):
        propagate(init, matrix, 2.0)


@pytest.mark.parametrize(
    "params",
    [SchemeParams(0.4, 0.3, 0.2, 0.1, 5), SchemeParams(0.417, 0.417, 0.0, 0.166, 5)],
    ids=["retreat", "mixture"],
)
def test_propagate_continues_from_any_row(params):
    # a row of a trajectory starts a propagation like quantum 0 does, and
    # continues the trajectory up to rounding
    matrix = build_matrix(params)
    n = 40
    traj = propagate(Distribution.from_process_probs(PB5), matrix, n)
    for k in (1, 7, 20, n):
        rest = propagate(traj[k], matrix, n - k).rows
        np.testing.assert_allclose(rest, traj.rows[k:], rtol=0.0, atol=1e-14)


def test_propagate_fifo_with_hazard_two_steps():
    # s = 0.834, r = 0.166: slot mass scales by s each quantum
    params = SchemeParams(0.0, 0.834, 0.0, 0.166, 5)
    traj = propagate(Distribution.from_process_probs(PB5), build_matrix(params), 2)
    assert traj[2].probs[0] == pytest.approx(0.18780012, abs=1e-12)
    assert traj[2].deadlock == pytest.approx(0.304444, abs=1e-12)


def test_propagate_cycle_has_period_m():
    params = SchemeParams(1.0, 0.0, 0.0, 0.0, 5)
    traj = propagate(Distribution.from_process_probs(PB5), build_matrix(params), 5)
    assert np.allclose(traj[5].probs, traj[0].probs, atol=1e-15)


def _stepped(init: np.ndarray, entries: np.ndarray, n: int) -> np.ndarray:
    """Reference: one dense product per quantum, each row renormalized before the next step."""
    table = np.empty((n + 1, init.size))
    table[0] = init
    for k in range(n):
        row = table[k] @ entries
        total = float(row.sum())
        if abs(total - 1.0) > ATOL or float(row.max()) > 1.0:
            row = row / total
        table[k + 1] = row
    return table


def _assert_matches_stepping(table: np.ndarray, reference: np.ndarray) -> None:
    assert np.max(np.abs(table.sum(axis=1) - 1.0)) <= ATOL
    dead = table[:, -1]
    assert dead.max() <= 1.0
    # renormalising a drained row can leave D an ulp or two below the row
    # before it, in per-quantum stepping as well
    assert np.diff(dead).min(initial=0.0) >= -1e-15
    assert np.max(np.abs(table - reference)) <= 1e-14


def test_propagate_renormalizes_each_quantum():
    # Past about quantum 60 the ring is drained: a raw product chain would
    # read D = 1 + 1 ulp on 137 rows.  propagate steps the ring law, starts
    # each block of quanta from a law row divided by its own sum and takes D
    # from the survival factor, so no overshoot is ever fed forward.
    params = SchemeParams(0.1, 0.4, 0.07, 0.43, 2)
    mat = _dense(params)
    traj = propagate(Distribution.from_process_probs((0.8, 0.2)), build_matrix(params), 200)
    table = traj.to_array()

    raw = table[0]
    overshoots = 0
    for _ in range(200):
        raw = raw @ mat
        overshoots += raw[-1] > 1.0
    assert overshoots > 100

    _assert_matches_stepping(table, _stepped(table[0], mat, 200))

    # D reads 1.0 from quantum 67 on, but the slots still hold mass, so
    # fairness comes from the slot shares in every row
    slots = table[:, :-1].sum(axis=1)
    assert np.all(slots > 0.0) and table[-1, -1] == 1.0
    expected = [jain_fairness(row[:-1]) for row in table]
    assert np.array_equal(metrics(traj, params).fairness, expected)


def test_drained_chains_match_per_quantum_stepping():
    # high hazards drain the ring within the horizon, where rows overshoot 1
    rng = np.random.default_rng(20240603)
    for _ in range(300):
        m = int(rng.integers(2, 11))
        r = rng.uniform(0.3, 0.95)
        p, s, q = rng.dirichlet(np.ones(3)) * (1.0 - r)
        params = SchemeParams(p, s, q, r, m)
        init = Distribution.from_process_probs(rng.dirichlet(np.ones(m)))
        table = propagate(init, build_matrix(params), 400).to_array()
        _assert_matches_stepping(table, _stepped(init.probs, _dense(params), 400))


def _factored(params: SchemeParams, pb, n: int) -> np.ndarray:
    """Reference in long double: the ring law stepped with the normalised stencil,
    times the survival (1 - r)^n taken from n·log1p(-r), with D holding the rest."""
    p, s, q, r = (np.longdouble(v) for v in (params.p, params.s, params.q, params.r))
    p, s, q = p / (p + s + q), s / (p + s + q), q / (p + s + q)
    law = np.array(pb, dtype=np.longdouble)
    exact = np.empty((n + 1, law.size + 1), dtype=np.longdouble)
    for k in range(n + 1):
        exact[k, :-1] = law
        law = s * law + p * np.roll(law, 1) + q * np.roll(law, -1)
    log_alive = np.arange(n + 1, dtype=np.longdouble) * np.log1p(-r)
    exact[:, :-1] *= np.exp(log_alive)[:, None]
    exact[:, -1] = -np.expm1(log_alive)
    return exact


def test_long_horizon_rows_keep_rounding_error_small():
    # Every block reuses the kernels, so their rounding would add up over the
    # 142 blocks of 141 quanta (225 of 223 at N = 50 000); kernels stepped in
    # extended precision keep the error below that of per-quantum stepping
    # (about 1.3e-14 for the retreat chain).  np.longdouble is a double on
    # some platforms, and then the bound is that of stepping.
    extended = np.finfo(np.longdouble).eps < np.finfo(float).eps
    retreat = SchemeParams(0.4, 0.3, 0.2999, 1e-4, 5)
    mixture = SchemeParams(0.417, 0.5829, 0.0, 1e-4, 5)  # III_B, p=0.417, r=1e-4
    for params, n in ((retreat, 20_000), (mixture, 50_000)):
        exact = _factored(params, PB5, n)
        table = propagate(Distribution.from_process_probs(PB5), build_matrix(params), n)
        error = float(np.max(np.abs(table.to_array() - exact)))
        assert error <= (3e-15 if extended else 3e-14), (params, n)


def test_blocks_start_from_renormalized_rows():
    # p + s + q + r = 1 + 9e-13 passes as is.  Fed forward unchecked over
    # 20 000 quanta, a drift of 9e-13 a quantum would pass DRIFT_TOL; the law
    # steps a stencil normalised to 1, each block starts from a law row divided
    # by its own sum, and the survival comes from r alone, so no row drifts.
    params = SchemeParams(0.4, 0.3, 0.2999, 1e-4 + 9e-13, 5)
    init = Distribution.from_process_probs(PB5)
    table = propagate(init, build_matrix(params), 20_000).to_array()
    assert np.max(np.abs(table.sum(axis=1) - 1.0)) <= ATOL
    assert np.max(np.abs(table - _factored(params, PB5, 20_000))) <= 2 * ATOL


def _chain_stepped(init: np.ndarray, params: SchemeParams, n: int) -> np.ndarray:
    """Reference in long double: the README chain stepped one quantum at a time.

    Its slot entries are ``p, s, q`` scaled by ``(1 - r) / (p + s + q)``, so a
    slot row keeps ``1 - r`` on the ring and the chain survives as
    ``(1 - r)^n``; the D column holds ``r``.  The table is rounded once.
    """
    p, s, q, r = (np.longdouble(v) for v in (params.p, params.s, params.q, params.r))
    alive = (1 - r) / (p + s + q)
    m = params.m
    t = np.zeros((m + 1, m + 1), dtype=np.longdouble)
    slots = np.arange(m)
    t[slots, (slots + 1) % m] += p * alive
    t[slots, slots] += s * alive
    t[slots, (slots - 1) % m] += q * alive
    t[:m, m] = r
    t[m, m] = 1
    table = np.empty((n + 1, m + 1), dtype=np.longdouble)
    table[0] = init
    for k in range(n):
        table[k + 1] = table[k] @ t
    return table.astype(float)


@settings(max_examples=60, deadline=None)
@given(m=st.sampled_from([2, 3, 5, 40]), probs=move_probs(), n=st.integers(0, 400), data=st.data())
def test_blocked_rows_match_dense_stepping(m, probs, n, data):
    # q > 0 throughout; at m = 2 the successor and predecessor coincide, and at
    # m = 40 blocks of up to 20 quanta fold their taps onto the ring or not.  A
    # start may hold mass on D, then also none on the ring.
    raw_pb = data.draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m))
    dead = data.draw(st.just(0.0) | st.floats(0.0, 1.0))
    assume(any(raw_pb) or dead)
    params = SchemeParams(*probs, m)
    init = Distribution(np.append(raw_pb, dead) / (sum(raw_pb) + dead))
    table = propagate(init, build_matrix(params), n).to_array()
    assert np.max(np.abs(table - _chain_stepped(init.probs, params, n))) <= 1e-14


def test_deadlock_column_matches_the_closed_form():
    # both engines take D from the one survival factor, so over III_B presets
    # whose p + s + q and 1 - r differ in floats D agrees to a few ulp
    rng = np.random.default_rng(20261019)
    eps = np.finfo(float).eps
    for _ in range(200):
        r = float(10 ** rng.uniform(-7, -1))
        p = round(float(rng.uniform(0.0, 1.0 - r)), 3)
        m = int(rng.integers(2, 11))
        preset = make_preset(SchemeId.III_B, {"p": p, "r": r}, rng.dirichlet(np.ones(m)))
        n = int(rng.integers(1, 2000))
        dead = propagate(preset.init, build_matrix(preset.params), n).to_array()[:, -1]
        analytic = closed_form_table(preset.params, preset.init.processes, np.arange(n + 1))
        assert np.all(np.abs(dead - analytic[:, -1]) <= 4 * eps * analytic[:, -1]), preset


def test_long_chain_rows_match_the_closed_form_per_row():
    # p + s + q = 0.9999799999999999 while 1 - r = 0.99998: a survival of
    # (p + s + q)^n would be off by 2.2e-10 of the ring mass at this N, while
    # survival (6.5e-26) is still a normal float.  Every 1000th row is compared,
    # relative to its own mass as run --verify does.
    preset = make_preset(SchemeId.III_B, {"p": 0.283, "r": 2e-5}, (0.5, 0.5))
    n = 2_900_000
    table = propagate(preset.init, build_matrix(preset.params), n).to_array()[::1000]
    analytic = closed_form_table(preset.params, preset.init.processes, np.arange(0, n + 1, 1000))
    diff = np.abs(table - analytic)
    ring = table[:, :-1].sum(axis=1)
    assert np.max(diff.max(axis=1)[1:] / ring[1:]) <= VERIFY_TOL
    assert np.max(diff[1:, -1] / table[1:, -1]) <= VERIFY_TOL


def test_propagate_is_not_quadratic():
    # one Python step per quantum took 2-3 s here; blocks of 632 quanta take tens of ms
    params = SchemeParams(0.4, 0.3, 0.2999, 1e-4, 5)
    init = Distribution.from_process_probs(PB5)
    start = time.perf_counter()
    traj = propagate(init, build_matrix(params), 400_000)
    assert time.perf_counter() - start < 0.5
    assert len(traj) == 400_001


def test_wide_ring_needs_no_dense_matrix():
    # the dense (m + 1)² matrix of this ring would take 80 GB
    m = 100_000
    params = SchemeParams(0.3, 0.3, 0.3, 0.1, m)
    init = Distribution.from_process_probs(np.random.default_rng(7).dirichlet(np.ones(m)))
    tracemalloc.start()
    try:
        table = propagate(init, build_matrix(params), 100).to_array()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (101, m + 1)
    assert peak <= table.nbytes + 8 * 2**20
    analytic = closed_form_table(params, init.processes, np.arange(101))
    assert np.max(np.abs(table - analytic)) <= 1e-13


def test_trajectory_invariants_enforced():
    with pytest.raises(ParameterError):
        Trajectory(np.empty((0, 4)))  # no initial distribution
    with pytest.raises(DimensionError):
        Trajectory(np.array([0.1, 0.2, 0.1, 0.6]))  # one row, not a table
    with pytest.raises(ParameterError):
        Trajectory(np.array([[0.1, 0.2, np.nan, 0.6]]))
    with pytest.raises(ParameterError):
        Trajectory(np.array([[0.5, -0.1, 0.0, 0.6]]))
    with pytest.raises(ParameterError):
        Trajectory(np.array([[0.1, 0.2, 0.1, 0.6], [0.1, 0.2, 0.1, 0.6 + 1e-7]]))
    low_d = [0.2, 0.2, 0.1, 0.5]
    high_d = [0.1, 0.2, 0.1, 0.6]
    traj = Trajectory(np.array([low_d, high_d]))
    assert len(traj) == 2 and traj.m == 3
    assert np.array_equal(traj[-1].probs, high_d)
    with pytest.raises(ParameterError):
        Trajectory(np.array([high_d, low_d]))  # deadlock mass may not fall


def test_trajectory_rows_are_read_only_views():
    traj = propagate(
        Distribution.from_process_probs(PB5), build_matrix(SchemeParams(0.5, 0.5, 0.0, 0.0, 5)), 3
    )
    table = traj.to_array()
    rows = list(traj)  # the sequence protocol, through traj[n]
    assert len(rows) == len(traj) == 4
    for n, row in enumerate(rows):
        assert np.shares_memory(row.probs, table)
        assert np.array_equal(row.probs, table[n])
        with pytest.raises(ValueError):
            row.probs[0] = 0.5
    assert np.shares_memory(traj[2].probs, table)
    with pytest.raises(ValueError):
        table[0, 0] = 0.5


def test_trajectory_refuses_a_slice_as_a_distribution():
    traj = propagate(
        Distribution.from_process_probs((0.5, 0.5)), SchemeParams(0.3, 0.5, 0.1, 0.1, 2), 4
    )
    with pytest.raises(DimensionError):
        traj[1:3]


# Each result type, built from an array of its dtype, and the arrays it holds.
_RESULT_TYPES = {
    "Distribution": (np.array([0.5, 0.3, 0.2]), Distribution, lambda d: [d.probs]),
    "Trajectory": (
        np.array([[0.5, 0.3, 0.2], [0.4, 0.3, 0.3]]), Trajectory, lambda t: [t.rows]
    ),
    "OccupancyEstimate": (
        np.array([[3, 0, 0], [2, 1, 0]]),
        lambda a: montecarlo.OccupancyEstimate(a, 3),
        lambda e: [e.counts],
    ),
    "AbsorptionSample": (
        np.array([0, 2, montecarlo.CENSORED]),
        lambda a: montecarlo.AbsorptionSample(a, 5),
        lambda s: [s.first_hit],
    ),
    "SchemeMetrics": (
        np.array([1.0, 0.9, 0.8]),
        lambda a: analysis.SchemeMetrics(a, a, a, 10.0),
        lambda m: [m.survival, m.fairness, m.efficiency_index],
    ),
}


@pytest.mark.parametrize("name", list(_RESULT_TYPES))
def test_result_types_keep_only_arrays_nothing_can_write(name):
    values, build, held = _RESULT_TYPES[name]
    # a read-only view of a writable array is copied: writing the array leaves the object
    source = values.copy()
    view = source[:]
    view.flags.writeable = False
    result = build(view)
    source[-1] = source[0]
    for arr in held(result):
        assert np.array_equal(arr, values) and not arr.flags.writeable
    # an owning read-only array is kept as it is
    frozen = values.copy()
    frozen.flags.writeable = False
    assert all(arr is frozen for arr in held(build(frozen)))
    # a writable array is copied and stays writable
    writable = values.copy()
    for arr in held(build(writable)):
        assert not np.shares_memory(arr, writable) and not arr.flags.writeable
    assert writable.flags.writeable


_CHAIN3 = SchemeParams(0.4, 0.3, 0.2, 0.1, 3)

# Each array input: the dimensions it takes, a call feeding it, and the name its errors give.
_ARRAY_DOORS = {
    "Distribution": (1, Distribution, "state probabilities"),
    "from_process_probs": (1, Distribution.from_process_probs, "pb"),
    "Trajectory": (2, Trajectory, "trajectory rows"),
    "make_preset": (1, lambda a: make_preset(SchemeId.I_A, pb=a), "pb"),
    "closed_form_table-pb": (1, lambda a: closed_form_table(_CHAIN3, a, [1]), "pb"),
    "closed_form_table-ns": (
        1, lambda a: closed_form_table(_CHAIN3, [0.2, 0.3, 0.5], a), "quantum counts"
    ),
    "jain_fairness": (1, jain_fairness, "shares"),
    "SchemeMetrics": (
        1, lambda a: analysis.SchemeMetrics(a, [1.0] * 3, [1.0] * 3, 1.0), "survival"
    ),
    "OccupancyEstimate": (2, lambda a: montecarlo.OccupancyEstimate(a, 1), "counts"),
    "AbsorptionSample": (1, lambda a: montecarlo.AbsorptionSample(a, 5), "first_hit"),
    "execute-pb": (
        1,
        lambda a: execute(RunSpec(command="run", scheme="I_A", pb=tuple(a), quanta=1, fmt="json")),
        "pb",
    ),
}

# Rows of three entries no array input takes, as lists and as ndarrays.
_BAD_ROWS = {
    "numeric-text": ["1", "0", "0"],
    "numeric-text-array": np.array(["1", "0", "0"]),
    "bools": [True, False, False],
    "bool-array": np.array([True, False, False]),
    "bool-among-numbers": [True, 0, 0],
    "text": ["a", "b", "c"],
    "none": [None, 0, 0],
    "complex-array": np.array([1j, 0, 0]),
    "ragged": [[1, 0], 0, 0],
}


@pytest.mark.parametrize("row", list(_BAD_ROWS))
@pytest.mark.parametrize("door", list(_ARRAY_DOORS))
def test_array_inputs_hold_only_numbers(door, row):
    ndim, call, name = _ARRAY_DOORS[door]
    bad = _BAD_ROWS[row]
    if ndim == 2:
        bad = np.stack([bad, bad]) if isinstance(bad, np.ndarray) else [bad, bad]
    with pytest.raises(model.ModelError, match=rf"^{name} must hold (numbers|integers)"):
        call(bad)
    # ragged nesting of rows, and of arrays too unequal for numpy to hold as objects
    for ragged in ([[1, 0], [0]], [np.zeros((2, 2)), np.zeros((2, 3))]):
        if ndim == 2:
            ragged = [[1, 0, 0], [1, 0]] if isinstance(ragged[0], list) else [ragged, ragged]
        with pytest.raises(model.ModelError, match=rf"^{name} must hold (numbers|integers)"):
            call(ragged)


def test_a_spec_with_a_pb_of_text_is_refused():
    spec = RunSpec(command="run", scheme="I_A", pb=("0.5", "0.5"), quanta=1, fmt="json")
    with pytest.raises(ParameterError, match="^pb must hold numbers"):
        execute(spec)


@pytest.mark.parametrize(
    "call",
    [
        lambda: closed_form_table(_CHAIN3, [0.2, 0.3, 0.5], [2.0]),
        lambda: closed_form_table(SchemeParams(1.0, 0.0, 0.0, 0.0, 3), [0.2, 0.3, 0.5], [2.0]),
        lambda: closed_form_table(_CHAIN3, [0.2, 0.3, 0.5], np.array([0.0, 2.0])),
        lambda: montecarlo.OccupancyEstimate(np.array([[1.0, 0.0, 0.0]]), 1),
        lambda: montecarlo.AbsorptionSample([2.0], 5),
    ],
    ids=["closed-form-transform", "closed-form-rotation", "float-array", "occupancy", "absorption"],
)
def test_counts_are_integers_not_whole_floats(call):
    # as closed_form(preset, 2.0) and propagate(init, params, 2.0) refuse the count
    with pytest.raises(ParameterError, match="must hold integers"):
        call()


def _walks(n_quanta, n_walks):
    preset = make_preset(SchemeId.I_B, {"r": 0.166}, pb=(0.5, 0.5))
    return montecarlo.SimConfig.from_preset(preset, n_quanta=n_quanta, n_walks=n_walks)


_BYTES = "an array of shape {} needs {} bytes, past the budget of {}"
_DRAWS = "a sweep of {} draws is too large to run, past the budget of 68719476736"


# every size is beyond numpy's index range: an array past the byte budget, or a sweep
# whose plan is past the draw budget, so each call is refused before it allocates
@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: propagate(Distribution.from_process_probs([0.2, 0.3, 0.5]), _CHAIN3, 2**60),
         MemoryError, _BYTES.format((2**60 + 1, 4), (2**60 + 1) * 32, 2**32)),
        (lambda: schemes.closed_form_trajectory(
            make_preset(SchemeId.III_A, {"p": 0.5}, pb=(0.5, 0.5)), 10**20
        ), MemoryError, _BYTES.format((10**20 + 1,), (10**20 + 1) * 8, 2**32)),
        (lambda: montecarlo.simulate(_walks(3, 10**20)), ParameterError,
         _DRAWS.format(4 * 10**20)),
        (lambda: montecarlo.simulate(_walks(10**20, 1)), ParameterError,
         _DRAWS.format(10**20 + 1)),
        (lambda: montecarlo.absorption_times(_walks(3, 10**20)), ParameterError,
         _DRAWS.format(4 * 10**20)),
        (lambda: make_preset(SchemeId.IV, m=10**20), MemoryError,
         _BYTES.format((10**20,), 8 * 10**20, 2**32)),
    ],
    ids=["propagate", "closed-form", "simulate-walks", "simulate-quanta", "absorb-walks",
         "iv-ring"],
)
def test_counts_numpy_cannot_index_raise_memory_error(call, error, message):
    tracemalloc.start()
    try:
        with pytest.raises(error) as refused:
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == message
    assert peak < 2**20


# (call, the shape of the largest array it makes through model._alloc); every one
# holds 8-byte entries
_ALLOC_SITES = [
    (lambda: propagate(Distribution.from_process_probs([0.2, 0.3, 0.5]), _CHAIN3, 10), (11, 4)),
    (lambda: closed_form_table(_CHAIN3, [0.2, 0.3, 0.5], np.arange(11)), (11, 4)),
    # its count vector, (11,), comes first and is admitted
    (lambda: schemes.closed_form_trajectory(
        make_preset(SchemeId.III_A, {"p": 0.5}, pb=(0.5, 0.5)), 10
    ), (11, 3)),
    (lambda: make_preset(SchemeId.IV, m=7), (7,)),
    # counts (10, 4) beside first_hit (10,); then first_hit (100,) beside counts (4, 4)
    (lambda: montecarlo.simulate(montecarlo.SimConfig(
        _CHAIN3, Distribution([0.2, 0.3, 0.5, 0.0]), 9, 10)), (10, 4)),
    (lambda: montecarlo.simulate(montecarlo.SimConfig(
        _CHAIN3, Distribution([0.2, 0.3, 0.5, 0.0]), 3, 100)), (100,)),
    # the histogram (21,) beside the sweep's first_hit (3,)
    (lambda: execute(RunSpec("absorb", scheme="I_B", free={"r": 0.5}, pb=(0.5, 0.5),
                             quanta=20, walks=3, seed=0)), (21,)),
]


@pytest.mark.parametrize(
    "call, shape",
    _ALLOC_SITES,
    ids=["propagate", "closed-form-table", "closed-form-trajectory", "iv-ring",
         "simulate-counts", "simulate-first-hit", "absorb-histogram"],
)
def test_byte_budget_admits_exactly_the_array(monkeypatch, call, shape):
    nbytes = 8 * math.prod(shape)
    monkeypatch.setattr(model, "_BYTE_BUDGET", nbytes)
    call()
    monkeypatch.setattr(model, "_BYTE_BUDGET", nbytes - 1)
    with pytest.raises(MemoryError) as refused:
        call()
    assert str(refused.value) == _BYTES.format(shape, nbytes, nbytes - 1)


# ---------------------------------------------------------------------------
# chain-wide properties


@settings(max_examples=80, deadline=None)
@given(case=chain_case())
def test_rows_are_stochastic(case):
    params, _ = case
    sums = _dense(build_matrix(params)).sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) <= ATOL


@settings(max_examples=50, deadline=None)
@given(case=chain_case(), n=st.integers(0, 200))
def test_mass_conserved_and_deadlock_monotone(case, n):
    params, pb = case
    traj = propagate(Distribution.from_process_probs(pb), build_matrix(params), n)
    table = traj.to_array()
    assert np.max(np.abs(table.sum(axis=1) - 1.0)) <= ATOL
    dead = table[:, -1]
    if dead.size > 1:
        assert np.min(np.diff(dead)) >= -ATOL

    # same check on raw products, without any construction-time cleanup
    vec, mat = np.append(pb, 0.0), _dense(params)
    for _ in range(min(n, 50)):
        vec = vec @ mat
        assert abs(vec.sum() - 1.0) <= ATOL


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 10), probs=move_probs())
def test_uniform_is_fixed_point_without_deadlock(m, probs):
    p, s, q, _ = probs
    total = p + s + q
    params = SchemeParams(p / total, s / total, q / total, 0.0, m)
    uniform = Distribution(np.append(np.full(m, 1.0 / m), 0.0))
    out = propagate(uniform, build_matrix(params), 1)[1]
    assert np.max(np.abs(out.probs - uniform.probs)) <= ATOL
    # process block is doubly stochastic when r == 0
    block = _dense(build_matrix(params))[:m, :m]
    assert np.max(np.abs(block.sum(axis=0) - 1.0)) <= ATOL


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 8), stay=st.floats(0.0, 1.0), n=st.integers(0, 120))
def test_survival_is_geometric_without_movement(m, stay, n):
    params = SchemeParams(0.0, stay, 0.0, 1.0 - stay, m)
    pb = np.full(m, 1.0 / m)
    traj = propagate(Distribution.from_process_probs(pb), build_matrix(params), n)
    remaining = float(traj[n].processes.sum())
    assert abs(remaining - params.s ** n) <= ATOL


# ---------------------------------------------------------------------------
# package surface


def test_package_exports_are_the_module_lists():
    modules = (model, schemes, montecarlo, analysis)
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))  # no module shadows another's name
    for module in modules:
        for name in module.__all__:
            assert getattr(schedchain, name) is getattr(module, name)
    assert sorted(schedchain.__all__) == sorted(["__version__", *names])


def test_package_loads_only_the_module_read_first():
    # a fresh interpreter, so no earlier import has bound the submodules
    code = (
        "import sys, schedchain\n"
        "assert schedchain.montecarlo is sys.modules['schedchain.montecarlo']\n"
        "print('schedchain.analysis' in sys.modules)\n"
    )
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (child.returncode, child.stdout) == (0, "False\n"), child.stderr


def test_from_package_import_cli_loads_only_the_engines_cli_imports():
    # ``from schedchain import cli`` asks the package for the name before it
    # imports the submodule, so the package must not search the engines for it
    code = (
        "import sys\n"
        "from schedchain import cli\n"
        "assert cli is sys.modules['schedchain.cli']\n"
        "loaded = {m for m in sys.modules if m.startswith('schedchain.')}\n"
        "print(sorted(loaded - {cli.__name__}))\n"
    )
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    expected = "['schedchain.model', 'schedchain.schemes']\n"
    assert (child.returncode, child.stdout) == (0, expected), child.stderr


def test_package_resolves_a_module_not_yet_bound(monkeypatch):
    # importing a submodule binds it on the package; unbound, the package's
    # __getattr__ resolves it, as in a fresh interpreter
    monkeypatch.delattr(schedchain, "montecarlo")
    assert schedchain.montecarlo is montecarlo


def test_package_dir_lists_dunders_modules_and_exports():
    dunders = {name for name in vars(schedchain) if name.startswith("__")}
    listed = dir(schedchain)
    assert listed == sorted(dunders.union(schedchain._MODULES, schedchain.__all__))
    for name in listed:
        getattr(schedchain, name)  # every listed name resolves
