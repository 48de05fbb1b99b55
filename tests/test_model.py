"""Tests for the core chain types and the exact propagation engine."""

import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import schedchain
from schedchain import analysis, model, montecarlo, schemes
from schedchain import (
    ATOL,
    DimensionError,
    Distribution,
    ParameterError,
    SchemeParams,
    Trajectory,
    TransitionMatrix,
    build_matrix,
    closed_form_table,
    jain_fairness,
    metrics,
    propagate,
    state_labels,
)

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
# parameters and state labels


def test_state_labels():
    assert state_labels(3) == ["P1", "P2", "P3", "D"]
    with pytest.raises(ParameterError):
        state_labels(1)


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


def test_build_matrix_pure_cycle():
    mat = build_matrix(SchemeParams(1.0, 0.0, 0.0, 0.0, 3))
    expected = np.array(
        [
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 1],
        ],
        dtype=float,
    )
    assert np.array_equal(mat.entries, expected)


def test_build_matrix_identity_on_processes():
    mat = build_matrix(SchemeParams(0.0, 1.0, 0.0, 0.0, 5))
    assert np.array_equal(mat.entries, np.eye(6))


def test_build_matrix_advance_or_deadlock():
    mat = build_matrix(SchemeParams(0.834, 0.0, 0.0, 0.166, 5))
    for i in range(5):
        row = np.zeros(6)
        row[(i + 1) % 5] = 0.834
        row[5] = 0.166
        assert np.array_equal(mat.entries[i], row)
    assert np.array_equal(mat.entries[5], [0, 0, 0, 0, 0, 1])


def test_build_matrix_two_slots_merges_neighbours():
    mat = build_matrix(SchemeParams(0.3, 0.2, 0.4, 0.1, 2))
    # successor and predecessor of each slot coincide when m == 2
    assert mat.entries[0, 1] == pytest.approx(0.7, abs=1e-15)
    assert mat.entries[0, 0] == pytest.approx(0.2, abs=1e-15)
    assert mat.entries[0, 2] == pytest.approx(0.1, abs=1e-15)


def test_transition_matrix_is_the_ring_operator():
    params = SchemeParams(0.3, 0.2, 0.4, 0.1, 4)
    mat = build_matrix(params)
    assert mat.params is params and mat.m == 4
    assert not mat.entries.flags.writeable
    with pytest.raises(TypeError):
        TransitionMatrix(np.eye(5))  # a hand-built matrix is not a chain


# ---------------------------------------------------------------------------
# one quantum


def _one_step(dist, mat):
    return propagate(dist, mat, 1)[1]


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
    # read D = 1 + 1 ulp on 137 rows.  propagate renormalises every row and
    # starts each block of quanta from a renormalised row, so no overshoot is
    # ever fed forward.
    params = SchemeParams(0.1, 0.4, 0.07, 0.43, 2)
    mat = build_matrix(params)
    traj = propagate(Distribution.from_process_probs((0.8, 0.2)), mat, 200)
    table = traj.to_array()

    raw = table[0]
    overshoots = 0
    for _ in range(200):
        raw = raw @ mat.entries
        overshoots += raw[-1] > 1.0
    assert overshoots > 100

    _assert_matches_stepping(table, _stepped(table[0], mat.entries, 200))

    # D reads 1.0 from quantum 63 on, but the slots still hold mass, so
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
        mat = build_matrix(SchemeParams(p, s, q, r, m))
        init = Distribution.from_process_probs(rng.dirichlet(np.ones(m)))
        table = propagate(init, mat, 400).to_array()
        _assert_matches_stepping(table, _stepped(init.probs, mat.entries, 400))


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
        p, s, q, r = (np.longdouble(v) for v in (params.p, params.s, params.q, params.r))
        slots, dead = np.array(PB5, dtype=np.longdouble), np.longdouble(0.0)
        exact = np.empty((n + 1, 6), dtype=np.longdouble)
        for k in range(n + 1):
            exact[k, :-1], exact[k, -1] = slots, dead
            slots = s * slots + p * np.roll(slots, 1) + q * np.roll(slots, -1)
            dead += r * exact[k, :-1].sum()
        table = propagate(Distribution.from_process_probs(PB5), build_matrix(params), n)
        error = float(np.max(np.abs(table.to_array() - exact)))
        assert error <= (3e-15 if extended else 3e-14), (params, n)


def test_blocks_start_from_renormalized_rows():
    # p + s + q + r = 1 + 9e-13 passes as is, so every quantum adds 9e-13 of
    # mass.  Fed forward unchecked over 20 000 quanta that drift would pass
    # DRIFT_TOL; renormalised at each block start it stays near ATOL.
    params = SchemeParams(0.4, 0.3, 0.2999, 1e-4 + 9e-13, 5)
    mat = build_matrix(params)
    init = Distribution.from_process_probs(PB5)
    table = propagate(init, mat, 20_000).to_array()
    assert np.max(np.abs(table.sum(axis=1) - 1.0)) <= ATOL
    # stepping renormalises whenever a row drifts past ATOL, so its rows are
    # scaled by up to 1 + ATOL against these
    assert np.max(np.abs(table - _stepped(init.probs, mat.entries, 20_000))) <= 2 * ATOL


@settings(max_examples=60, deadline=None)
@given(m=st.sampled_from([2, 3, 5, 40]), probs=move_probs(), n=st.integers(0, 400), data=st.data())
def test_blocked_rows_match_dense_stepping(m, probs, n, data):
    # q > 0 throughout; at m = 2 the successor and predecessor coincide, and at
    # m = 40 blocks of up to 20 quanta fold their taps onto the ring or not
    raw_pb = data.draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m).filter(any))
    mat = build_matrix(SchemeParams(*probs, m))
    init = Distribution.from_process_probs(np.array(raw_pb) / sum(raw_pb))
    table = propagate(init, mat, n).to_array()
    assert np.max(np.abs(table - _stepped(init.probs, mat.entries, n))) <= 1e-14


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


# ---------------------------------------------------------------------------
# chain-wide properties


@settings(max_examples=80, deadline=None)
@given(case=chain_case())
def test_rows_are_stochastic(case):
    params, _ = case
    mat = build_matrix(params)
    sums = mat.entries.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) <= ATOL


@settings(max_examples=50, deadline=None)
@given(case=chain_case(), n=st.integers(0, 200))
def test_mass_conserved_and_deadlock_monotone(case, n):
    params, pb = case
    mat = build_matrix(params)
    traj = propagate(Distribution.from_process_probs(pb), mat, n)
    table = traj.to_array()
    assert np.max(np.abs(table.sum(axis=1) - 1.0)) <= ATOL
    dead = table[:, -1]
    if dead.size > 1:
        assert np.min(np.diff(dead)) >= -ATOL

    # same check on raw products, without any construction-time cleanup
    vec = np.append(pb, 0.0)
    for _ in range(min(n, 50)):
        vec = vec @ mat.entries
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
    block = build_matrix(params).entries[:m, :m]
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


def test_package_dir_lists_dunders_modules_and_exports():
    dunders = {name for name in vars(schedchain) if name.startswith("__")}
    listed = dir(schedchain)
    assert listed == sorted(dunders.union(schedchain._MODULES, schedchain.__all__))
    for name in listed:
        getattr(schedchain, name)  # every listed name resolves
