"""Core chain model: a ring of process slots plus one absorbing deadlock state.

The scheduler occupies one of ``m`` process slots ``P1..Pm`` or the deadlock
state ``D``.  At the end of every quantum it advances to the next slot with
probability ``p``, stays put with ``s``, retreats to the previous slot with
``q``, or falls into ``D`` with ``r``.  Slot indices wrap in both directions
(the slot after ``Pm`` is ``P1``), and ``D`` is absorbing: a deadlocked
scheduler never returns to the ring.

All state vectors and matrices order the states ``P1..Pm`` followed by ``D``.
Every type in this module is immutable after construction and safe to share
across threads; the operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ATOL",
    "DRIFT_TOL",
    "ModelError",
    "ParameterError",
    "DimensionError",
    "SchemeParams",
    "Distribution",
    "TransitionMatrix",
    "Trajectory",
    "state_labels",
    "build_matrix",
    "step",
    "propagate",
]

#: Absolute tolerance used by all stochasticity and conservation invariants.
ATOL = 1e-12

#: Inputs whose total mass drifts from 1 by more than this are rejected as
#: user error; smaller drift is silently renormalized away at construction.
DRIFT_TOL = 1e-9


class ModelError(ValueError):
    """Base class for invalid chain inputs."""


class ParameterError(ModelError):
    """A probability, mass total, count, or seed is out of range."""


class DimensionError(ModelError):
    """Vector/matrix sizes do not agree."""


def state_labels(m: int) -> list[str]:
    """Column labels ``P1..Pm, D`` for vectors and matrices of this chain."""
    if m < 2:
        raise ParameterError(f"ring needs at least 2 slots, got m={m}")
    return [f"P{i}" for i in range(1, m + 1)] + ["D"]


def _check_int(value, name: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")
    return value


def _prob_array(values, what: str) -> np.ndarray:
    """Validate a probability vector, renormalizing away sub-DRIFT_TOL drift."""
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise DimensionError(f"{what} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{what} must be finite")
    if arr.size and float(arr.min()) < 0.0:
        raise ParameterError(f"{what} must be non-negative")
    total = float(arr.sum())
    if abs(total - 1.0) > DRIFT_TOL:
        raise ParameterError(f"{what} must sum to 1, got {total!r}")
    if abs(total - 1.0) > ATOL or float(arr.max(initial=0.0)) > 1.0:
        arr = arr / total
    return arr


@dataclass(frozen=True)
class SchemeParams:
    """Unit-step move probabilities of the scheduler, plus the ring size.

    ``p`` advances to the next slot, ``s`` stays, ``q`` retreats, ``r`` falls
    into deadlock; together they must carry total mass 1.  ``m`` is the number
    of process slots and must be at least 2.
    """

    p: float
    s: float
    q: float
    r: float
    m: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _check_int(self.m, "m", 2))
        probs = _prob_array([self.p, self.s, self.q, self.r], "move probabilities (p, s, q, r)")
        for name, value in zip(("p", "s", "q", "r"), probs):
            object.__setattr__(self, name, float(value))

    @property
    def deadlock_free(self) -> bool:
        return self.r == 0.0


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability mass over ``P1..Pm`` and ``D`` at the end of one quantum."""

    probs: np.ndarray
    quantum: int = 0

    def __post_init__(self) -> None:
        arr = _prob_array(self.probs, "state probabilities")
        if arr.size < 3:
            raise DimensionError(
                f"need at least two process slots plus deadlock, got {arr.size} states"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)
        object.__setattr__(self, "quantum", _check_int(self.quantum, "quantum", 0))

    @classmethod
    def from_process_probs(cls, pb, quantum: int = 0) -> "Distribution":
        """Distribution with the given mass on the process slots and none on D."""
        pb = np.asarray(pb, dtype=float)
        if pb.ndim != 1:
            raise DimensionError("pb must be one-dimensional")
        return cls(np.append(pb, 0.0), quantum)

    @property
    def m(self) -> int:
        return self.probs.size - 1

    @property
    def processes(self) -> np.ndarray:
        """The ``P1..Pm`` block of the vector."""
        return self.probs[:-1]

    @property
    def deadlock(self) -> float:
        return float(self.probs[-1])


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-stochastic one-quantum transition matrix with an absorbing D row.

    Rows and columns are ordered ``P1..Pm, D``.  ``build_matrix`` produces the
    ring-structured instance used throughout; hand-built matrices only need to
    be row-stochastic with the deadlock row equal to the unit vector on D.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        t = np.array(self.entries, dtype=float)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise DimensionError(f"transition matrix must be square, got shape {t.shape}")
        if t.shape[0] < 3:
            raise DimensionError(
                f"need at least two process slots plus deadlock, got {t.shape[0]} states"
            )
        if not np.all(np.isfinite(t)):
            raise ParameterError("transition probabilities must be finite")
        if float(t.min()) < 0.0:
            raise ParameterError("transition probabilities must be non-negative")
        sums = t.sum(axis=1)
        if float(np.max(np.abs(sums - 1.0))) > DRIFT_TOL:
            raise ParameterError(f"every row must sum to 1, got row sums {sums!r}")
        fix = (np.abs(sums - 1.0) > ATOL) | (t.max(axis=1) > 1.0)
        if fix.any():
            t[fix] = t[fix] / sums[fix, None]
        if abs(t[-1, -1] - 1.0) > ATOL or float(t[-1, :-1].max()) > ATOL:
            raise ParameterError("deadlock row must be absorbing (unit mass on D)")
        t.flags.writeable = False
        object.__setattr__(self, "entries", t)

    @property
    def m(self) -> int:
        return self.entries.shape[0] - 1


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Distributions for quanta ``0..N`` produced by repeated stepping.

    Rows carry strictly consecutive quantum numbers starting at 0, and the
    deadlock mass never decreases (D is absorbing).
    """

    rows: tuple[Distribution, ...]

    def __post_init__(self) -> None:
        rows = tuple(self.rows)
        if not rows:
            raise ParameterError("trajectory must contain at least the initial distribution")
        if rows[0].quantum != 0:
            raise ParameterError(f"trajectories start at quantum 0, got {rows[0].quantum}")
        size = rows[0].probs.size
        for k, row in enumerate(rows):
            if row.probs.size != size:
                raise DimensionError("all trajectory rows must have the same state count")
            if row.quantum != k:
                raise ParameterError("trajectory quanta must increase by exactly 1")
        dead = np.array([row.deadlock for row in rows])
        if dead.size > 1 and float(np.diff(dead).min()) < -ATOL:
            raise ParameterError("deadlock mass must be non-decreasing along a trajectory")
        object.__setattr__(self, "rows", rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, index):
        return self.rows[index]

    @property
    def m(self) -> int:
        return self.rows[0].m

    @property
    def final(self) -> Distribution:
        return self.rows[-1]

    def to_array(self) -> np.ndarray:
        """Stack the rows into an ``(N + 1) x (m + 1)`` array."""
        return np.array([row.probs for row in self.rows])

    def deadlock_mass(self) -> np.ndarray:
        return np.array([row.deadlock for row in self.rows])

    def survival(self) -> np.ndarray:
        """Probability of still running (not deadlocked) at each quantum."""
        return 1.0 - self.deadlock_mass()


def build_matrix(params: SchemeParams) -> TransitionMatrix:
    """Build the one-quantum transition matrix for the given move probabilities.

    Each process row places ``p`` on its successor, ``s`` on itself, ``q`` on
    its predecessor and ``r`` on D; successor/predecessor wrap circularly.
    With ``m == 2`` the successor and predecessor coincide, so their masses
    accumulate on the single neighbour.
    """
    m = params.m
    t = np.zeros((m + 1, m + 1))
    for i in range(m):
        t[i, (i + 1) % m] += params.p
        t[i, i] += params.s
        t[i, (i - 1) % m] += params.q
        t[i, m] += params.r
    t[m, m] = 1.0
    return TransitionMatrix(t)


def step(dist: Distribution, matrix: TransitionMatrix) -> Distribution:
    """Advance a distribution by one quantum (row vector times matrix)."""
    if dist.probs.size != matrix.entries.shape[0]:
        raise DimensionError(
            f"distribution has {dist.probs.size} states but matrix has "
            f"{matrix.entries.shape[0]}"
        )
    return Distribution(dist.probs @ matrix.entries, dist.quantum + 1)


def propagate(init: Distribution, matrix: TransitionMatrix, n: int) -> Trajectory:
    """Propagate ``init`` for ``n`` quanta, returning all ``n + 1`` distributions."""
    n = _check_int(n, "quantum count", 0)
    if init.quantum != 0:
        raise ParameterError(f"propagation starts at quantum 0, got {init.quantum}")
    if init.probs.size != matrix.entries.shape[0]:
        raise DimensionError(
            f"distribution has {init.probs.size} states but matrix has "
            f"{matrix.entries.shape[0]}"
        )
    rows = [init]
    current = init
    for _ in range(n):
        current = step(current, matrix)
        rows.append(current)
    return Trajectory(tuple(rows))
