"""Core chain model: a ring of process slots plus one absorbing deadlock state.

The scheduler occupies one of ``m`` process slots ``P1..Pm`` or the deadlock
state ``D``.  At the end of every quantum it advances to the next slot with
probability ``p``, stays put with ``s``, retreats to the previous slot with
``q``, or falls into ``D`` with ``r``.  Slot indices wrap in both directions
(the slot after ``Pm`` is ``P1``), and ``D`` is absorbing: a deadlocked
scheduler never returns to the ring.

All state vectors and matrices order the states ``P1..Pm`` followed by ``D``;
a trajectory is one array with a row per quantum.  Every type in this module
is validated once, at construction, and immutable after it, so it is safe to
share across threads; the operations are pure functions.
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


def _renormalize(arr: np.ndarray, sums, worst, top) -> np.ndarray:
    """Divide in place by its sum each row off 1 by more than ATOL or holding an entry above 1.

    ``arr`` is a vector or a table of non-negative rows, ``worst`` the largest
    ``|sums - 1|`` and ``top`` the largest sum; no entry exceeds its row sum, so
    entries are only searched when ``top`` is above 1.  Reductions are ufunc
    calls: on short rows the ndarray method wrappers cost more than the work.
    """
    if worst > ATOL or (top > 1.0 and np.maximum.reduce(arr, axis=None) > 1.0):
        fix = (abs(sums - 1.0) > ATOL) | (np.maximum.reduce(arr, axis=-1) > 1.0)
        arr /= np.where(fix, sums, 1.0)[..., None]
    return arr


def _stochastic(values, what: str, ndim: int) -> np.ndarray:
    """Validate a probability vector (``ndim=1``) or a table of rows (``ndim=2``).

    Entries must be finite and non-negative, every row must sum to 1 within
    DRIFT_TOL (smaller drift is renormalized away) and hold at least three
    entries (two process slots plus D).  Returns a new float array.
    """
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim:
        raise DimensionError(f"{what} must be {('one', 'two')[ndim - 1]}-dimensional")
    if np.minimum.reduce(arr, axis=None, initial=0.0) < 0.0:
        raise ParameterError(f"{what} must be non-negative")
    sums = np.add.reduce(arr, axis=-1)
    drift = abs(sums - 1.0)
    worst = drift if ndim == 1 else np.maximum.reduce(drift, initial=0.0)
    if not worst <= DRIFT_TOL:  # also when a NaN or infinite entry spoils a row sum
        problem = "be finite" if not np.isfinite(worst) else f"sum to 1, got {sums}"
        raise ParameterError(f"{what} must {problem}")
    if arr.shape[-1] < 3:
        raise DimensionError(f"need two process slots plus deadlock, got {arr.shape[-1]} states")
    top = sums if ndim == 1 else np.maximum.reduce(sums, initial=0.0)
    return _renormalize(arr, sums, worst, top)


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
        probs = _stochastic([self.p, self.s, self.q, self.r], "move probabilities (p, s, q, r)", 1)
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
        arr = _stochastic(self.probs, "state probabilities", 1)
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)
        object.__setattr__(self, "quantum", _check_int(self.quantum, "quantum", 0))

    @classmethod
    def _of_row(cls, row: np.ndarray, quantum: int) -> "Distribution":
        """Wrap a read-only row that has already passed ``_stochastic``."""
        dist = object.__new__(cls)
        dist.__dict__.update(probs=row, quantum=quantum)
        return dist

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
        t = _stochastic(self.entries, "transition matrix rows", 2)
        if t.shape[0] != t.shape[1]:
            raise DimensionError(f"transition matrix must be square, got shape {t.shape}")
        if abs(t[-1, -1] - 1.0) > ATOL or float(t[-1, :-1].max()) > ATOL:
            raise ParameterError("deadlock row must be absorbing (unit mass on D)")
        t.flags.writeable = False
        object.__setattr__(self, "entries", t)

    @property
    def m(self) -> int:
        return self.entries.shape[0] - 1


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Distributions for quanta ``0..N`` as one read-only ``(N + 1) x (m + 1)`` array.

    Row ``n`` is quantum ``n``, and the deadlock mass never decreases (D is
    absorbing).  ``traj[n]`` and iteration wrap each row, a read-only view of
    ``rows``, in a :class:`Distribution` without checking it again.
    """

    rows: np.ndarray

    def __post_init__(self) -> None:
        table = _stochastic(self.rows, "trajectory rows", 2)
        if table.shape[0] == 0:
            raise ParameterError("trajectory must contain at least the initial distribution")
        if float(np.diff(table[:, -1]).min(initial=0.0)) < -ATOL:
            raise ParameterError("deadlock mass must be non-decreasing along a trajectory")
        table.flags.writeable = False
        object.__setattr__(self, "rows", table)

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __iter__(self):
        return map(Distribution._of_row, self.rows, range(len(self)))

    def __getitem__(self, quantum: int) -> Distribution:
        return Distribution._of_row(self.rows[quantum], quantum % len(self))

    @property
    def m(self) -> int:
        return self.rows.shape[1] - 1

    def to_array(self) -> np.ndarray:
        """The read-only ``(N + 1) x (m + 1)`` table itself."""
        return self.rows

    def deadlock_mass(self) -> np.ndarray:
        return self.rows[:, -1].copy()

    def survival(self) -> np.ndarray:
        """Probability of still running (not deadlocked) at each quantum.

        The slot columns are summed rather than D subtracted from 1, so small
        survival keeps its relative accuracy after D rounds to 1.  The sum is
        divided by the row total, which is 1 up to rounding, so survival is
        exactly 1 while D is 0.
        """
        slots = np.add.reduce(self.rows[:, :-1], axis=1)
        return slots / (slots + self.rows[:, -1])


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


def propagate(init: Distribution, matrix: TransitionMatrix, n: int) -> Trajectory:
    """Propagate ``init`` for ``n`` quanta, returning all ``n + 1`` distributions.

    Each new row is renormalized by the rule of ``_stochastic`` before the next step uses it.
    """
    n = _check_int(n, "quantum count", 0)
    if init.quantum != 0:
        raise ParameterError(f"propagation starts at quantum 0, got {init.quantum}")
    if init.probs.size != matrix.entries.shape[0]:
        raise DimensionError(
            f"distribution has {init.probs.size} states but matrix has "
            f"{matrix.entries.shape[0]}"
        )
    table = np.empty((n + 1, init.probs.size))
    table[0] = init.probs
    for k in range(n):
        row = table[k] @ matrix.entries
        total = np.add.reduce(row)
        table[k + 1] = _renormalize(row, total, abs(total - 1.0), total)
    return Trajectory(table)
