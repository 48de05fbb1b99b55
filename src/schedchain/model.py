"""Core chain model: a ring of process slots plus one absorbing deadlock state.

The scheduler occupies one of ``m`` process slots ``P1..Pm`` or the deadlock
state ``D``.  At the end of every quantum it advances to the next slot with
probability ``p``, stays put with ``s``, retreats to the previous slot with
``q``, or falls into ``D`` with ``r``.  Slot indices wrap in both directions
(the slot after ``Pm`` is ``P1``), and ``D`` is absorbing: a deadlocked
scheduler never returns to the ring.

All state vectors and matrices order the states ``P1..Pm`` followed by ``D``;
a trajectory is one array with a row per quantum.  One quantum is a stencil on
the ring, so exact propagation never forms the dense ``(m + 1)²`` matrix:
:class:`TransitionMatrix` holds the move probabilities, and :func:`propagate`
advances blocks of quanta with precomputed short kernels (the matrix-powers
kernel of Demmel, Hoemmen, Mohiyuddin and Yelick, "Avoiding communication in
sparse matrix computations", IPDPS 2008).  Every type in this module
is validated once, at construction, and immutable after it, so it is safe to
share across threads; the operations are pure functions.
"""

from __future__ import annotations

import math
import numbers
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


def _is_real(value) -> bool:
    """True for a real number that is not a bool (``True`` is no probability)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_int(value, name: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")
    return value


def _renormalize(arr: np.ndarray, sums, worst, top) -> bool:
    """Divide in place by its sum each row off 1 by more than ATOL or holding an entry above 1.

    ``arr`` is a vector or a table of non-negative rows, ``worst`` the largest
    ``|sums - 1|`` and ``top`` the largest sum; no entry exceeds its row sum, so
    entries are only searched when ``top`` is above 1.  Reductions are ufunc
    calls: on short rows the ndarray method wrappers cost more than the work.
    Returns whether any row was divided.
    """
    if worst > ATOL or (top > 1.0 and np.maximum.reduce(arr, axis=None) > 1.0):
        fix = (abs(sums - 1.0) > ATOL) | (np.maximum.reduce(arr, axis=-1) > 1.0)
        arr /= np.where(fix, sums, 1.0)[..., None]
        return True
    return False


def _stochastic(values, what: str, ndim: int, copy: bool = True) -> np.ndarray:
    """Validate a probability vector (``ndim=1``) or a table of rows (``ndim=2``).

    Entries must be finite and non-negative, every row must sum to 1 within
    DRIFT_TOL (smaller drift is renormalized away) and hold at least three
    entries (two process slots plus D).  Returns a new float array, or with
    ``copy=False`` renormalizes and returns ``values``, a float array, itself.
    """
    arr = np.array(values, dtype=float, copy=copy)
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
    slots = arr.shape[-1] - 1
    if slots < 2:
        plural = "" if slots == 1 else "s"
        raise DimensionError(
            f"need two process slots plus deadlock, got {max(slots, 0)} process slot{plural}"
        )
    top = sums if ndim == 1 else np.maximum.reduce(sums, initial=0.0)
    _renormalize(arr, sums, worst, top)
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
        given = {"p": self.p, "s": self.s, "q": self.q, "r": self.r}
        for name, value in given.items():
            if not _is_real(value):
                raise ParameterError(f"{name} must be a real number, got {value!r}")
        probs = _stochastic(list(given.values()), "move probabilities (p, s, q, r)", 1)
        for name, value in zip(given, probs):
            object.__setattr__(self, name, float(value))


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability mass over ``P1..Pm`` and ``D``; its holder knows the quantum."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = _stochastic(self.probs, "state probabilities", 1)
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @classmethod
    def _of_row(cls, row: np.ndarray) -> "Distribution":
        """Wrap a read-only row that has already passed ``_stochastic``."""
        dist = object.__new__(cls)
        dist.__dict__["probs"] = row
        return dist

    @classmethod
    def from_process_probs(cls, pb) -> "Distribution":
        """Distribution with the given mass on the process slots and none on D."""
        pb = np.asarray(pb, dtype=float)
        if pb.ndim != 1:
            raise DimensionError("pb must be one-dimensional")
        return cls(np.append(pb, 0.0))

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
    """The one-quantum ring operator of a chain, held as its move probabilities.

    One quantum maps the slot mass ``x`` to ``s·x + p·roll(x, 1) + q·roll(x, -1)``
    and adds ``r·sum(x)`` to ``D``; :func:`propagate` applies that stencil
    directly.  ``entries`` is the dense row-stochastic ``(m + 1) x (m + 1)``
    matrix, rows and columns ordered ``P1..Pm, D``: a read-only array built
    anew on each access, for inspection only.
    """

    params: SchemeParams

    def __post_init__(self) -> None:
        if not isinstance(self.params, SchemeParams):
            raise TypeError(f"TransitionMatrix takes SchemeParams, got {type(self.params).__name__}")

    @property
    def m(self) -> int:
        return self.params.m

    @property
    def entries(self) -> np.ndarray:
        """Dense matrix: each slot row holds ``p`` on its successor, ``s`` on itself,
        ``q`` on its predecessor and ``r`` on D; the D row is absorbing.

        With ``m == 2`` the successor and predecessor coincide, so their masses
        accumulate on the single neighbour.
        """
        params, m = self.params, self.params.m
        t = np.zeros((m + 1, m + 1))
        slots = np.arange(m)
        t[slots, (slots + 1) % m] += params.p
        t[slots, slots] += params.s
        t[slots, (slots - 1) % m] += params.q
        t[:m, m] = params.r
        t[m, m] = 1.0
        t.flags.writeable = False
        return t


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Distributions for quanta ``0..N`` as one read-only ``(N + 1) x (m + 1)`` array.

    Row ``n`` is quantum ``n``, and the deadlock mass never decreases (D is
    absorbing).  ``traj[n]``, which iteration also calls, wraps row ``n``, a
    read-only view of ``rows``, in a :class:`Distribution` without checking it.
    """

    rows: np.ndarray

    def __post_init__(self) -> None:
        self._seal(_stochastic(self.rows, "trajectory rows", 2))

    @classmethod
    def _adopt(cls, table: np.ndarray) -> "Trajectory":
        """Validate a float table the caller hands over, in place rather than as a copy."""
        traj = object.__new__(cls)
        traj._seal(_stochastic(table, "trajectory rows", 2, copy=False))
        return traj

    def _seal(self, table: np.ndarray) -> None:
        if table.shape[0] == 0:
            raise ParameterError("trajectory must contain at least the initial distribution")
        if float(np.diff(table[:, -1]).min(initial=0.0)) < -ATOL:
            raise ParameterError("deadlock mass must be non-decreasing along a trajectory")
        table.flags.writeable = False
        object.__setattr__(self, "rows", table)

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __getitem__(self, quantum: int) -> Distribution:
        return Distribution._of_row(self.rows[quantum])

    @property
    def m(self) -> int:
        return self.rows.shape[1] - 1

    def to_array(self) -> np.ndarray:
        """The read-only ``(N + 1) x (m + 1)`` table itself."""
        return self.rows

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
    """The one-quantum ring operator for the given move probabilities.

    Nothing of size ``(m + 1)²`` is allocated unless ``entries`` is read.
    """
    return TransitionMatrix(params)


#: Cells of kernels plus windows one propagation block may span.  A block's
#: product costs ``m·width`` per row against ``3m`` for a single stencil step,
#: so wide rings step fewer quanta per block, down to one.
_BLOCK_BUDGET = 2**16


def _block_quanta(n: int, m: int) -> int:
    """Quanta per block: about ``sqrt(n)``, so building the kernels (one stencil
    step per quantum of a block) costs about as much as stepping the blocks."""
    b = max(math.isqrt(n), 1)
    while b > 1 and (b + m) * min(2 * b + 1, m) > _BLOCK_BUDGET:
        b //= 2
    return b


def _kernels(params: SchemeParams, b: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Slot kernels of ``1..b`` quanta on ``width`` offsets, and their deadlock taps.

    A unit mass is stepped ``b`` times with the ring stencil
    ``s·x + p·roll(x, 1) + q·roll(x, -1)`` on a ring of ``width`` offsets: with
    ``width = 2b + 1`` no mass wraps within ``b`` quanta, with ``width = m`` the
    taps fold onto the ring.  Row ``k`` is the slot mass ``k + 1`` quanta after
    a unit mass at offset 0, column ``i`` holding offset ``b - i`` mod ``width``
    (the order of :func:`propagate`'s windows), and ``dead[k]`` is the mass those
    quanta sent to D, ``r`` times the slot mass before each step.  Every block
    reuses the kernels, so their rounding would add up block after block; they
    are stepped in extended precision (``np.longdouble``, where the platform has
    it) and rounded once.
    """
    p, s, q, r = params.p, params.s, params.q, params.r
    # columns 0 and width + 1 mirror the ring's ends, so roll(x, ±1) is a shifted
    # slice; with width = 2b + 1 they stay 0 until the last step
    ring = np.zeros((b + 1, width + 2), dtype=np.longdouble)
    ring[0, 1 + b % width] = 1.0
    taps = np.lib.stride_tricks.sliding_window_view(ring, 3, axis=1)
    # advancing moves mass from column i + 1 to column i, retreating from i - 1
    stencil = np.array([q, s, p], dtype=np.longdouble)
    for k in range(b):
        x = ring[k]
        x[0], x[-1] = x[-2], x[1]
        np.matmul(taps[k], stencil, out=ring[k + 1, 1:-1])
    dead = r * np.cumsum(np.add.reduce(ring[:-1, 1:-1], axis=1))
    return ring[1:, 1:-1].astype(float), dead.astype(float)


def propagate(init: Distribution, matrix: TransitionMatrix, n: int) -> Trajectory:
    """Propagate ``init`` for ``n`` quanta, returning all ``n + 1`` distributions.

    Row ``k`` lies ``k`` quanta after ``init``, which may be any distribution:
    ``propagate(traj[k], matrix, n - k)`` continues ``traj`` from its row ``k``.
    The chain advances ``b`` quanta per block: about ``sqrt(n)``, fewer on
    wide rings.  The ``1..b``-quantum kernels are built once per call by
    stepping a unit mass with the ring stencil, and their taps fold mod ``m``
    onto ``width = min(2b + 1, m)`` offsets.  A block's slot rows are then one
    product of the kernels with the circular windows of the block's start row,
    and its D column is the start's D plus each kernel's deadlock tap times the
    start's slot mass.  Cost is O(N·m·width) plus the table; no ``(m + 1)²``
    array is allocated.  Every row is renormalized by the rule of
    ``_stochastic``, and each block starts from the renormalized last row of
    the one before.  Rows differ from stepping ``matrix.entries`` one quantum at
    a time only by rounding: about 5e-15 at N = 20 000 on a five-slot ring.
    """
    n = _check_int(n, "quanta", 0)
    m = matrix.m
    if init.probs.size != m + 1:
        raise DimensionError(f"distribution has {init.probs.size} states but matrix has {m + 1}")
    table = np.empty((n + 1, m + 1))
    table[0] = init.probs
    if n:
        b = _block_quanta(n, m)
        width = min(2 * b + 1, m)
        kernels, dead = _kernels(matrix.params, b, width)
        # windows[i, j] = extended[i + j] = x[(j + i - b) mod m], offset b - i behind
        # slot j: a strided view, never copied
        gather = (np.arange(m + width - 1) - b) % m
        extended = np.empty(m + width - 1)
        windows = np.lib.stride_tricks.sliding_window_view(extended, m)
        # a block's D column is its start's D plus each kernel's deadlock tap times
        # the start's slot mass
        deadlock, slots = table[0, m], np.add.reduce(table[0, :m])
        for k in range(0, n, b):
            rows = table[k + 1 : k + 1 + b]
            c = rows.shape[0]
            np.take(table[k], gather, out=extended)
            np.matmul(kernels[:c], windows, out=rows[:, :m])
            rows[:, m] = dead[:c] * slots + deadlock
            last = rows[-1]
            deadlock, slots = last[m], np.add.reduce(last[:m])
            total = slots + deadlock
            if _renormalize(last, total, abs(total - 1.0), total):
                deadlock, slots = last[m], slots / total
    return Trajectory._adopt(table)
