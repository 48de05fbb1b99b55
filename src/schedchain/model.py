"""Core chain model: a ring of process slots plus one absorbing deadlock state.

The scheduler occupies one of ``m`` process slots ``P1..Pm`` or the deadlock
state ``D``.  At the end of every quantum it advances to the next slot with
probability ``p``, stays put with ``s``, retreats to the previous slot with
``q``, or falls into ``D`` with ``r``.  Slot indices wrap in both directions
(the slot after ``Pm`` is ``P1``), and ``D`` is absorbing: a deadlocked
scheduler never returns to the ring.

All state vectors order the states ``P1..Pm`` followed by ``D``; a trajectory
is one array with a row per quantum.  The chain's transition matrix is a
stencil on the ring that :class:`SchemeParams` fixes, so exact propagation
never forms the dense ``(m + 1)²`` matrix: :func:`propagate` takes the
parameters themselves and advances blocks of quanta with precomputed short
kernels (the matrix-powers kernel of Demmel, Hoemmen, Mohiyuddin and Yelick,
"Avoiding communication in sparse matrix computations", IPDPS 2008).  Every
type in this module is validated once, at construction, and immutable after
it, so it is safe to share across threads; the operations are pure functions.

One ownership rule holds for every result object of the package: an array
of the object's dtype that nothing can write (it and every array along its
``.base`` chain are read-only) is kept as given, and anything else is replaced
by a read-only copy, so a caller's writable array is copied and stays writable.
One rule decides what an array input may hold, the rule a scalar meets: a
count array holds integers and a mass array integers or reals, so text (even
``"0.5"``), bools, complex numbers, ragged nesting and other objects raise
:class:`ParameterError` naming the input.  ``_frozen`` applies both rules.
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
    "Trajectory",
    "build_matrix",
    "propagate",
]

#: Absolute tolerance used by all stochasticity and conservation invariants.
ATOL = 1e-12

#: Inputs whose total mass drifts from 1 by more than this are rejected as
#: user error; smaller drift is silently renormalized away at construction.
DRIFT_TOL = 1e-9

#: The move probabilities' names, in the order parameters, specs and output list them.
_MOVES = ("p", "s", "q", "r")


class ModelError(ValueError):
    """Base class for invalid chain inputs."""


class ParameterError(ModelError):
    """A probability, mass total, count, or seed is out of range."""


class DimensionError(ModelError):
    """Vector/matrix sizes do not agree."""


def _is_real(value, kind=numbers.Real) -> bool:
    """True for a number of ``kind`` that is not a bool (``True`` is no probability or count)."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_int(value, name: str, minimum: int) -> int:
    if not _is_real(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")
    return value


#: Cells one engine step holds: a propagation block's kernels plus windows, a
#: Monte Carlo tile's draws, one bincount's counts.  ``montecarlo`` imports it.
_TILE_BUDGET = 1 << 16

#: Uniforms one Monte Carlo call may draw, about 7 minutes of Philox fill at
#: 6 ns a draw; ``montecarlo`` refuses a call that plans more.
_DRAW_BUDGET = 2**36

#: Bytes :func:`_alloc` lets one engine array take, far below what numpy cannot index.
_BYTE_BUDGET = 2**32


def _alloc(make, shape, *args, dtype=float) -> np.ndarray:
    """``make(shape, *args, dtype=dtype)``, unless its bytes are past :data:`_BYTE_BUDGET`."""
    dims = shape if isinstance(shape, tuple) else (shape,)
    nbytes = math.prod(dims) * np.dtype(dtype).itemsize
    if nbytes > _BYTE_BUDGET:
        raise MemoryError(
            f"an array of shape {dims} needs {nbytes} bytes, past the budget of {_BYTE_BUDGET}"
        )
    return make(shape, *args, dtype=dtype)


def _frozen(values, dtype, name: str) -> np.ndarray:
    """``values`` as a read-only array of ``dtype``: ``float``, ``np.int64``, or ``int`` for
    integers of any size within the float range, as numpy holds them, under the module's two
    array rules; a refused input raises :class:`ParameterError` naming ``name``."""
    if isinstance(values, np.ndarray) and values.dtype == dtype:
        owner = values
        while isinstance(owner, np.ndarray) and not owner.flags.writeable:
            owner = owner.base
        if owner is None:
            return values
        arr = np.array(values)
    else:
        # the dtype kinds an ndarray may have, and the kind of each entry of other input
        kinds, kind = ("iuf", numbers.Real) if dtype is float else ("iu", numbers.Integral)
        try:
            if isinstance(values, np.ndarray) and values.dtype != object:
                bad = [f"dtype {values.dtype}"] if values.dtype.kind not in kinds else []
            else:  # as objects, so ragged nesting leaves a list where a number should be
                entries = np.array(values, dtype=object).flat
                bad = [repr(v) for v in entries if not _is_real(v, kind)]
            arr = None if bad else np.array(values, dtype=None if dtype is int else dtype)
            if arr is not None and arr.dtype == object:  # integers beyond uint64, as ``int``
                arr.astype(float)  # raises OverflowError beyond the float range
            if isinstance(values, np.ndarray) and values.dtype.kind == "u" and np.any(arr < 0):
                bad = [f"{values.dtype} entries beyond {arr.dtype}"]  # numpy wraps them
        except (ValueError, OverflowError) as exc:  # nesting numpy cannot hold; too large an int
            bad = [f"{type(exc).__name__}: {exc}"]
        if bad:
            holds = "numbers" if dtype is float else "integers"
            raise ParameterError(f"{name} must hold {holds}, got {bad[0]}")
    arr.flags.writeable = False
    return arr


def _stochastic(values, what: str, ndim: int) -> np.ndarray:
    """Validate a probability vector (``ndim=1``) or a table of rows (``ndim=2``).

    Entries must be finite and non-negative, every row must sum to 1 within
    DRIFT_TOL (smaller drift is renormalized away) and hold at least three
    entries (two process slots plus D).  Returns ``_frozen(values, float, what)``, or
    a new read-only array when a row is renormalized.
    """
    arr = _frozen(values, float, what)
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
    # divide by its sum each row off 1 by more than ATOL or holding an entry above 1;
    # no entry exceeds its row sum, so entries are searched only when a sum is above
    # 1.  Reductions are ufunc calls: on short rows the ndarray method wrappers cost
    # more than the work.
    top = sums if ndim == 1 else np.maximum.reduce(sums, initial=0.0)
    if worst > ATOL or (top > 1.0 and np.maximum.reduce(arr, axis=None) > 1.0):
        fix = (drift > ATOL) | (np.maximum.reduce(arr, axis=-1) > 1.0)
        arr = arr / np.where(fix, sums, 1.0)[..., None]
        arr.flags.writeable = False
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
        given = {name: getattr(self, name) for name in _MOVES}
        for name, value in given.items():
            if not _is_real(value):
                raise ParameterError(f"{name} must be a real number, got {value!r}")
        probs = _stochastic(list(given.values()), "move probabilities (p, s, q, r)", 1)
        for name, value in zip(given, probs):
            object.__setattr__(self, name, float(value))

    def _same_ring(self, m: int, what: str) -> None:
        """The one ring-size rule: a start law or table read with this chain has its ``m``."""
        if m != self.m:
            raise DimensionError(f"{what} has m={m} but the chain has m={self.m}")


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability mass over ``P1..Pm`` and ``D``; its holder knows the quantum."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", _stochastic(self.probs, "state probabilities", 1))

    @classmethod
    def from_process_probs(cls, pb) -> "Distribution":
        """Distribution with the given mass on the process slots and none on D."""
        pb = _frozen(pb, float, "pb")
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
class Trajectory:
    """Distributions for quanta ``0..N`` as one read-only ``(N + 1) x (m + 1)`` array.

    Row ``n`` is quantum ``n``, and the deadlock mass never decreases (D is
    absorbing).  ``traj[n]``, which iteration also calls, is the checked
    :class:`Distribution` of row ``n``, a read-only view of ``rows``; a slice
    is no distribution and raises :class:`DimensionError`.
    """

    rows: np.ndarray

    def __post_init__(self) -> None:
        table = _stochastic(self.rows, "trajectory rows", 2)
        if table.shape[0] == 0:
            raise ParameterError("trajectory must contain at least the initial distribution")
        if float(np.diff(table[:, -1]).min(initial=0.0)) < -ATOL:
            raise ParameterError("deadlock mass must be non-decreasing along a trajectory")
        object.__setattr__(self, "rows", table)

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __getitem__(self, quantum: int) -> Distribution:
        return Distribution(self.rows[quantum])

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


def build_matrix(params: SchemeParams) -> SchemeParams:
    """The one-quantum ring operator for the given move probabilities: ``params`` itself.

    The parameters fix the whole transition matrix, and :func:`propagate` takes
    them as they are.
    """
    return params


def _block_quanta(n: int, m: int) -> int:
    """Quanta per block: about ``sqrt(n)``, so building the kernels (one stencil
    step per quantum of a block) costs about as much as stepping the blocks.  The
    block's kernels plus windows span at most :data:`_TILE_BUDGET` cells: its
    product costs ``m·width`` per row against ``3m`` for a single stencil step,
    so wide rings step fewer quanta per block, down to one."""
    b = max(math.isqrt(n), 1)
    while b > 1 and (b + m) * min(2 * b + 1, m) > _TILE_BUDGET:
        b //= 2
    return b


def _survival(r: float, ns) -> tuple[np.ndarray, np.ndarray]:
    """Survival ``(1 - r)^n`` and deadlock ``1 - (1 - r)^n`` after each count in ``ns``.

    The hazard is the same in every slot, so these hold for any path.  Both come
    from ``n·log1p(-r)`` (``exp``, ``-expm1``), so small deadlock masses keep their
    relative accuracy; at ``r = 1``, ``log1p(-1) = -inf`` would give nan at n = 0.
    """
    if r < 1.0:
        log_alive = ns * math.log1p(-r)
        return np.exp(log_alive), -np.expm1(log_alive)
    dead = (ns > 0).astype(float)
    return 1.0 - dead, dead


def _kernels(params: SchemeParams, b: int, width: int) -> np.ndarray:
    """Ring-law kernels of ``1..b`` quanta on ``width`` offsets.

    A unit mass is stepped ``b`` times with the normalised stencil
    ``(s·x + p·roll(x, 1) + q·roll(x, -1)) / (p + s + q)``, the identity when
    ``p + s + q = 0``, on a ring of ``width`` offsets: with ``width = 2b + 1``
    no mass wraps within ``b`` quanta, with ``width = m`` the taps fold onto
    the ring.  Row ``k`` is the law ``k + 1`` quanta on, column ``i`` holding
    offset ``b - i`` mod ``width`` (the order of :func:`propagate`'s windows).
    Every block reuses the kernels, so their rounding would add up block after
    block; they are stepped in extended precision (``np.longdouble``, where
    the platform has it) and rounded once.
    """
    # advancing moves mass from column i + 1 to column i, retreating from i - 1
    stencil = np.array([params.q, params.s, params.p], dtype=np.longdouble)
    total = np.add.reduce(stencil)
    stencil = stencil / total if total > 0.0 else np.array([0, 1, 0], np.longdouble)
    # columns 0 and width + 1 mirror the ring's ends, so roll(x, ±1) is a shifted
    # slice; with width = 2b + 1 they stay 0 until the last step
    ring = np.zeros((b + 1, width + 2), dtype=np.longdouble)
    ring[0, 1 + b % width] = 1.0
    taps = np.lib.stride_tricks.sliding_window_view(ring, 3, axis=1)
    for k in range(b):
        x = ring[k]
        x[0], x[-1] = x[-2], x[1]
        np.matmul(taps[k], stencil, out=ring[k + 1, 1:-1])
    return ring[1:, 1:-1].astype(float)


def propagate(init: Distribution, params: SchemeParams, n: int) -> Trajectory:
    """Propagate ``init`` for ``n`` quanta of ``params``, returning all ``n + 1`` distributions.

    Row ``k`` lies ``k`` quanta after ``init``, which may be any distribution:
    ``propagate(traj[k], params, n - k)`` continues ``traj`` from its row ``k``.
    The hazard is the same in every slot, so row ``k`` is the ring law ``ℓ(k)``
    of a walk that has not deadlocked times ``a·S(k)``, where ``a`` is the ring
    mass of ``init`` and ``S(k) = (1 - r)^k`` the survival factor that
    :func:`schedchain.schemes.closed_form_table` uses too; D holds
    ``a·(1 - S(k))`` plus the D of ``init``.  The law starts from ``init``'s
    slots over ``a`` and advances ``b`` quanta per block: about ``sqrt(n)``,
    fewer on wide rings.  The ``1..b``-quantum kernels are built once per call
    and fold mod ``m`` onto ``width = min(2b + 1, m)`` offsets.  A block's law
    rows are one product of the kernels with the circular windows of its start
    row, the last law row of the block before, divided by its own sum.  Cost is
    O(N·m·width) plus the table; no ``(m + 1)²`` array is allocated.  Against
    the factored rows stepped in long double, the largest error on a five-slot
    ring was 1.0e-16 at N = 20 000 (retreat) and N = 50 000 (III_B, r = 1e-4).
    """
    if not isinstance(params, SchemeParams):
        raise TypeError(f"propagate takes SchemeParams, got {type(params).__name__}")
    n = _check_int(n, "quanta", 0)
    params._same_ring(init.m, "distribution")
    m = params.m
    table = _alloc(np.empty, (n + 1, m + 1))
    table[0] = init.probs
    ring_mass = np.add.reduce(init.probs[:m])
    # with no mass on the ring any law will do: it is scaled by a ring mass of 0
    law = init.probs[:m] / ring_mass if ring_mass > 0.0 else np.full(m, 1.0 / m)
    b = _block_quanta(n, m)
    width = min(2 * b + 1, m)
    kernels = _kernels(params, b, width)
    # windows[i, j] = extended[i + j] = x[(j + i - b) mod m], offset b - i behind
    # slot j: a strided view, never copied
    gather = (np.arange(m + width - 1) - b) % m
    extended = np.empty(m + width - 1)
    windows = np.lib.stride_tricks.sliding_window_view(extended, m)
    laws = table[1:, :m]
    for k in range(0, n, b):
        rows = laws[k : k + b]
        np.take(law, gather, out=extended)
        np.matmul(kernels[: rows.shape[0]], windows, out=rows)
        law = rows[-1]
        law /= np.add.reduce(law)
    alive, dead = _survival(params.r, np.arange(1, n + 1))
    laws *= (ring_mass * alive)[:, None]
    table[1:, m] = ring_mass * dead + init.probs[m]
    table.flags.writeable = False
    return Trajectory(table)
