"""Deadlock and fairness analytics over trajectories, plus scheme comparison.

The composite ``efficiency_index`` at quantum ``n`` is defined here as

    survival(n) * jain_fairness(conditional process distribution at n)

i.e. the probability of still running times how evenly the remaining mass is
spread over the process slots.  It is a library-defined score (bounded,
unit-free), and the raw survival and fairness curves are always reported next
to it so any alternative composite can be computed from the same data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .model import (
    DimensionError,
    ParameterError,
    SchemeParams,
    Trajectory,
    build_matrix,
    propagate,
    _check_int,
    _frozen,
)
from .schemes import SchemeId, SchemePreset

__all__ = [
    "jain_fairness",
    "SchemeMetrics",
    "SchemeComparison",
    "ComparisonReport",
    "metrics",
    "compare",
]

_SCHEME_ORDER = {scheme: rank for rank, scheme in enumerate(SchemeId)}

#: Final efficiencies this close, relative to the best one left, rank as
#: tied.  The engines agree to about 1e-15, so schemes that are equal in
#: exact arithmetic (I_B and II_B at one ``r``) differ only below it.
_TIE_RTOL = 1e-12


def _jain(shares: np.ndarray) -> np.ndarray:
    """Jain index of each row of finite non-negative shares; a row of zeros reads 1.

    Each row is first scaled by the power of two that puts its largest share
    in [0.5, 1) (the index is scale-invariant), so no sum or square overflows
    and none that matters underflows, at any finite scale.  Scaling by a power
    of two is exact, so a row of normal floats gives the same bits at every
    scale.  Rounding can lift the index of nearly equal shares an ulp or two
    above 1, its upper bound, so the index is clipped there.
    """
    k = shares.shape[-1]
    _, exponent = np.frexp(shares.max(axis=-1, keepdims=True))
    shares = np.ldexp(shares, -exponent)
    total = shares.sum(axis=-1)
    squares = (shares * shares).sum(axis=-1)
    index = np.divide(total * total, k * squares, out=np.ones_like(total), where=squares > 0)
    return np.minimum(index, 1.0)


def jain_fairness(shares) -> float:
    """Jain index ``(sum c)^2 / (k * sum c^2)`` of finite non-negative shares.

    Equals 1 for perfectly equal shares and ``1/k`` when a single share
    monopolizes everything, and never exceeds 1: rounding above it is clipped.
    Scale-invariant at any finite scale, and bit for bit when normal shares
    are scaled by a power of two.  Shares are numbers, not text or bools
    (:class:`ParameterError`).
    """
    c = _frozen(shares, float, "shares")
    if c.ndim != 1 or c.size == 0:
        raise DimensionError("shares must be a non-empty vector")
    if not np.isfinite(c).all():
        raise ParameterError("shares must be finite")
    if float(c.min()) < 0.0:
        raise ParameterError("shares must be non-negative")
    if float(c.max()) <= 0.0:
        raise ParameterError("at least one share must be positive")
    return float(_jain(c))


@dataclass(frozen=True, eq=False)
class SchemeMetrics:
    """Per-quantum survival, fairness and efficiency curves of one trajectory.

    ``expected_absorption`` is the mean number of quanta until deadlock,
    ``1/r`` for a state-independent hazard ``r > 0`` and infinite otherwise.
    ``fairness[n]`` is 1 once survival reaches 0: a row of zeros has Jain index 1.
    """

    survival: np.ndarray
    fairness: np.ndarray
    efficiency_index: np.ndarray
    expected_absorption: float

    def __post_init__(self) -> None:
        for name in ("survival", "fairness", "efficiency_index"):
            object.__setattr__(self, name, _frozen(getattr(self, name), float, name))


def metrics(trajectory: Trajectory, params: SchemeParams) -> SchemeMetrics:
    """Compute survival, fairness and efficiency curves for a trajectory.

    The expected absorption time is ``1/params.r``, infinite for ``r == 0``:
    the per-quantum deadlock hazard does not depend on the occupied slot.
    """
    params._same_ring(trajectory.m, "trajectory")
    survival = trajectory.survival()
    # the Jain index is scale-invariant, so the slot masses serve as
    # conditional shares; a row with no slot mass left reads 1
    fairness = _jain(trajectory.rows[:, :-1])
    expected = math.inf if params.r <= 0.0 else 1.0 / params.r

    return SchemeMetrics(survival, fairness, survival * fairness, expected)


@dataclass(frozen=True, eq=False)
class SchemeComparison:
    """One compared preset together with its exact-propagation metrics."""

    scheme: SchemeId
    params: SchemeParams
    metrics: SchemeMetrics


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Side-by-side metrics for several presets, ranked at the horizon.

    ``ranking`` holds indices into ``entries`` ordered by descending
    ``efficiency_index`` at the horizon.  Efficiencies within a relative
    1e-12 of the best one still unranked count as tied, and ties fall back
    to catalog order (I_A through IV), then to input position.  Rounding
    therefore never decides between schemes that are equal in exact
    arithmetic, such as I_B and II_B at the same ``r``.
    """

    entries: tuple[SchemeComparison, ...]
    ranking: tuple[int, ...]

    @property
    def ranked_schemes(self) -> tuple[SchemeId, ...]:
        return tuple(self.entries[i].scheme for i in self.ranking)


def compare(presets: Iterable[SchemePreset], horizon: int) -> ComparisonReport:
    """Propagate every preset for ``horizon`` quanta and rank the outcomes.

    All presets must share the same ring size ``m``.
    """
    presets = tuple(presets)
    if not presets:
        raise ParameterError("compare needs at least one preset")
    horizon = _check_int(horizon, "quanta", 1)
    sizes = {preset.params.m for preset in presets}
    if len(sizes) != 1:
        raise DimensionError(f"presets must share one ring size, got m in {sorted(sizes)}")

    entries = []
    for preset in presets:
        trajectory = propagate(preset.init, build_matrix(preset.params), horizon)
        entries.append(
            SchemeComparison(preset.scheme, preset.params, metrics(trajectory, preset.params))
        )

    final = [float(entry.metrics.efficiency_index[horizon]) for entry in entries]
    remaining = list(range(len(entries)))
    ranking = []
    while remaining:
        best = max(final[i] for i in remaining)
        tied = [i for i in remaining if best - final[i] <= _TIE_RTOL * abs(best)]
        pick = min(tied, key=lambda i: (_SCHEME_ORDER[entries[i].scheme], i))
        ranking.append(pick)
        remaining.remove(pick)
    return ComparisonReport(tuple(entries), tuple(ranking))
