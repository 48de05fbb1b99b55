"""Named scheduling schemes: validated presets and their closed forms.

Seven presets cover the corners of the move-probability simplex with no
retreat (``q = 0``):

========  =======================  ==========================================
id        constraint set           behaviour
========  =======================  ==========================================
I_A       s = 1                    FIFO: the scheduler never moves
I_B       r + s = 1                FIFO with a per-quantum deadlock hazard
II_A      p = 1                    round robin: advance every quantum
II_B      p + r = 1                round robin with a deadlock hazard
III_A     p + s = 1                stay/advance mixture, deadlock-free
III_B     p + s + r = 1            stay/advance mixture with a hazard
IV        p = 1, start at P1       round robin pinned to the first slot
========  =======================  ==========================================

All seven are corners of one chain with ``q = 0``, so ``closed_form`` needs
one formula: after ``n`` quanta the slot mass is the initial mass rotated by
the number of advances ``k``, mixed with binomial weights
``C(n, k) p^k s^(n-k)``, and deadlock holds ``1 - (1 - r)^n``.  It evaluates
each preset's quantum-``n`` distribution without stepping a matrix, which
makes it an independent cross-check of :func:`schedchain.model.propagate`
(and vice versa).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (
    ATOL,
    DimensionError,
    Distribution,
    ModelError,
    ParameterError,
    SchemeParams,
    Trajectory,
    _check_int,
)

__all__ = [
    "ConstraintError",
    "SchemeId",
    "ConstraintSet",
    "CONSTRAINTS",
    "SchemePreset",
    "make_preset",
    "closed_form",
    "closed_form_trajectory",
]


class ConstraintError(ModelError):
    """Supplied parameters conflict with a scheme's constraint set."""


class SchemeId(Enum):
    """Identifiers of the named scheme presets, in catalog order."""

    I_A = "I_A"
    I_B = "I_B"
    II_A = "II_A"
    II_B = "II_B"
    III_A = "III_A"
    III_B = "III_B"
    IV = "IV"


@dataclass(frozen=True)
class ConstraintSet:
    """Pinned move probabilities plus the adjustable (free) parameter names.

    ``n_free`` of the names in ``free`` must be supplied; the single remaining
    probability is then fixed by the unit-mass condition.
    """

    pinned: tuple[tuple[str, float], ...]
    free: tuple[str, ...]
    n_free: int
    note: str


CONSTRAINTS: dict[SchemeId, ConstraintSet] = {
    SchemeId.I_A: ConstraintSet(
        (("p", 0.0), ("s", 1.0), ("q", 0.0), ("r", 0.0)), (), 0,
        "s=1: FIFO, no deadlock; no free parameters"),
    SchemeId.I_B: ConstraintSet(
        (("p", 0.0), ("q", 0.0)), ("r", "s"), 1,
        "r+s=1: FIFO with deadlock hazard; give one of r, s"),
    SchemeId.II_A: ConstraintSet(
        (("p", 1.0), ("s", 0.0), ("q", 0.0), ("r", 0.0)), (), 0,
        "p=1: round robin, no deadlock; no free parameters"),
    SchemeId.II_B: ConstraintSet(
        (("s", 0.0), ("q", 0.0)), ("p", "r"), 1,
        "p+r=1: round robin with deadlock hazard; give one of p, r"),
    SchemeId.III_A: ConstraintSet(
        (("q", 0.0), ("r", 0.0)), ("p", "s"), 1,
        "p+s=1: stay/advance mixture, no deadlock; give one of p, s"),
    SchemeId.III_B: ConstraintSet(
        (("q", 0.0),), ("p", "s", "r"), 2,
        "p+s+r=1: stay/advance mixture with deadlock hazard; give two of p, s, r"),
    SchemeId.IV: ConstraintSet(
        (("p", 1.0), ("s", 0.0), ("q", 0.0), ("r", 0.0)), (), 0,
        "p=1 and the walk starts at P1; no free parameters, pb is fixed"),
}


@dataclass(frozen=True, eq=False)
class SchemePreset:
    """A scheme id together with concrete parameters and a start distribution.

    The start distribution places no mass on the deadlock state; scheme IV
    additionally pins all initial mass on P1.
    """

    scheme: SchemeId
    params: SchemeParams
    init: Distribution

    def __post_init__(self) -> None:
        for name, value in CONSTRAINTS[self.scheme].pinned:
            if abs(getattr(self.params, name) - value) > ATOL:
                raise ConstraintError(
                    f"scheme {self.scheme.value} pins {name}={value}, "
                    f"got {getattr(self.params, name)!r}"
                )
        if self.params.m != self.init.m:
            raise DimensionError(
                f"params describe m={self.params.m} slots but pb has {self.init.m}"
            )
        if self.init.quantum != 0:
            raise ConstraintError("preset start distributions live at quantum 0")
        if self.init.deadlock > ATOL:
            raise ConstraintError("presets start with zero deadlock mass")
        if self.scheme is SchemeId.IV and not _is_unit_on_first(self.init.processes):
            raise ConstraintError("scheme IV starts at P1; pb must put all mass there")

    @property
    def pb(self) -> np.ndarray:
        """Initial mass over the process slots."""
        return self.init.processes


def _is_unit_on_first(pb: np.ndarray) -> bool:
    return abs(float(pb[0]) - 1.0) <= ATOL and float(pb[1:].max(initial=0.0)) <= ATOL


def make_preset(
    scheme: SchemeId,
    free_params: dict[str, float] | None = None,
    pb=None,
    m: int | None = None,
) -> SchemePreset:
    """Build a validated preset from a scheme id and its free parameters.

    ``free_params`` must supply exactly the scheme's adjustable parameters
    (see :data:`CONSTRAINTS`); anything pinned by the scheme is rejected even
    when the value would agree, as are under- and over-determined inputs.
    ``pb`` is the initial mass over the process slots and fixes ``m``; scheme
    IV may omit it and pass ``m`` instead, in which case the forced unit mass
    on P1 is filled in.
    """
    cs = CONSTRAINTS[scheme]
    given = dict(free_params or {})
    for name, value in given.items():
        if name not in ("p", "s", "q", "r"):
            raise ConstraintError(f"unknown move probability {name!r}")
        if name not in cs.free:
            raise ConstraintError(
                f"scheme {scheme.value} does not take {name!r} ({cs.note})"
            )
        if not 0.0 <= value <= 1.0:
            raise ConstraintError(f"{name} must be in [0, 1], got {value!r}")
    if len(given) != cs.n_free:
        wanted = " or ".join(cs.free) if cs.n_free == 1 else f"{cs.n_free} of {cs.free}"
        raise ConstraintError(
            f"scheme {scheme.value} needs exactly {wanted or 'no free parameters'}, "
            f"got {sorted(given) if given else 'none'}"
        )

    values = dict(cs.pinned)
    values.update(given)
    missing = [name for name in ("p", "s", "q", "r") if name not in values]
    if missing:
        rest = 1.0 - sum(values.values())
        if rest < -ATOL:
            raise ConstraintError(
                f"free parameters {sorted(given)} carry more than unit mass "
                f"for scheme {scheme.value}"
            )
        values[missing[0]] = max(rest, 0.0)

    if m is not None:
        m = _check_int(m, "m", 2)
    if pb is None:
        if scheme is not SchemeId.IV:
            raise ParameterError(f"scheme {scheme.value} requires an initial pb vector")
        if m is None:
            raise ParameterError("scheme IV needs pb or m to size the ring")
        unit = np.zeros(m)
        unit[0] = 1.0
        pb = unit
    init = Distribution.from_process_probs(pb)
    if m is not None and init.m != m:
        raise DimensionError(f"pb has {init.m} entries but m={m} was requested")

    params = SchemeParams(values["p"], values["s"], values["q"], values["r"], init.m)
    return SchemePreset(scheme, params, init)


def _log_factorials(n: int) -> np.ndarray:
    """``log(k!)`` for ``k = 0..n``, each entry from ``math.lgamma``.

    A running ``cumsum(log(k))`` would be cheaper but its rounding error grows
    with ``n`` (about 1e-9 at ``n = 20000``); per-entry ``lgamma`` does not.
    """
    return np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1)


def _shift_weights(
    n: int, p: float, s: float, m: int, log_fact: np.ndarray | None = None
) -> np.ndarray:
    """Probability of ``k mod m`` net forward shifts after ``n`` quanta.

    The per-count weights are binomial, ``C(n, k) p^k s^(n-k)``; counts are
    folded onto the ring residues 0..m-1.  Their total is ``(p + s)^n``, the
    mass still on the process slots.  ``log_fact`` holds ``log(k!)`` for at
    least ``k = 0..n``; it is built here when omitted.
    """
    if p == 0.0 or s == 0.0:
        # one count carries all the mass (k = 0 or k = n); log(0) would give nan
        weights = np.zeros(m)
        weights[0 if p == 0.0 else n % m] = (p + s) ** n
        return weights
    if log_fact is None:
        log_fact = _log_factorials(n)
    k = np.arange(n + 1)
    log_comb = log_fact[n] - log_fact[: n + 1] - log_fact[n::-1]
    per_count = np.exp(log_comb + k * np.log(p) + (n - k) * np.log(s))
    return np.bincount(k % m, weights=per_count, minlength=m)


def _closed_form(
    preset: SchemePreset, n: int, log_fact: np.ndarray | None = None
) -> np.ndarray:
    """The unvalidated quantum-``n`` row ``(P1..Pm, D)``."""
    params = preset.params
    m = params.m
    weights = _shift_weights(n, params.p, params.s, m, log_fact)
    # row i of the gathered matrix is np.roll(pb, shifts[i]); zero weights drop out
    shifts = weights.nonzero()[0]
    rotations = preset.init.processes.take(np.arange(m) - shifts[:, None], mode="wrap")
    proc = weights[shifts] @ rotations
    # 1 - (1 - r)^n without cancellation; at r = 1, log1p(-1) = -inf gives nan at n = 0
    r = params.r
    dead = -math.expm1(n * math.log1p(-r)) if r < 1.0 else float(n > 0)
    return np.concatenate((proc, [dead]))


def closed_form(preset: SchemePreset, n: int) -> Distribution:
    """Evaluate the preset's quantum-``n`` distribution analytically.

    Every preset has ``q = 0``, so after ``n`` quanta the scheduler has made
    ``k`` advances and ``n - k`` stays with binomial probability
    ``C(n, k) p^k s^(n-k)``; the slot mass is the initial mass rotated by
    ``k``, mixed over ``k``.  FIFO (``p = 0``) and round robin (``s = 0``)
    are the single-term corners of that mixture.  Deadlock holds
    ``1 - (1 - r)^n``, evaluated without cancellation so small masses keep
    their relative accuracy.  Agrees with matrix propagation componentwise
    (the dual-route invariant).
    """
    n = _check_int(n, "quantum count", 0)
    return Distribution(_closed_form(preset, n), quantum=n)


def closed_form_trajectory(preset: SchemePreset, n: int) -> Trajectory:
    """All closed-form distributions for quanta ``0..n`` as a trajectory."""
    n = _check_int(n, "quantum count", 0)
    log_fact = _log_factorials(n)
    return Trajectory(np.array([_closed_form(preset, k, log_fact) for k in range(n + 1)]))
