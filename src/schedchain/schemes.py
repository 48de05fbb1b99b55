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

All seven are corners of one chain, and ``closed_form_table`` evaluates that
chain for any ``p, s, q, r``, retreat included.  One quantum applies the
same circulant step to every slot, so after ``n`` quanta the slot mass is
``IFFT(FFT(pb) · (λ/λ_0)^n)`` over the step's eigenvalues
``λ_k = s + p·ω^k + q·ω^-k`` (Gray, *Toeplitz and Circulant Matrices: A
Review*, 2006), times the ring's survival ``(1 - r)^n``, and deadlock holds
the rest, ``1 - (1 - r)^n``.  numpy's real FFT evaluates it at every ring
size, so a trajectory of ``N`` quanta costs O(N·m log m); the first such call
in a process imports ``numpy.fft``.  FIFO, round robin and scheme IV make at
most one kind of move, so their rows are ``pb`` rotated exactly, then
scaled, and need no transform.  The closed form evaluates each quantum
without stepping a matrix, which makes it an independent cross-check of
:func:`schedchain.model.propagate` (and vice versa).

:data:`CONSTRAINTS` holds each scheme's pinned probabilities and its help
note.  The other names, in ``p, s, q, r`` order, are the scheme's free
parameters: a caller gives all of them but one, which the unit-mass
condition then fixes, or none when all four are pinned.
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
    _is_real,
)

__all__ = [
    "ConstraintError",
    "SchemeId",
    "CONSTRAINTS",
    "SchemePreset",
    "make_preset",
    "closed_form",
    "closed_form_table",
    "closed_form_trajectory",
]


class ConstraintError(ModelError):
    """Supplied parameters conflict with a scheme's constraint set."""


class SchemeId(Enum):
    """Identifiers of the named scheme presets, in catalog order.

    Looking up any other value raises :class:`ParameterError`.
    """

    I_A = "I_A"
    I_B = "I_B"
    II_A = "II_A"
    II_B = "II_B"
    III_A = "III_A"
    III_B = "III_B"
    IV = "IV"

    @classmethod
    def _missing_(cls, value):
        raise ParameterError(f"unknown scheme {value!r}")


#: Scheme -> (pinned move probabilities, help note).
CONSTRAINTS: dict[SchemeId, tuple[dict[str, float], str]] = {
    SchemeId.I_A: ({"p": 0.0, "s": 1.0, "q": 0.0, "r": 0.0},
                   "s=1: FIFO, no deadlock; no free parameters"),
    SchemeId.I_B: ({"p": 0.0, "q": 0.0},
                   "r+s=1: FIFO with deadlock hazard; give one of r, s"),
    SchemeId.II_A: ({"p": 1.0, "s": 0.0, "q": 0.0, "r": 0.0},
                    "p=1: round robin, no deadlock; no free parameters"),
    SchemeId.II_B: ({"s": 0.0, "q": 0.0},
                    "p+r=1: round robin with deadlock hazard; give one of p, r"),
    SchemeId.III_A: ({"q": 0.0, "r": 0.0},
                     "p+s=1: stay/advance mixture, no deadlock; give one of p, s"),
    SchemeId.III_B: ({"q": 0.0},
                     "p+s+r=1: stay/advance mixture with deadlock hazard; give two of p, s, r"),
    SchemeId.IV: ({"p": 1.0, "s": 0.0, "q": 0.0, "r": 0.0},
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
        for name, value in CONSTRAINTS[self.scheme][0].items():
            if abs(getattr(self.params, name) - value) > ATOL:
                raise ConstraintError(
                    f"scheme {self.scheme.value} pins {name}={value}, "
                    f"got {getattr(self.params, name)!r}"
                )
        if self.params.m != self.init.m:
            raise DimensionError(
                f"params describe m={self.params.m} slots but pb has {self.init.m}"
            )
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

    ``free_params`` must supply all of the scheme's unpinned probabilities
    (see :data:`CONSTRAINTS`) but one, which the unit-mass condition fixes;
    anything pinned by the scheme is rejected even when the value would
    agree, as are under- and over-determined inputs.  ``pb`` is the initial
    mass over the process slots and fixes ``m``; scheme IV may omit it and
    pass ``m`` instead, in which case the forced unit mass on P1 is filled in.
    """
    pinned, note = CONSTRAINTS[scheme]
    free = tuple(name for name in ("p", "s", "q", "r") if name not in pinned)
    given = dict(free_params or {})
    for name, value in given.items():
        if name not in ("p", "s", "q", "r"):
            raise ConstraintError(f"unknown move probability {name!r}")
        if name in pinned:
            raise ConstraintError(f"scheme {scheme.value} does not take {name!r} ({note})")
        if not _is_real(value):
            raise ConstraintError(f"{name} must be a real number, got {value!r}")
        if not 0.0 <= value <= 1.0:
            raise ConstraintError(f"{name} must be in [0, 1], got {value!r}")
        # as a Python float: under NumPy 2 a float32 would keep the sum below in float32
        given[name] = float(value)
    if free and len(given) != len(free) - 1:
        wanted = " or ".join(free) if len(free) == 2 else f"{len(free) - 1} of {free}"
        raise ConstraintError(
            f"scheme {scheme.value} needs exactly {wanted}, "
            f"got {sorted(given) if given else 'none'}"
        )

    values = {**pinned, **given}
    if free:
        rest = 1.0 - sum(values.values())
        if rest < -ATOL:
            raise ConstraintError(
                f"free parameters {sorted(given)} carry more than unit mass "
                f"for scheme {scheme.value}"
            )
        values[next(name for name in free if name not in given)] = max(rest, 0.0)

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


def _forward_reach(support: np.ndarray) -> np.ndarray:
    """Advances a walk needs to reach each slot from the nearest slot in ``support``.

    Slot ``j`` is ``(j - i) mod m`` advances from slot ``i``; a running maximum
    over two laps of the ring finds the nearest support slot at or behind ``j``.
    """
    m = support.size
    laps = np.arange(2 * m)
    last = np.maximum.accumulate(np.where(np.tile(support, 2), laps, -1))
    return laps[m:] - last[m:]


def closed_form_table(params: SchemeParams, pb, ns) -> np.ndarray:
    """The unvalidated rows ``(P1..Pm, D)`` after each quantum count in ``ns``.

    ``pb`` is the initial slot mass, array-like of length ``params.m``
    (:class:`DimensionError` otherwise); it is not checked to be a probability
    vector.  Every count in ``ns`` must be a non-negative integer within the
    float range, of any integer or float dtype (:class:`ParameterError`).

    One quantum maps the slot mass ``x`` to ``s·x + p·roll(x, 1) + q·roll(x, -1)``,
    a circulant matrix, so after ``n`` quanta the slot mass is
    ``IFFT(FFT(pb) · (λ/λ_0)^n) · (1 - r)^n`` with eigenvalues
    ``λ_k = s + p·ω^k + q·ω^-k``, ``ω = exp(-2πi/m)``: one ``numpy.fft.rfft``
    of ``pb`` and the step, and one ``irfft`` of all rows, O(m log m) per row
    at any ring size and for any ``n``.  A row does not depend on which other
    counts ``ns`` holds.  When at most one of ``p``, ``s``, ``q`` is non-zero
    (FIFO, round robin, pure retreat, certain deadlock) the slot mass is
    instead ``pb`` rotated by the net shift, ``n`` slots forward if ``p > 0``,
    back if ``q > 0`` and none otherwise, exactly, and scaled by
    ``(1 - r)^n``.  Otherwise round-off negatives become +0.0, and slots the
    walk cannot have reached yet (further than ``n`` steps from every slot
    ``pb`` occupies, in the directions it moves) hold exactly 0.  Deadlock
    holds ``1 - (1 - r)^n``: the slots and D share one survival factor, so
    rows sum to 1 even where ``p + s + q`` rounds to 1 while ``r > 0``.
    """
    counts = np.asarray(ns)
    try:
        quanta = counts.astype(float)  # exact below 2**53; rotations use the integers
    except OverflowError:
        raise ParameterError("quantum counts must be finite") from None
    whole = (quanta >= 0.0) & (quanta < np.inf) & (np.floor(quanta) == quanta)
    if not whole.all():
        bad = quanta[~whole][0]
        raise ParameterError(f"quantum counts must be integers >= 0, got {bad:g}")
    p, s, q, r = params.p, params.s, params.q, params.r
    m = params.m
    pb = np.asarray(pb, dtype=float)
    if pb.shape != (m,):
        raise DimensionError(f"pb must hold m={m} slot masses, got shape {pb.shape}")
    table = np.empty((quanta.size, m + 1))
    proc = table[:, :m]
    # One survival factor: the ring keeps (1 - r)^n of the mass and D holds the
    # rest, both from n·log1p(-r), so rows sum to 1 even where p + s + q rounds
    # to 1 while r > 0.  At r = 1, log1p(-1) = -inf would give nan at n = 0.
    if r < 1.0:
        log_alive = quanta * math.log1p(-r)
        alive, table[:, m] = np.exp(log_alive), -np.expm1(log_alive)
    else:
        table[:, m] = quanta > 0
        alive = 1.0 - table[:, m]
    if (p > 0.0) + (s > 0.0) + (q > 0.0) <= 1:
        # one slot a quantum forward, back, or none (FIFO, nothing left on the ring);
        # reduced mod m before the sign is applied, so no count wraps a fixed-width integer
        shifts = (counts % m).astype(np.intp) * ((p > 0.0) - (q > 0.0))
        np.multiply(pb[(np.arange(m) - shifts[:, None]) % m], alive[:, None], out=proc)
    else:
        # λ is the DFT of the step's first column, so one transform gives both
        # spectra; dividing by λ_0 = p + s + q leaves the walk on the ring, whose
        # mass the survival factor sets
        cols = np.zeros((2, m))
        cols[0] = pb
        cols[1, 0] = s
        cols[1, 1] = p
        cols[1, -1] += q  # on a two-slot ring the predecessor is the successor
        pb_hat, eig = np.fft.rfft(cols)
        # divided as floats: numpy's complex division would leave λ_0/λ_0 an ulp off 1
        ring_eig = (eig.view(float) / eig.real[0]).view(complex)
        spec = pb_hat * ring_eig ** quanta[:, None] * alive[:, None]
        proc[:] = np.fft.irfft(spec, m)
        # round-off negatives and negative zeros (CSV would print "-0") become +0.0
        np.copyto(proc, 0.0, where=proc <= 0.0)
        if np.minimum.reduce(pb) == 0.0:
            support = pb > 0.0
            ahead = _forward_reach(support)
            behind = _forward_reach(support[::-1])[::-1]
            reach = ahead if q == 0.0 else behind if p == 0.0 else np.minimum(ahead, behind)
            for i in np.flatnonzero(quanta < reach.max()):
                proc[i, reach > quanta[i]] = 0.0
    return table


def closed_form(preset: SchemePreset, n: int) -> Distribution:
    """The preset's distribution after ``n`` quanta, evaluated analytically.

    The slot mass is ``IFFT(FFT(pb) · λ^n)`` over the eigenvalues of the
    one-quantum ring step (see :func:`closed_form_table`); FIFO, round robin
    and scheme IV are exact rotations of ``pb``, scaled by the mass left on
    the ring, ``(1 - r)^n``.  Deadlock holds ``1 - (1 - r)^n``, evaluated without
    cancellation so small masses keep their relative accuracy.  Agrees with
    matrix propagation componentwise (the dual-route invariant); round-off is
    about ε times the row mass, so slot masses far below that read 0.  The
    row is bit-identical to row ``n`` of :func:`closed_form_trajectory`.
    """
    n = _check_int(n, "quanta", 0)
    return Distribution(closed_form_table(preset.params, preset.pb, (n,))[0])


def closed_form_trajectory(preset: SchemePreset, n: int) -> Trajectory:
    """All closed-form distributions for quanta ``0..n`` as a trajectory."""
    n = _check_int(n, "quanta", 0)
    return Trajectory._adopt(closed_form_table(preset.params, preset.pb, np.arange(n + 1)))
