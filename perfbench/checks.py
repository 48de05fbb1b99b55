"""Correctness gates for CLI outputs, independent of the ``schedchain`` engines.

Exact outputs (``run``, ``closed-form``, ``compare``) are compared with the
benchmark's own ring recurrence to ``EXACT_TOL`` absolute.  Monte Carlo
outputs are held to frozen golden hashes at the default workload seed and to
an exact-binomial agreement test against the recurrence at any other seed.
A check never raises on a malformed output: it reports the output as failed.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
from scipy.special import betainc, ndtri

from workloads import Call, move_probs

#: Largest componentwise gap tolerated between an exact output and the reference.
EXACT_TOL = 1e-10

#: Family-wise false-alarm rate of one Monte Carlo output's agreement test.
MC_ALPHA = 1e-6

# Errors a malformed output can raise while it is decoded, parsed and compared.
_MALFORMED = (ValueError, KeyError, IndexError, TypeError)


def ring_trajectory(probs: tuple[float, float, float, float], pb, n: int) -> np.ndarray:
    """``(n + 1) x (m + 1)`` state probabilities from the circulant recurrence.

    ``x' = s*x + p*roll(x, 1) + q*roll(x, -1)`` on the slots, ``D' = D + r*sum(x)``.
    """
    p, s, q, r = probs
    x = np.array(pb, dtype=float)
    out = np.empty((n + 1, x.size + 1))
    out[0, :-1] = x
    out[0, -1] = 0.0
    dead = 0.0
    for t in range(1, n + 1):
        dead += r * x.sum()
        x = s * x + p * np.roll(x, 1) + q * np.roll(x, -1)
        out[t, :-1] = x
        out[t, -1] = dead
    return out


def _curves(table: np.ndarray) -> np.ndarray:
    """Columns survival, Jain fairness of the conditional slot shares, their product."""
    survival = 1.0 - table[:, -1]
    slots = table[:, :-1]
    squares = (slots * slots).sum(axis=1)
    alive = (survival > 0.0) & (squares > 0.0)
    fairness = np.ones_like(survival)
    totals = slots.sum(axis=1)
    fairness[alive] = totals[alive] ** 2 / (slots.shape[1] * squares[alive])
    return np.column_stack([survival, fairness, survival * fairness])


def reference(call: Call) -> np.ndarray:
    """The exact answer the call's output is compared with.

    Trajectory-style calls get the state table; ``compare`` gets the stacked
    survival/fairness/efficiency curves of its presets; ``absorb`` gets the
    first-hit probabilities for quanta ``0..N`` followed by the censored mass.
    """
    if call.command == "compare":
        return np.vstack([
            _curves(ring_trajectory(move_probs(scheme, free), call.pb, call.quanta))
            for scheme, free in call.presets
        ])
    table = ring_trajectory(move_probs(call.scheme, call.free), call.pb, call.quanta)
    if call.command == "absorb":
        dead = table[:, -1]
        return np.concatenate([[dead[0]], np.diff(dead), [1.0 - dead[-1]]])
    return table


def _parse(call: Call, text: str) -> tuple[list[str], list[list], dict]:
    if call.fmt == "json":
        doc = json.loads(text)
        return doc["columns"], doc["rows"], doc
    if not text.endswith("\n"):
        raise ValueError("CSV output must end with a newline")
    lines = text[:-1].split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]], {}


def _state_columns(m: int) -> list[str]:
    return ["quantum"] + [f"P{i}" for i in range(1, m + 1)] + ["D"]


def _state_table(columns, rows, m: int, n: int) -> np.ndarray:
    if columns != _state_columns(m):
        raise ValueError("unexpected columns")
    table = np.array(rows, dtype=float)
    if table.shape != (n + 1, m + 2) or not np.array_equal(table[:, 0], np.arange(n + 1)):
        raise ValueError(f"expected quanta 0..{n} with {m + 1} states, got shape {table.shape}")
    return table[:, 1:]


def _check_exact(call: Call, columns, rows, doc, ref: np.ndarray) -> str | None:
    if call.command != "compare":
        got = _state_table(columns, rows, ref.shape[1] - 1, call.quanta)
    else:
        if columns != ["scheme", "quantum", "survival", "fairness", "efficiency_index"]:
            raise ValueError("unexpected columns")
        labels = [scheme for scheme, _ in call.presets for _ in range(call.quanta + 1)]
        quanta = list(range(call.quanta + 1)) * len(call.presets)
        if [row[0] for row in rows] != labels or [int(row[1]) for row in rows] != quanta:
            return "scheme/quantum columns out of order"
        got = np.array([row[2:] for row in rows], dtype=float)
        if "ranking" in doc:
            final = ref[call.quanta::call.quanta + 1, 2]
            order = [[scheme for scheme, _ in call.presets].index(s) for s in doc["ranking"]]
            if sorted(order) != list(range(len(call.presets))) or any(
                final[a] < final[b] - EXACT_TOL for a, b in zip(order, order[1:])
            ):
                return f"ranking {doc['ranking']} disagrees with the reference"
    if got.shape != ref.shape:
        return f"shape {got.shape} != reference {ref.shape}"
    gap = float(np.max(np.abs(got - ref)))
    if not gap <= EXACT_TOL:
        return f"max gap {gap:.3e} to the reference exceeds {EXACT_TOL:g}"
    return None


def binomial_abs_z(counts: np.ndarray, probs: np.ndarray, n: int) -> np.ndarray:
    """Normal-equivalent |z| of each count in ``0..n`` under Binomial(n, p).

    Uses the exact two-sided binomial tail, so a single walk in a cell whose
    expected count is tiny is not mistaken for a many-sigma excursion.
    """
    k = counts.astype(float)
    p = np.clip(probs, 0.0, 1.0)
    lower = np.where(k < n, betainc(np.maximum(n - k, 1e-300), k + 1.0, 1.0 - p), 1.0)
    upper = np.where(k > 0, betainc(np.maximum(k, 1e-300), n - k + 1.0, p), 1.0)
    pvalue = np.minimum(1.0, 2.0 * np.minimum(lower, upper))
    return -ndtri(pvalue / 2.0)


def _mc_counts(call: Call, columns, rows, doc) -> np.ndarray:
    """Per-cell walk counts of a Monte Carlo output, after its own consistency checks."""
    if call.command == "simulate":
        m = len(call.pb)
        counts = _state_table(columns, rows, m, call.quanta) * call.walks
        whole = np.rint(counts)
        if float(np.max(np.abs(counts - whole))) > 1e-4:
            raise ValueError("frequencies are not whole walk counts")
        if whole.min() < 0 or not np.all(whole.sum(axis=1) == call.walks):
            raise ValueError("a quantum's counts are negative or do not sum to the walk count")
        return whole.ravel()
    if columns != ["first_hit_quantum", "walks"]:
        raise ValueError("unexpected columns")
    quanta = [int(row[0]) for row in rows]
    if quanta != list(range(call.quanta + 1)) + [-1]:
        raise ValueError("histogram rows must be quanta 0..N then -1")
    hist = np.array([row[1] for row in rows], dtype=np.int64)
    if hist.min() < 0:
        raise ValueError("negative walk count")
    summary = doc["summary"]
    hits = hist[:-1]
    mean = float(np.arange(hits.size) @ hits) / hits.sum() if hits.sum() else None
    if (hist.sum() != call.walks or summary["n_walks"] != call.walks
            or summary["n_censored"] != hist[-1] or summary["horizon"] != call.quanta
            or (mean is None) != (summary["mean_first_hit"] is None)
            or (mean is not None and abs(summary["mean_first_hit"] - mean) > 1e-9 * mean)):
        raise ValueError("absorb summary disagrees with its histogram")
    return hist


def golden_digest(call: Call, text: str) -> str:
    """sha256 of a Monte Carlo output's rows (and ``absorb`` summary), not its ``meta``."""
    if call.fmt == "json":
        doc = json.loads(text)
        body = json.dumps([doc["rows"], doc.get("summary")], sort_keys=True, separators=(",", ":"))
    else:
        body = text.partition("\n")[2]
    return hashlib.sha256(body.encode()).hexdigest()


class Checker:
    """Checks outputs of one workload's calls; byte-identical repeats of an output
    that already passed are accepted by digest instead of being parsed again."""

    def __init__(self, calls, golden: dict[str, str] | None):
        self._calls = {call.name: call for call in calls}
        self._golden = golden
        self._refs = {
            call.name: reference(call)
            for call in calls
            if not call.monte_carlo or golden is None
        }
        self._passed: set[tuple[str, str]] = set()
        #: Largest |z| and its Bonferroni bound per Monte Carlo call, when tested.
        self.mc_z: dict[str, tuple[float, float]] = {}

    def check(self, name: str, stdout: bytes) -> str | None:
        """``None`` when the output is correct, else why it is not."""
        key = (name, hashlib.sha256(stdout).hexdigest())
        if key in self._passed:
            return None
        try:
            problem = self._check(self._calls[name], stdout.decode())
        except _MALFORMED as exc:
            problem = f"malformed output: {exc!r}"[:300]
        if problem is None:
            self._passed.add(key)
        return problem

    def _check(self, call: Call, text: str) -> str | None:
        columns, rows, doc = _parse(call, text)
        if not call.monte_carlo:
            return _check_exact(call, columns, rows, doc, self._refs[call.name])
        counts = _mc_counts(call, columns, rows, doc)
        if self._golden is not None:
            want = self._golden[call.name]
            got = golden_digest(call, text)
            return None if got == want else f"sha256 {got} != golden {want}"
        z = binomial_abs_z(counts, self._refs[call.name].ravel(), call.walks)
        bound = float(-ndtri(MC_ALPHA / (2.0 * counts.size)))
        self.mc_z[call.name] = (float(z.max()), bound)
        if not z.max() <= bound:
            return f"max |z| {z.max():.2f} exceeds the Bonferroni bound {bound:.2f}"
        return None
