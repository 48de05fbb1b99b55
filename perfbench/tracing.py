"""Per-layer tracing of in-process CLI calls.

Spans are recorded from the benchmark's side of each layer boundary: the
public functions are wrapped where ``schedchain.cli`` and
``schedchain.analysis`` look them up, for the duration of a traced pass, and
restored afterwards.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

#: Every span name a traced pass can record, root first.
SPANS = (
    "cli.main",
    "cli.parse_args",
    "cli.execute",
    "cli.emit",
    "schemes.make_preset",
    "schemes.closed_form_trajectory",
    "model.build_matrix",
    "model.propagate",
    "analysis.compare",
    "analysis.metrics",
    "montecarlo.simulate",
    "montecarlo.absorption_times",
)


def _matrix_work(args, result) -> dict:
    m = args[0].m
    return {"useful": 3 * m + 1, "dense": (m + 1) ** 2}


def _propagate_work(args, result) -> dict:
    init, _, n = args
    return {"cells": (n + 1) * init.probs.size}


def _occupancy_work(args, result) -> dict:
    # Draw 0 places every walk; draw t >= 1 is live when the walk was still
    # on the ring at quantum t - 1.
    config = args[0]
    walks, n = config.n_walks, config.n_quanta
    alive = walks - result.counts[:-1, -1]
    return {"draws": walks * (n + 1), "live": walks + int(alive.sum())}


def _absorption_work(args, result) -> dict:
    # A walk first hit at quantum h used draws 0..h; a censored one all N + 1.
    config = args[0]
    walks, n = config.n_walks, config.n_quanta
    hits = result.first_hit
    censored = hits < 0
    live = int((hits[~censored] + 1).sum()) + int(censored.sum()) * (n + 1)
    return {"draws": walks * (n + 1), "live": live}


# (module, attribute looked up there, span name, work counter)
_WRAPPED = (
    ("cli", "parse_args", "cli.parse_args", None),
    ("cli", "execute", "cli.execute", None),
    ("cli", "emit", "cli.emit", None),
    ("cli", "make_preset", "schemes.make_preset", None),
    ("cli", "closed_form_trajectory", "schemes.closed_form_trajectory", None),
    ("cli", "build_matrix", "model.build_matrix", _matrix_work),
    ("cli", "propagate", "model.propagate", _propagate_work),
    ("cli", "compare_presets", "analysis.compare", None),
    ("cli", "simulate", "montecarlo.simulate", _occupancy_work),
    ("cli", "absorption_times", "montecarlo.absorption_times", _absorption_work),
    ("analysis", "build_matrix", "model.build_matrix", _matrix_work),
    ("analysis", "propagate", "model.propagate", _propagate_work),
    ("analysis", "metrics", "analysis.metrics", None),
)


class Tracer:
    """Collects spans ``{name, call, start, end, parent, failed, ...work}``.

    ``call`` identifies the CLI call (the request) a span belongs to and
    ``parent`` is the index of the enclosing span, or None for a root.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.call = 0
        self._open: list[int] = []

    def span(self, name: str, fn, work=None):
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "call": self.call,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter(),
                "end": None,
                "failed": False,
            }
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["failed"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if work is not None:
                span.update(work(args, result))
            return result

        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Wrap the layer functions in ``modules`` ({"cli": ..., "analysis": ...})."""
        saved = []
        try:
            for module, attr, name, work in _WRAPPED:
                original = getattr(modules[module], attr)
                saved.append((modules[module], attr, original))
                setattr(modules[module], attr, self.span(name, original, work))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Busy/self times, call and failure counts and work ratios of one traced pass.

    Self time is a span's duration minus the time its direct children cover.
    """
    busy = dict.fromkeys(SPANS, 0.0)
    own = dict.fromkeys(SPANS, 0.0)
    calls = dict.fromkeys(SPANS, 0)
    failed = dict.fromkeys(SPANS, 0)
    work: dict[str, int] = {}
    for span in spans:
        duration = span["end"] - span["start"]
        name = span["name"]
        busy[name] += duration
        own[name] += duration
        calls[name] += 1
        failed[name] += span["failed"]
        if span["parent"] is not None:
            own[spans[span["parent"]]["name"]] -= duration
        for key in ("cells", "useful", "dense", "draws", "live"):
            work[key] = work.get(key, 0) + span.get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    mc_busy = busy["montecarlo.simulate"] + busy["montecarlo.absorption_times"]
    metrics = {
        "cli.parse_args.busy_s": busy["cli.parse_args"],
        "cli.execute.self_s": own["cli.execute"],
        "cli.emit.busy_s": busy["cli.emit"],
        "model.build_matrix.busy_s": busy["model.build_matrix"],
        "model.propagate.busy_s": busy["model.propagate"],
        "model.propagate.cells_per_s": ratio(work.get("cells", 0), busy["model.propagate"]),
        "model.matrix_density": ratio(work.get("useful", 0), work.get("dense", 0)),
        "schemes.make_preset.busy_s": busy["schemes.make_preset"],
        "schemes.closed_form_trajectory.busy_s": busy["schemes.closed_form_trajectory"],
        "analysis.compare.self_s": own["analysis.compare"],
        "analysis.metrics.busy_s": busy["analysis.metrics"],
        "montecarlo.simulate.busy_s": busy["montecarlo.simulate"],
        "montecarlo.absorption_times.busy_s": busy["montecarlo.absorption_times"],
        "montecarlo.draws_per_s": ratio(work.get("draws", 0), mc_busy),
        "montecarlo.live_draw_ratio": ratio(work.get("live", 0), work.get("draws", 0)),
    }
    for name in SPANS:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.failed"] = failed[name]
    return metrics


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds of the outermost numpy, scipy and schedchain imports
    in ``python -X importtime`` output (children print before their parent)."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, package = line[len("import time:"):].split("|")
        depth = (len(package) - len(package.lstrip(" ")) - 1) // 2
        entries.append((depth, package.strip(), int(cumulative) * 1e-6))
    totals = {"numpy": 0.0, "scipy": 0.0, "schedchain": 0.0}
    ancestors: list[tuple[int, str]] = []
    for depth, package, seconds in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        top = package.partition(".")[0]
        if top in totals and all(name.partition(".")[0] != top for _, name in ancestors):
            totals[top] += seconds
        ancestors.append((depth, package))
    return {f"import.{top}_s": seconds for top, seconds in totals.items()}
