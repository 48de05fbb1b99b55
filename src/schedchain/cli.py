"""Command-line front end for the scheduler-chain engines.

Subcommands
-----------
run          exact per-quantum distributions via matrix propagation
closed-form  per-quantum distributions from the scheme's analytic form
simulate     Monte Carlo occupancy frequencies (seeded, reproducible)
absorb       Monte Carlo first-deadlock times (histogram plus summary)
compare      side-by-side scheme metrics with an efficiency ranking

Trajectory-style CSV output has the header ``quantum,P1,...,Pm,D``, one row
per quantum, probabilities printed with 12 significant digits and LF line
endings.  JSON output wraps the same rows in an object with a ``meta`` block
(command, scheme, parameters, pb, m, horizon, walks, seed, format, engine,
version, and ``compare``'s presets) that can be fed back through
``RunSpec.from_meta`` to reproduce the run byte for byte.  The output
destination is not part of ``meta``.

Exit codes: 0 success, 1 engine cross-check divergence (``--verify``),
2 usage error (text that does not parse, a value an engine refuses, an
engine array past the byte budget, or a sweep past the draw budget),
3 scheme constraint violation, 4 output I/O failure (standard output is
flushed before exit code 4 is decided).

Only ``model`` and ``schemes`` load with this module; the Monte Carlo and
analysis engines and the JSON encoder load when a call first needs them.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import __version__
from .model import ModelError, ParameterError, _MOVES, _alloc, build_matrix, propagate
from .schemes import (
    CONSTRAINTS,
    ConstraintError,
    SchemeId,
    _chain,
    closed_form_table,
    closed_form_trajectory,
    make_preset,
)

__all__ = ["RunSpec", "EngineDivergence", "parse_args", "execute", "emit", "main"]

#: Largest gap ``run --verify`` tolerates, relative to a row's mass.
VERIFY_TOL = 1e-10

_SCHEME_CHOICES = [scheme.value for scheme in SchemeId]


# The executors look these three up in this module when they run, so a
# function bound here in their place (a spy, a tracer's wrapper) is called.
def simulate(config):
    """Monte Carlo occupancy counts; the engine loads on the first call."""
    from . import montecarlo

    return montecarlo.simulate(config)


def absorption_times(config):
    """Monte Carlo first-deadlock times; the engine loads on the first call."""
    from . import montecarlo

    return montecarlo.absorption_times(config)


def compare_presets(presets, horizon: int):
    """Ranked scheme metrics; the analysis engine loads on the first call."""
    from . import analysis

    return analysis.compare(presets, horizon)


class EngineDivergence(RuntimeError):
    """Raised when --verify finds the two engines disagreeing."""


@dataclass
class RunSpec:
    """Everything one invocation computes, where its output goes and whether it is verified.

    ``meta`` holds every field but ``output`` and ``verify``.  ``free`` and
    each preset's parameters are ordered by ``_canon_free`` and otherwise
    kept as given; the engines refuse what they cannot take.  ``meta`` writes
    a numpy scalar as the Python number the engines read from it.
    """

    command: str
    scheme: str | None = None
    free: dict[str, float] = field(default_factory=dict)
    pb: tuple[float, ...] | None = None
    m: int | None = None
    quanta: int = 50
    walks: int | None = None
    seed: int | None = None
    fmt: str = "csv"
    output: str | None = None
    verify: bool = False
    presets: tuple[tuple[str, dict[str, float]], ...] = ()

    def __post_init__(self) -> None:
        self.free = _canon_free(self.free)
        self.presets = tuple((scheme, _canon_free(free)) for scheme, free in self.presets)

    def to_meta(self, engine: str) -> dict:
        meta = {
            "command": self.command,
            "scheme": self.scheme,
            "free": {name: _plain(value) for name, value in self.free.items()},
            "pb": list(map(_plain, self.pb)) if self.pb is not None else None,
            "m": _plain(self.m),
            "quanta": _plain(self.quanta),
            "walks": _plain(self.walks),
            "seed": _plain(self.seed),
            "format": self.fmt,
            "engine": engine,
            "version": __version__,
        }
        if self.presets:
            meta["presets"] = [
                {"scheme": scheme, "free": {name: _plain(v) for name, v in free.items()}}
                for scheme, free in self.presets
            ]
        return meta

    @classmethod
    def from_meta(cls, meta: dict) -> "RunSpec":
        """Rebuild the spec from an emitted JSON ``meta`` block; ParameterError if malformed."""
        try:
            return cls(
                command=meta["command"],
                scheme=meta.get("scheme"),
                free=meta.get("free") or {},
                pb=tuple(meta["pb"]) if meta.get("pb") is not None else None,
                m=meta.get("m"),
                quanta=meta["quanta"],
                walks=meta.get("walks"),
                seed=meta.get("seed"),
                fmt=meta.get("format", "json"),
                presets=[(e["scheme"], e["free"]) for e in meta.get("presets", ())],
            )
        except (KeyError, TypeError) as exc:
            raise ParameterError(f"malformed meta: {type(exc).__name__}: {exc}") from None


def _canon_free(mapping: dict[str, float]) -> dict[str, float]:
    """``mapping`` with ``p, s, q, r`` first and other names after, in their order.

    The fixed order keeps emitted JSON byte-stable; no name is dropped and no
    value converted.
    """
    return {**{name: mapping[name] for name in _MOVES if name in mapping}, **mapping}


def _plain(value):
    """A numpy scalar as the Python number the engines read from it (``float``
    for a floating one: ``item()`` would keep a longdouble); others as given."""
    if isinstance(value, np.floating):
        return float(value)
    return value.item() if isinstance(value, np.generic) else value


def _parse_pb(text: str) -> tuple[float, ...]:
    try:
        # + 0.0 turns "-0" into +0.0, which CSV prints as "0", not "-0"
        return tuple(float(token) + 0.0 for token in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated numbers: {text!r}") from None


def _parse_preset_token(text: str) -> tuple[str, dict]:
    scheme, _, rest = text.partition(":")
    scheme = scheme.strip()
    if scheme not in _SCHEME_CHOICES:
        raise argparse.ArgumentTypeError(
            f"unknown scheme {scheme!r} (choose from {_SCHEME_CHOICES})"
        )
    free: dict[str, float] = {}
    for item in rest.split(",") if rest else ():
        name, sep, raw = item.partition("=")
        name = name.strip()
        if not sep or not raw:
            raise argparse.ArgumentTypeError(f"bad parameter {item!r} (expected name=value)")
        if name in free:
            raise argparse.ArgumentTypeError(f"{text!r} gives {name!r} twice")
        try:
            free[name] = float(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad value {raw!r} for {name!r}") from None
    return scheme, free


def _scheme_epilog() -> str:
    lines = ["scheme constraint sets:"]
    for scheme, (_, note) in CONSTRAINTS.items():
        lines.append(f"  {scheme.value:<6} {note}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schedchain",
        description="Quantum-by-quantum analysis of ring scheduling schemes "
        "with an absorbing deadlock state.",
        epilog=_scheme_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # each option's dest names the RunSpec field it fills
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, moves: str = "", walks: bool = False) -> None:
        p.add_argument(
            "--pb", type=_parse_pb, help="comma-separated initial process probabilities (sum 1)"
        )
        p.add_argument("--m", type=int, help="ring size; inferred from --pb when given")
        p.add_argument("--quanta", "-n", type=int, default=50, help="horizon N (default 50)")
        if moves:
            for name in _MOVES:
                p.add_argument(f"--{name}", type=float, help=f"move probability {name} ({moves})")
        p.add_argument("--format", choices=tuple(_RENDERERS), default="csv", dest="fmt")
        p.add_argument("--output", "-o", help="output path (default: standard output)")
        if walks:
            p.add_argument("--walks", type=int, default=10000, help="walk count (default 10000)")
            p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed (default 0)")

    raw_or_free = "free scheme parameter, or raw without --scheme"
    run = sub.add_parser("run", help="exact matrix propagation")
    run.add_argument("--scheme", choices=_SCHEME_CHOICES)
    add_common(run, moves=raw_or_free)
    run.add_argument(
        "--verify",
        action="store_true",
        help=f"cross-check against the closed form; exit 1 beyond {VERIFY_TOL:g}",
    )

    closed = sub.add_parser("closed-form", help="per-scheme analytic distributions")
    closed.add_argument("--scheme", choices=_SCHEME_CHOICES, required=True)
    add_common(closed, moves="free scheme parameter")

    sim = sub.add_parser("simulate", help="seeded Monte Carlo occupancy")
    sim.add_argument("--scheme", choices=_SCHEME_CHOICES)
    add_common(sim, moves=raw_or_free, walks=True)

    absorb = sub.add_parser("absorb", help="seeded Monte Carlo deadlock-hit times")
    absorb.add_argument("--scheme", choices=_SCHEME_CHOICES)
    add_common(absorb, moves=raw_or_free, walks=True)

    # no abbreviations, so a move flag such as --q is refused, not read as --quanta
    comp = sub.add_parser(
        "compare", help="rank schemes by the efficiency index", allow_abbrev=False
    )
    comp.add_argument(
        "--preset",
        action="append",
        type=_parse_preset_token,
        dest="presets",
        required=True,
        metavar="SCHEME[:k=v,...]",
        help="scheme plus its free parameters, e.g. III_B:p=0.417,r=0.166 (repeatable)",
    )
    add_common(comp)
    return parser


def parse_args(argv=None) -> RunSpec:
    """Turn an argument vector into a RunSpec; text that does not parse exits 2.

    argparse reports such text with the usage block of the (sub)command that
    could not read it.  Values are checked by the engines' constructors, for
    argv, ``RunSpec.from_meta`` and library calls alike; ``main`` prints a
    refused value as one line and returns 2, or 3 for a scheme constraint.
    """
    fields = vars(build_parser().parse_args(argv))
    # a field the subcommand has no option for keeps the RunSpec default
    moves = {name: fields.pop(name, None) for name in _MOVES}
    return RunSpec(free={k: v for k, v in moves.items() if v is not None}, **fields)


def _resolve(spec: RunSpec):
    """RunSpec -> (params, init): the spec's preset chain, or its raw moves."""
    if spec.scheme is not None:
        preset = make_preset(spec.scheme, spec.free, pb=spec.pb, m=spec.m)
        return preset.params, preset.init
    if spec.pb is None:
        raise ParameterError("raw-parameter runs need --pb")
    if unknown := [name for name in spec.free if name not in _MOVES]:
        raise ParameterError(f"unknown move probability {unknown[0]!r}")
    return _chain(spec.free, spec.pb, spec.m)


def _trajectory(table: np.ndarray, **extra) -> dict:
    slots = [f"P{i}" for i in range(1, table.shape[1])]
    rows = list(zip(range(len(table)), *table.T.tolist()))
    return {"columns": ["quantum", *slots, "D"], "rows": rows, **extra}


def _exec_run(spec: RunSpec) -> dict:
    params, init = _resolve(spec)
    table = propagate(init, build_matrix(params), spec.quanta).to_array()
    if spec.verify:
        analytic = closed_form_table(params, init.processes, np.arange(spec.quanta + 1))
        # each row's largest slot gap over the larger of the engines' ring masses, and its
        # D gap over the larger D, on every row down to the smallest normal float mass
        parts = [0, params.m]  # the ring's slots, then D
        gaps = np.maximum.reduceat(np.abs(table - analytic), parts, axis=1)
        mass = np.maximum(
            np.add.reduceat(table, parts, axis=1), np.add.reduceat(analytic, parts, axis=1)
        )
        checked = ~(mass < np.finfo(float).tiny)  # a NaN mass too, which np.maximum keeps
        worst = float(np.max(gaps[checked] / mass[checked], initial=0.0))
        if not worst <= VERIFY_TOL:  # also on a NaN
            raise EngineDivergence(
                f"matrix and closed-form engines diverge by {worst:.3e} "
                f"of a row's mass (> {VERIFY_TOL:g})"
            )
    return _trajectory(table)


def _exec_closed_form(spec: RunSpec) -> dict:
    if spec.scheme is None:
        raise ParameterError("closed-form needs a scheme")
    preset = make_preset(spec.scheme, spec.free, pb=spec.pb, m=spec.m)
    return _trajectory(closed_form_trajectory(preset, spec.quanta).to_array())


def _exec_simulate(spec: RunSpec) -> dict:
    from .montecarlo import SimConfig

    params, init = _resolve(spec)
    estimate = simulate(SimConfig(params, init, spec.quanta, spec.walks, spec.seed))
    return _trajectory(estimate.frequencies, n_walks=estimate.n_walks)


def _exec_absorb(spec: RunSpec) -> dict:
    from .montecarlo import CENSORED, SimConfig

    params, init = _resolve(spec)
    config = SimConfig(params, init, spec.quanta, spec.walks, spec.seed)
    # allocated before the sweep, so a horizon too large for it fails at once
    histogram = _alloc(np.zeros, spec.quanta + 1, dtype=np.int64)
    sample = absorption_times(config)
    hits = np.bincount(sample.first_hit[sample.first_hit != CENSORED])
    histogram[: hits.size] = hits
    rows = [*zip(range(histogram.size), histogram.tolist()), (CENSORED, sample.n_censored)]
    mean = sample.mean_first_hit
    summary = {
        "mean_first_hit": None if np.isnan(mean) else mean,
        "n_walks": sample.n_walks,
        "n_censored": sample.n_censored,
        "censored_fraction": sample.censored_fraction,
        "biased_low": sample.biased_low,
        "horizon": sample.horizon,
    }
    return {"columns": ["first_hit_quantum", "walks"], "rows": rows, "summary": summary}


def _exec_compare(spec: RunSpec) -> dict:
    presets = [make_preset(scheme, free, pb=spec.pb, m=spec.m) for scheme, free in spec.presets]
    report = compare_presets(presets, spec.quanta)
    columns = ["scheme", "quantum", "survival", "fairness", "efficiency_index"]
    rows = []
    schemes_json = []
    for entry in report.entries:
        mx = entry.metrics
        scheme = entry.scheme.value
        curves = mx.survival.tolist(), mx.fairness.tolist(), mx.efficiency_index.tolist()
        rows.extend(zip(repeat(scheme), range(len(curves[0])), *curves))
        expected = mx.expected_absorption
        schemes_json.append(
            {
                "scheme": scheme,
                "params": {name: getattr(entry.params, name) for name in _MOVES},
                "m": entry.params.m,
                "expected_absorption": None if np.isinf(expected) else expected,
                "final_survival": float(mx.survival[-1]),
                "final_fairness": float(mx.fairness[-1]),
                "final_efficiency_index": float(mx.efficiency_index[-1]),
            }
        )
    ranking = [scheme.value for scheme in report.ranked_schemes]
    return {"columns": columns, "rows": rows, "ranking": ranking, "schemes": schemes_json}


# command -> (engine named in meta, executor returning the document's table part)
_EXECUTORS = {
    "run": ("matrix", _exec_run),
    "closed-form": ("closed-form", _exec_closed_form),
    "simulate": ("montecarlo", _exec_simulate),
    "absorb": ("montecarlo", _exec_absorb),
    "compare": ("matrix", _exec_compare),
}


def _lookup(table: dict, key, what: str):
    try:
        return table[key]
    except (KeyError, TypeError):  # TypeError: a key that cannot be hashed
        raise ParameterError(f"unknown {what} {key!r} (choose from {list(table)})") from None


def execute(spec: RunSpec) -> dict:
    """Run the engines for a spec and return the call's JSON object.

    It holds ``meta``, ``columns`` and ``rows`` (row tuples, one type per column),
    then the command's JSON-only keys.  An unknown command or format, and
    ``verify`` on a command with no cross-check, are refused first.
    """
    engine, executor = _lookup(_EXECUTORS, spec.command, "command")
    _lookup(_RENDERERS, spec.fmt, "format")
    if spec.verify and spec.command != "run":
        raise ParameterError(f"only run has a --verify check, not {spec.command}")
    table = executor(spec)  # first, so an engine refuses a bad value before meta reads it
    return {"meta": spec.to_meta(engine), **table}


def render_csv(document: dict) -> str:
    # floats print with 12 significant digits, anything else as str()
    rows = document["rows"]
    template = ",".join("%.12g" if isinstance(v, float) else "%s" for v in rows[0])
    # the closing "" ends the text with a newline in the one join, not a second copy
    lines = [",".join(document["columns"]), *(template % row for row in rows), ""]
    return "\n".join(lines)


def render_json(document: dict) -> str:
    import json

    return json.dumps(document, indent=2, allow_nan=False) + "\n"


_RENDERERS = {"csv": render_csv, "json": render_json}


def emit(document: dict, output: str | None) -> None:
    """Serialize the call's JSON object in its ``meta`` format to a file or standard output."""
    text = _RENDERERS[document["meta"]["format"]](document)
    if output is None:
        sys.stdout.write(text)
        sys.stdout.flush()  # a write error surfaces here, not at interpreter exit
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def main(argv=None) -> int:
    spec = parse_args(argv)
    try:
        document = execute(spec)
    except EngineDivergence as exc:
        print(f"schedchain: verification failed: {exc}", file=sys.stderr)
        return 1
    except ConstraintError as exc:
        print(f"schedchain: constraint violation: {exc}", file=sys.stderr)
        return 3
    except (ModelError, MemoryError) as exc:
        print(f"schedchain: error: {exc}", file=sys.stderr)
        return 2
    try:
        emit(document, spec.output)
    except OSError as exc:
        print(f"schedchain: cannot write output: {exc}", file=sys.stderr)
        if spec.output is None:
            _discard_stdout()
        return 4
    return 0


def _discard_stdout() -> None:
    """Point standard output at the null device.

    Python flushes standard output once more at exit; the text left in its
    buffer would fail again there and turn exit code 4 into 120.
    """
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, sys.stdout.fileno())
    finally:
        os.close(devnull)
