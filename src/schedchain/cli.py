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
(command, scheme, parameters, pb, horizon, walks, seed, engine, version)
that can be fed back through ``RunSpec.from_meta`` to reproduce the run
byte for byte.  The output destination is not part of ``meta``.

Exit codes: 0 success, 1 engine cross-check divergence (``--verify``),
2 usage error (text that does not parse, a value an engine refuses, or a
horizon, ring or walk count too large to allocate),
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

import numpy as np

from . import __version__
from .model import (
    DimensionError,
    Distribution,
    ModelError,
    ParameterError,
    SchemeParams,
    build_matrix,
    propagate,
    state_labels,
)
from .schemes import (
    CONSTRAINTS,
    ConstraintError,
    SchemeId,
    closed_form_table,
    closed_form_trajectory,
    make_preset,
)

__all__ = ["RunSpec", "EngineDivergence", "parse_args", "execute", "emit", "main"]

#: Maximum componentwise gap tolerated by ``run --verify``.
VERIFY_TOL = 1e-10

_PARAM_NAMES = ("p", "s", "q", "r")
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
    """Everything one invocation computes, minus where the output goes.

    ``free`` and each preset's parameters are ordered by ``_canon_free`` and
    otherwise kept as given; the engines refuse what they cannot take.
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
    presets: tuple[tuple[str, dict[str, float]], ...] | None = None

    def __post_init__(self) -> None:
        self.free = _canon_free(self.free)
        if self.presets is not None:
            self.presets = tuple((scheme, _canon_free(free)) for scheme, free in self.presets)

    def to_meta(self, engine: str) -> dict:
        meta = {
            "command": self.command,
            "scheme": self.scheme,
            "free": dict(self.free),
            "pb": list(self.pb) if self.pb is not None else None,
            "m": self.m,
            "quanta": self.quanta,
            "walks": self.walks,
            "seed": self.seed,
            "format": self.fmt,
            "engine": engine,
            "version": __version__,
        }
        if self.presets is not None:
            meta["presets"] = [
                {"scheme": scheme, "free": dict(free)} for scheme, free in self.presets
            ]
        return meta

    @classmethod
    def from_meta(cls, meta: dict) -> "RunSpec":
        """Rebuild the spec from an emitted JSON ``meta`` block."""
        presets = meta.get("presets")
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
            presets=None if presets is None else [(e["scheme"], e["free"]) for e in presets],
        )


@dataclass
class Payload:
    """What a subcommand produced: a table plus JSON-only extras.

    Each column holds values of one type in every row.
    """

    meta: dict
    columns: list[str]
    rows: list[list]
    extra: dict = field(default_factory=dict)


def _canon_free(mapping: dict[str, float]) -> dict[str, float]:
    """``mapping`` with ``p, s, q, r`` first and other names after, in their order.

    The fixed order keeps emitted JSON byte-stable; no name is dropped and no
    value converted.
    """
    return {**{name: mapping[name] for name in _PARAM_NAMES if name in mapping}, **mapping}


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
    # each option's dest names the RunSpec field it fills; these are the
    # fields some subcommand has no option for
    parser.set_defaults(
        verify=False, **dict.fromkeys(("scheme", *_PARAM_NAMES, "walks", "seed", "presets"))
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, moves: str = "", walks: bool = False) -> None:
        p.add_argument(
            "--pb", type=_parse_pb, help="comma-separated initial process probabilities (sum 1)"
        )
        p.add_argument("--m", type=int, help="ring size; inferred from --pb when given")
        p.add_argument("--quanta", "-n", type=int, default=50, help="horizon N (default 50)")
        if moves:
            for name in _PARAM_NAMES:
                p.add_argument(f"--{name}", type=float, help=f"move probability {name} ({moves})")
        p.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
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
    moves = {name: fields.pop(name) for name in _PARAM_NAMES}
    return RunSpec(free={k: v for k, v in moves.items() if v is not None}, **fields)


def _resolve(spec: RunSpec):
    """RunSpec -> (params, init, preset or None)."""
    if spec.scheme is not None:
        preset = make_preset(SchemeId(spec.scheme), spec.free or None, pb=spec.pb, m=spec.m)
        return preset.params, preset.init, preset
    if spec.pb is None:
        raise ParameterError("raw-parameter runs need --pb")
    if unknown := [name for name in spec.free if name not in _PARAM_NAMES]:
        raise ParameterError(f"unknown move probability {unknown[0]!r}")
    values = {name: 0.0 for name in _PARAM_NAMES}
    values.update(spec.free)
    init = Distribution.from_process_probs(spec.pb)
    if spec.m is not None and init.m != spec.m:
        raise DimensionError(f"pb has {init.m} entries but m={spec.m} was requested")
    params = SchemeParams(values["p"], values["s"], values["q"], values["r"], init.m)
    return params, init, None


def _trajectory_payload(spec: RunSpec, engine: str, table: np.ndarray, m: int) -> Payload:
    columns = ["quantum"] + state_labels(m)
    rows = [[n] + row for n, row in enumerate(table.tolist())]
    return Payload(spec.to_meta(engine), columns, rows)


def _exec_run(spec: RunSpec) -> Payload:
    params, init, _ = _resolve(spec)
    table = propagate(init, build_matrix(params), spec.quanta).to_array()
    if spec.verify:
        analytic = closed_form_table(params, init.processes, np.arange(spec.quanta + 1))
        gap = float(np.max(np.abs(table - analytic)))
        if not gap <= VERIFY_TOL:  # also when the closed form holds a NaN
            raise EngineDivergence(
                f"matrix and closed-form engines diverge by {gap:.3e} (> {VERIFY_TOL:g})"
            )
    return _trajectory_payload(spec, "matrix", table, params.m)


def _exec_closed_form(spec: RunSpec) -> Payload:
    _, _, preset = _resolve(spec)
    trajectory = closed_form_trajectory(preset, spec.quanta)
    return _trajectory_payload(spec, "closed-form", trajectory.to_array(), preset.params.m)


def _exec_simulate(spec: RunSpec) -> Payload:
    from .montecarlo import SimConfig

    params, init, _ = _resolve(spec)
    config = SimConfig(params, init, spec.quanta, spec.walks, spec.seed)
    estimate = simulate(config)
    payload = _trajectory_payload(spec, "montecarlo", estimate.frequencies, params.m)
    payload.extra = {"n_walks": estimate.n_walks}
    return payload


def _exec_absorb(spec: RunSpec) -> Payload:
    from .montecarlo import CENSORED, SimConfig

    params, init, _ = _resolve(spec)
    config = SimConfig(params, init, spec.quanta, spec.walks, spec.seed)
    # allocated before the sweep, so a horizon too large for it fails at once
    histogram = np.zeros(spec.quanta + 1, dtype=np.int64)
    sample = absorption_times(config)
    hits = np.bincount(sample.first_hit[sample.first_hit != CENSORED])
    histogram[: hits.size] = hits
    rows = [[n, int(c)] for n, c in enumerate(histogram)]
    rows.append([CENSORED, sample.n_censored])
    mean = sample.mean_first_hit
    summary = {
        "mean_first_hit": None if np.isnan(mean) else mean,
        "n_walks": sample.n_walks,
        "n_censored": sample.n_censored,
        "censored_fraction": sample.censored_fraction,
        "biased_low": sample.biased_low,
        "horizon": sample.horizon,
    }
    return Payload(
        spec.to_meta("montecarlo"),
        ["first_hit_quantum", "walks"],
        rows,
        {"summary": summary},
    )


def _exec_compare(spec: RunSpec) -> Payload:
    presets = [
        make_preset(SchemeId(scheme), free or None, pb=spec.pb, m=spec.m)
        for scheme, free in spec.presets
    ]
    report = compare_presets(presets, spec.quanta)
    columns = ["scheme", "quantum", "survival", "fairness", "efficiency_index"]
    rows = []
    schemes_json = []
    for entry in report.entries:
        mx = entry.metrics
        scheme = entry.scheme.value
        rows.extend(
            [scheme, n, survival, fairness, efficiency]
            for n, (survival, fairness, efficiency) in enumerate(
                zip(mx.survival.tolist(), mx.fairness.tolist(), mx.efficiency_index.tolist())
            )
        )
        expected = mx.expected_absorption
        schemes_json.append(
            {
                "scheme": scheme,
                "params": {name: getattr(entry.params, name) for name in _PARAM_NAMES},
                "m": entry.params.m,
                "expected_absorption": None if np.isinf(expected) else expected,
                "final_survival": float(mx.survival[-1]),
                "final_fairness": float(mx.fairness[-1]),
                "final_efficiency_index": float(mx.efficiency_index[-1]),
            }
        )
    extra = {
        "ranking": [scheme.value for scheme in report.ranked_schemes],
        "schemes": schemes_json,
    }
    return Payload(spec.to_meta("matrix"), columns, rows, extra)


_EXECUTORS = {
    "run": _exec_run,
    "closed-form": _exec_closed_form,
    "simulate": _exec_simulate,
    "absorb": _exec_absorb,
    "compare": _exec_compare,
}


def _check_sizes(spec: RunSpec) -> None:
    """Reject sizes whose arrays numpy cannot even index.

    Every command holds a ``(quanta + 1) x (m + 1)`` table of 8-byte numbers,
    and the Monte Carlo commands 8 bytes a walk.  numpy refuses an array of
    more than ``sys.maxsize`` bytes with a ValueError, not a MemoryError.
    """
    m = spec.m if spec.m is not None else len(spec.pb) if spec.pb is not None else 2
    if 8 * (spec.quanta + 1) * (m + 1) > sys.maxsize:
        raise MemoryError(f"a {spec.quanta + 1} x {m + 1} table is too large to allocate")
    if 8 * (spec.walks or 0) > sys.maxsize:
        raise MemoryError(f"{spec.walks} walks are too many to allocate")


def execute(spec: RunSpec) -> Payload:
    """Run the engines for a spec and return the emission payload."""
    try:
        executor = _EXECUTORS[spec.command]
    except KeyError:
        raise ParameterError(f"unknown command {spec.command!r}") from None
    _check_sizes(spec)
    return executor(spec)


def render_csv(payload: Payload) -> str:
    lines = [",".join(payload.columns)]
    if payload.rows:
        # floats print with 12 significant digits, anything else as str()
        template = ",".join("%.12g" if isinstance(v, float) else "%s" for v in payload.rows[0])
        lines.extend(template % tuple(row) for row in payload.rows)
    return "\n".join(lines) + "\n"


def render_json(payload: Payload) -> str:
    import json

    obj = {"meta": payload.meta, "columns": payload.columns, "rows": payload.rows}
    obj.update(payload.extra)
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def emit(payload: Payload, fmt: str, output: str | None) -> None:
    """Serialize the payload as CSV or JSON to a file or standard output."""
    text = render_csv(payload) if fmt == "csv" else render_json(payload)
    if output is None:
        sys.stdout.write(text)
        sys.stdout.flush()  # a write error surfaces here, not at interpreter exit
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def main(argv=None) -> int:
    spec = parse_args(argv)
    try:
        payload = execute(spec)
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
        emit(payload, spec.fmt, spec.output)
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
