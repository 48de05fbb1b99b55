"""The benchmark's workloads: lists of ``schedchain`` CLI calls built from a seed.

The workload seed generates every ``--pb`` vector (flat Dirichlet) and every
Monte Carlo ``--seed``; move probabilities, horizons and walk counts are fixed
per workload.  Inputs come from :class:`random.Random`, whose seeded stream
does not depend on the numpy version, so the golden Monte Carlo hashes stay
valid across numpy upgrades.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

#: Seed at which Monte Carlo outputs are held to the frozen golden hashes.
DEFAULT_SEED = 0

# Move probabilities each preset pins; the free parameters are added and the
# one probability still missing takes the remaining mass.  Mirrors the scheme
# catalog of the README for the presets the workloads use.
_PINNED = {
    "I_B": {"p": 0.0, "q": 0.0},
    "II_B": {"s": 0.0, "q": 0.0},
    "III_A": {"q": 0.0, "r": 0.0},
    "III_B": {"q": 0.0},
}

# The README's raw parameter set, and a slow-hazard variant with retreat.
_RAW_README = {"p": 0.4, "s": 0.3, "q": 0.2, "r": 0.1}
_RAW_SLOW = {"p": 0.4, "s": 0.3, "q": 0.2999, "r": 1e-4}


def move_probs(scheme: str | None, free: dict[str, float]) -> tuple[float, float, float, float]:
    """``(p, s, q, r)`` of a preset or of a raw parameter set."""
    values = {"p": 0.0, "s": 0.0, "q": 0.0, "r": 0.0} if scheme is None else dict(_PINNED[scheme])
    values.update(free)
    missing = [name for name in "psqr" if name not in values]
    if missing:
        values[missing[0]] = 1.0 - sum(values.values())
    return values["p"], values["s"], values["q"], values["r"]


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a workload, plus what its checker needs to know."""

    name: str
    command: str
    pb: tuple[float, ...]
    quanta: int
    scheme: str | None = None
    free: dict[str, float] = field(default_factory=dict)
    presets: tuple[tuple[str, dict[str, float]], ...] = ()
    walks: int | None = None
    seed: int | None = None
    fmt: str = "csv"
    verify: bool = False

    @property
    def monte_carlo(self) -> bool:
        return self.walks is not None

    def argv(self) -> list[str]:
        """Arguments after ``python -m schedchain``; floats use ``repr`` so they parse back exactly."""
        args = [self.command]
        if self.scheme is not None:
            args += ["--scheme", self.scheme]
        for name, value in self.free.items():
            args += [f"--{name}", repr(value)]
        for scheme, free in self.presets:
            params = ",".join(f"{name}={value!r}" for name, value in free.items())
            args += ["--preset", f"{scheme}:{params}" if params else scheme]
        args += ["--pb", ",".join(map(repr, self.pb)), "--quanta", str(self.quanta)]
        if self.monte_carlo:
            args += ["--walks", str(self.walks), "--seed", str(self.seed)]
        if self.fmt != "csv":
            args += ["--format", self.fmt]
        if self.verify:
            args.append("--verify")
        return args


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Wall time of one pass at the commit that defined the benchmark, on 2
    #: cores.  It fixes how many passes ``--seconds`` buys, so a faster
    #: program gets the same sample count (and tail percentile), not more.
    nominal_pass_s: float
    calls: tuple[Call, ...]


def _dirichlet(rng: random.Random, m: int) -> tuple[float, ...]:
    draws = [rng.expovariate(1.0) for _ in range(m)]
    total = sum(draws)
    return tuple(d / total for d in draws)


def _mc_seed(rng: random.Random) -> int:
    return rng.getrandbits(64)


def _hazard_presets(r: float) -> tuple[tuple[str, dict[str, float]], ...]:
    return (("I_B", {"r": r}), ("II_B", {"r": r}), ("III_B", {"p": 0.417, "r": r}))


def _interactive(rng: random.Random) -> tuple[Call, ...]:
    pb = _dirichlet(rng, 5)
    return (
        Call("run", "run", pb, 50, "III_A", {"p": 0.5}),
        Call("closed-form", "closed-form", pb, 50, "III_A", {"p": 0.5}, fmt="json"),
        Call("run-verify", "run", pb, 50, "II_B", {"r": 0.166}, verify=True),
        Call("compare", "compare", pb, 50, presets=_hazard_presets(0.166), fmt="json"),
        Call("run-raw", "run", pb, 50, None, _RAW_README),
        Call("simulate", "simulate", pb, 10, "I_B", {"r": 0.166},
             walks=10_000, seed=_mc_seed(rng)),
        Call("absorb", "absorb", pb, 200, "I_B", {"r": 0.166},
             walks=10_000, seed=_mc_seed(rng), fmt="json"),
    )


def _long_horizon(rng: random.Random) -> tuple[Call, ...]:
    pb = _dirichlet(rng, 5)
    mixture = {"p": 0.417, "r": 1e-4}
    return (
        Call("run-verify", "run", pb, 5000, "III_B", mixture, verify=True),
        Call("closed-form", "closed-form", pb, 5000, "III_A", {"p": 0.5}),
        Call("compare", "compare", pb, 5000, presets=_hazard_presets(1e-4)),
        Call("run-raw", "run", pb, 20_000, None, _RAW_SLOW),
        Call("simulate", "simulate", pb, 5000, "III_B", mixture,
             walks=2000, seed=_mc_seed(rng)),
    )


def _wide_ring(rng: random.Random) -> tuple[Call, ...]:
    pb = _dirichlet(rng, 2000)
    return (
        Call("run-raw", "run", pb, 200, None, _RAW_SLOW),
        Call("compare", "compare", pb, 200, presets=_hazard_presets(1e-4)),
        Call("run-verify", "run", pb, 50, "III_B", {"p": 0.417, "r": 1e-4}, verify=True),
    )


def _many_walks(rng: random.Random) -> tuple[Call, ...]:
    pb = _dirichlet(rng, 5)
    return (
        Call("simulate", "simulate", pb, 10, "I_B", {"r": 0.166},
             walks=100_000, seed=_mc_seed(rng)),
        Call("absorb", "absorb", pb, 200, "I_B", {"r": 0.166},
             walks=100_000, seed=_mc_seed(rng), fmt="json"),
        Call("simulate-raw", "simulate", pb, 50, None, _RAW_README,
             walks=200_000, seed=_mc_seed(rng)),
    )


# name -> (why, nominal pass seconds, function returning the calls)
_WORKLOADS = {
    "interactive": (
        "README-sized calls (m=5, N<=200): interpreter start and imports dominate; "
        "control for engine changes",
        3.5, _interactive),
    "long-horizon": (
        "m=5, N=5000-20000, r=1e-4: Python per-quantum loops (propagate, O(N^2) closed "
        "form, fairness loop, Monte Carlo sweep) dominate",
        5.5, _long_horizon),
    "wide-ring": (
        "m=2000, N<=200: dense O(m^2) matrix build and matvec, O(m^2) closed-form "
        "gather and 2001-column rendering dominate",
        4.2, _wide_ring),
    "many-walks": (
        "m=5, 100k-200k walks: the per-walk Philox re-key loop dominates and the "
        "exact engines idle",
        4.3, _many_walks),
}

NAMES = tuple(_WORKLOADS)


def build(name: str, seed: int) -> Workload:
    """The workload's calls for a seed; the same seed always gives the same calls."""
    why, nominal, calls = _WORKLOADS[name]
    return Workload(name, why, nominal, calls(random.Random(f"{name}:{seed}")))
