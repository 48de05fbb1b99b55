"""End-to-end benchmark of the ``schedchain`` command line.

Run from the repository root::

    python3 perfbench/run.py --workload interactive --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

With ``--trace 0`` one benchmark process runs the workload as a closed loop with
one client: it spawns ``python -m schedchain ...``, waits for it to exit,
checks its output, then spawns the next call.  Timings are spawn-to-exit wall
times of these untraced children, scaled to reference host speed by a probe
loop run between calls (see ``host_probe``); output checking happens between
calls and is not timed.  With ``--trace 1`` the same argument lists go through
``schedchain.cli.main`` in-process, with spans around each layer, to give
per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results (with
sample counts, per-call timings and the environment) go to
``.perfbench-results/`` in the current directory; traced runs write their
spans there to a file of their own.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.metadata
import io
import json
import math
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import workloads
from checks import Checker
from tracing import Tracer, import_times, layer_metrics

RESULTS_DIR = ".perfbench-results"
GOLDEN_FILE = Path(__file__).with_name("golden.json")

#: ``-X importtime`` runs whose medians give the ``import.*`` layer metrics.
IMPORTTIME_SAMPLES = 3
#: ``call_tail_s`` is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10
#: Iterations of the host-speed probe loop (about 30 ms of pure Python on one core).
PROBE_LOOPS = 400_000
#: Probe time that counts as reference host speed: the probe's typical time on
#: an idle core of the 2-vCPU VM the bounds in ``BENCHMARK.json`` were set on.
REFERENCE_PROBE_S = 0.030
#: A run stops starting passes once it has measured this many times ``--seconds``.
OVERRUN = 1.2

_IMPORT = "import schedchain.cli"

UNITS = {
    "setup_s": "s", "pass_s": "s", "call_p50_s": "s", "call_tail_s": "s", "peak_rss_mb": "MB",
}


def _layer_unit(name: str) -> str:
    if name.endswith((".calls", ".failed")):
        return "count"
    if name.endswith("bytes_out"):
        return "bytes"
    if name.endswith("cells_per_s"):
        return "cells/s"
    if name.endswith("draws_per_s"):
        return "draws/s"
    if name.endswith(("density", "ratio")):
        return "ratio"
    return "s"


@dataclass
class Spawned:
    wall_s: float
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


def _drain(proc: subprocess.Popen) -> tuple[bytes, bytes]:
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def host_probe() -> float:
    """Wall time of a fixed pure-Python loop in this process: the host's speed now.

    The cores of a shared host run 20-30% slower for seconds at a time when
    other tenants are busy, and a child's wall time moves with them.  The
    probe runs between children, so the two probes around a call see the
    speed the call ran at."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def spawn(args: list[str], env: dict) -> Spawned:
    """Run ``python <args>`` to completion; wall time, exit code, output and peak RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    try:
        stdout, stderr = _drain(proc)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawned(wall, proc.returncode, stdout, stderr, usage.ru_maxrss)


class Tally:
    """Attempted and failed calls, with the reason of each failure."""

    def __init__(self, checker: Checker):
        self.checker = checker
        self.attempted = 0
        self.failures: list[dict] = []

    def record(self, name: str, returncode: int, stdout: bytes, stderr: bytes) -> bool:
        """Count one call; True when it exited 0 with a correct output."""
        self.attempted += 1
        if returncode != 0:
            problem = f"exit {returncode}: {stderr.decode(errors='replace')[-300:]}"
        else:
            problem = self.checker.check(name, stdout)
        if problem is not None:
            self.failures.append({"call": name, "problem": problem})
        return problem is None


def tail(samples: list[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest nearest-rank percentile that still has
    ``TAIL_BEYOND`` samples above it, or the maximum when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "schedchain").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _blas_threads() -> int | None:
    """Size of the OpenBLAS pool numpy loads with this environment (not pinned)."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
             "openblas_get_num_threads")
    for lib in sorted(libs.glob("*openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for name in names:
            if hasattr(handle, name):
                getter = getattr(handle, name)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment(root: Path, seed: int) -> dict:
    return {
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "workload_seed": seed,
    }


def _checker(workload: workloads.Workload, seed: int) -> Checker:
    golden = None
    if seed == workloads.DEFAULT_SEED:
        recorded = json.loads(GOLDEN_FILE.read_text())
        golden = {
            call.name: recorded.get(f"{workload.name}/{call.name}")
            for call in workload.calls if call.monte_carlo
        }
    return Checker(workload.calls, golden)


def _alter_one_digit(text: str) -> str:
    """Change the leading digit of the largest value in the first row of a CSV output."""
    lines = text.split("\n")
    cells = lines[1].split(",")
    index = max(range(1, len(cells)), key=lambda i: abs(float(cells[i])))
    cell = cells[index]
    pos = next(i for i, ch in enumerate(cell) if ch in "123456789")
    cells[index] = cell[:pos] + str((int(cell[pos]) + 1) % 10) + cell[pos + 1:]
    lines[1] = ",".join(cells)
    return "\n".join(lines)


def smoke(env: dict, sample: workloads.Call, stdout: bytes | None, checker: Checker) -> dict:
    """Show that the gates fire: a correct CSV output with one changed digit, and a
    call that exits non-zero, must each be counted as failed.  The first probe is
    skipped (None) when the sample call never produced a correct output."""
    probe = Tally(checker)
    altered_caught = None
    if stdout is not None:
        altered = _alter_one_digit(stdout.decode()).encode()
        altered_caught = not probe.record(sample.name, 0, altered, b"")
    bad = spawn(["-m", "schedchain", "run", "--scheme", "I_A", "--p", "0.5",
                 "--pb", ",".join(map(repr, sample.pb))], env)
    exit_caught = not probe.record(sample.name, bad.returncode, bad.stdout, bad.stderr)
    return {"altered_output_failed": altered_caught,
            "nonzero_exit_failed": exit_caught and bad.returncode != 0}


def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def _import_location(env: dict) -> str:
    found = spawn(["-c", f"{_IMPORT}; print(schedchain.cli.__file__)"], env)
    if found.returncode != 0:
        raise RuntimeError(f"cannot import schedchain.cli: {found.stderr.decode()[-500:]}")
    return found.stdout.decode().strip()


def measure(workload: workloads.Workload, seed: int, seconds: int, env: dict) -> dict:
    """Untraced closed loop: set-up timing, then whole passes over the call list.

    Every wall time is scaled to reference host speed by the probes on either
    side of it: ``wall * REFERENCE_PROBE_S / mean(probe before, probe after)``.
    The raw wall times and the probes are kept in the result file."""
    checker = _checker(workload, seed)
    min_passes = math.ceil((TAIL_BEYOND + 1) / len(workload.calls))
    passes = max(min_passes, round(seconds / workload.nominal_pass_s))
    tally = Tally(checker)
    probes = [host_probe()]
    raw_walls: list[float] = []

    def timed(args: list[str]) -> tuple[Spawned, float]:
        done = spawn(args, env)
        probes.append(host_probe())
        raw_walls.append(done.wall_s)
        return done, done.wall_s * REFERENCE_PROBE_S / ((probes[-2] + probes[-1]) / 2)

    pass_times, walls, rss_kb = [], [], []
    per_call: dict[str, list[float]] = {call.name: [] for call in workload.calls}
    sample = next(call for call in workload.calls if call.fmt == "csv")
    sample_output = None
    # setup_s samples are taken before every pass and after the last one, so
    # their median covers the whole run rather than its first seconds.
    setup = []
    deadline = time.perf_counter() + OVERRUN * seconds
    for done_passes in range(passes):
        if done_passes >= min_passes and time.perf_counter() > deadline:
            break
        setup.append(timed(["-c", _IMPORT])[1])
        total = 0.0
        for call in workload.calls:
            done, wall = timed(["-m", "schedchain", *call.argv()])
            if tally.record(call.name, done.returncode, done.stdout, done.stderr) \
                    and call is sample:
                sample_output = done.stdout
            total += wall
            walls.append(wall)
            rss_kb.append(done.maxrss_kb)
            per_call[call.name].append(wall)
        pass_times.append(total)
    setup.append(timed(["-c", _IMPORT])[1])

    gates = smoke(env, sample, sample_output, checker)
    percentile, tail_value = tail(walls)
    samples = {
        "setup_s": (statistics.median(setup), len(setup)),
        "pass_s": (statistics.median(pass_times), len(pass_times)),
        "call_p50_s": (statistics.median(walls), len(walls)),
        "call_tail_s": (tail_value, len(walls)),
        "peak_rss_mb": (max(rss_kb) / 1024.0, len(rss_kb)),
    }
    return {
        "metrics": {
            name: {"value": value, "unit": UNITS[name], "samples": n}
            for name, (value, n) in samples.items()
        },
        "call_tail_percentile": percentile,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "error_rate": len(tally.failures) / tally.attempted,
        "failures": tally.failures,
        "smoke": gates,
        "mc_max_abs_z": checker.mc_z,
        "passes": len(pass_times),
        "host_probe_median_s": statistics.median(probes),
        "raw": {"setup_s": setup, "pass_s": pass_times, "call_s": per_call,
                "maxrss_kb": rss_kb, "unscaled_wall_s": raw_walls, "probe_s": probes},
    }


def _in_process(main, argv: list[str]) -> tuple[float, int, bytes, bytes]:
    """Call ``main(argv)`` like the interpreter would: wall time, exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught error is this call's failure, not the run's
            traceback.print_exc()
            code = 1
    return time.perf_counter() - start, code, out.getvalue().encode(), err.getvalue().encode()


def trace(workload: workloads.Workload, seed: int, seconds: int, env: dict,
          src: Path) -> dict:
    """Traced in-process passes (after one untimed warm-up), alternating with
    untraced in-process passes whose difference is the tracing overhead."""
    checker = _checker(workload, seed)
    imports = [import_times(spawn(["-X", "importtime", "-c", _IMPORT], env).stderr.decode())
               for _ in range(IMPORTTIME_SAMPLES)]

    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cli = importlib.import_module("schedchain.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"schedchain.cli imported from {cli.__file__}, not from {src}")
    modules = {"cli": cli, "analysis": importlib.import_module("schedchain.analysis")}
    argvs = [(call.name, call.argv()) for call in workload.calls]
    tally = Tally(checker)

    def one_pass(tracer: Tracer | None, counted: bool) -> tuple[float, int]:
        total, out_bytes = 0.0, 0
        for index, (name, argv) in enumerate(argvs):
            if tracer is None:
                wall, code, stdout, stderr = _in_process(cli.main, argv)
            else:
                tracer.call = index
                with tracer.installed(modules):
                    wall, code, stdout, stderr = _in_process(
                        tracer.span("cli.main", cli.main), argv)
            if counted:
                tally.record(name, code, stdout, stderr)
            total += wall
            out_bytes += len(stdout)
        return total, out_bytes

    one_pass(None, counted=False)
    traced_s, plain_s, per_pass, spans = [], [], [], []
    start = time.perf_counter()
    while not traced_s or time.perf_counter() - start < seconds:
        tracer = Tracer()
        wall, out_bytes = one_pass(tracer, counted=True)
        traced_s.append(wall)
        per_pass.append({**layer_metrics(tracer.spans), "cli.bytes_out": out_bytes})
        spans.append(tracer.spans)
        plain_s.append(one_pass(None, counted=True)[0])

    layers = {name: (statistics.median(m[name] for m in imports), len(imports))
              for name in imports[0]}
    # Counts repeat exactly from pass to pass; median_low keeps them whole numbers.
    layers.update({
        name: ((statistics.median_low if _layer_unit(name) in ("count", "bytes")
                else statistics.median)(p[name] for p in per_pass), len(per_pass))
        for name in per_pass[0]
    })
    layers["trace.overhead_s"] = (
        statistics.median(traced_s) - statistics.median(plain_s), len(traced_s))
    return {
        "metrics": {
            name: {"value": value, "unit": _layer_unit(name), "samples": n}
            for name, (value, n) in layers.items()
        },
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "failures": tally.failures,
        "mc_max_abs_z": checker.mc_z,
        "traced_pass_s": traced_s,
        "untraced_pass_s": plain_s,
        "spans": [
            [{**span, "start": span["start"] - p[0]["start"], "end": span["end"] - p[0]["start"]}
             for span in p]
            for p in spans
        ],
    }


def _print_block(workload: str, seed: int, result: dict, traced: bool) -> None:
    print(f"== {workload} seed={seed} attempted={result['attempted']} "
          f"failed={result['failed']} error_rate={result['failed'] / result['attempted']:g}")
    for name, metric in result["metrics"].items():
        extra = ""
        if name == "call_tail_s":
            extra = f" (p{result['call_tail_percentile']:.1f})"
        print(f"   {name:<40} {metric['value']:>14.6g} {metric['unit']:<8} "
              f"n={metric['samples']}{extra}")
    for failure in result["failures"][:5]:
        print(f"   FAILED {failure['call']}: {failure['problem']}")
    if not traced:
        print(f"   host probe median {result['host_probe_median_s']:.4f} s "
              f"(reference {REFERENCE_PROBE_S} s), {result['passes']} passes")
        print(f"   smoke: {result['smoke']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "schedchain" / "cli.py").is_file():
        print("perfbench: run from the repository root (no src/schedchain here)", file=sys.stderr)
        return 2
    env = _child_env(src)
    location = _import_location(env)
    if not Path(location).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: schedchain.cli imports from {location}, not from {src}",
              file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    info = environment(root, args.seed)
    out_dir = root / RESULTS_DIR
    out_dir.mkdir(exist_ok=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        workload = workloads.build(name, args.seed)
        if args.trace:
            result = trace(workload, args.seed, args.seconds, env, src)
            path = out_dir / f"{name}-seed{args.seed}-trace.json"
        else:
            result = measure(workload, args.seed, args.seconds, env)
            path = out_dir / f"{name}-seed{args.seed}.json"
            if False in result["smoke"].values():
                print(f"perfbench: correctness gates did not fire: {result['smoke']}",
                      file=sys.stderr)
                return 1
        path.write_text(json.dumps({"workload": name, "why": workload.why,
                                    "environment": info, **result}, indent=1) + "\n")
        _print_block(name, args.seed, result, bool(args.trace))
        prefix = "" if len(names) == 1 else f"{name}."
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({
            prefix + metric: {"value": entry["value"], "unit": entry["unit"]}
            for metric, entry in result["metrics"].items()
        })
    summary["correct"] = summary["failed"] == 0
    print(f"   environment: {json.dumps(info)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
