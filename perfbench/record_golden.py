"""Re-record ``golden.json``: sha256 of every Monte Carlo call's rows at the default seed.

The golden hashes freeze the per-walk Philox streams.  Re-record them only
for a deliberate change of the Monte Carlo output contract or of the
workloads, never to make a failing benchmark pass.  Run from the repository
root::

    python3 perfbench/record_golden.py
"""

import json
import sys
from pathlib import Path

import workloads
from checks import golden_digest
from run import GOLDEN_FILE, _child_env, spawn


def main() -> int:
    env = _child_env(Path.cwd() / "src")
    golden = {}
    for name in workloads.NAMES:
        for call in workloads.build(name, workloads.DEFAULT_SEED).calls:
            if not call.monte_carlo:
                continue
            done = spawn(["-m", "schedchain", *call.argv()], env)
            if done.returncode != 0:
                print(f"{name}/{call.name} exited {done.returncode}", file=sys.stderr)
                return 1
            golden[f"{name}/{call.name}"] = golden_digest(call, done.stdout.decode())
    GOLDEN_FILE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} hashes to {GOLDEN_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
