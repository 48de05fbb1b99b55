"""Frozen Monte Carlo outputs: any change to the RNG path must keep these bytes.

Each case runs one CLI call in-process with ``--format json`` and pins the
sha256 of its output rows (and of ``absorb``'s ``summary``).  ``meta`` is left
out because it carries the package version.  The CLI cases cross walk-tile
boundaries of the sweep.  The API case pins counts and first hits at the
default tile budget and at budgets that cut walks into time blocks or pack a
few whole walks into a tile.  The long-horizon and API hashes were
recorded with the per-quantum sweep that the tiled one replaced.
"""

import hashlib
import json

import numpy as np
import pytest

from schedchain import (
    Distribution,
    SchemeParams,
    SimConfig,
    absorption_times,
    simulate,
)
from schedchain import montecarlo
from schedchain.cli import main

PB_ARG = "0.27,0.15,0.17,0.18,0.23"

GOLDEN = [
    pytest.param(
        ["simulate", "--scheme", "I_B", "--r", "0.166", "--pb", PB_ARG,
         "--quanta", "10", "--walks", "100000", "--seed", "42"],
        {"rows": "b81e28746cc64ba7736bba070d8cd7d2493b62500579bbe91a1ab74aa17a835f"},
        id="readme-simulate",
    ),
    pytest.param(
        ["absorb", "--scheme", "I_B", "--r", "0.166", "--pb", PB_ARG,
         "--quanta", "200", "--walks", "100000", "--seed", "42"],
        {
            "rows": "dc850b15eb092cd2fe9fecd9837ff4f14ed57fb071de709b8c0df1fe957a8610",
            "summary": "f7d6b3801cc17e56e52e838e829b715809663274d236aa94d990aad5f91d938b",
        },
        id="readme-absorb",
    ),
    pytest.param(
        ["simulate", "--p", "0.4", "--s", "0.3", "--q", "0.2", "--r", "0.1",
         "--pb", "0.1,0.2,0.3,0.4", "--quanta", "30", "--walks", "9000",
         "--seed", "18446744073709551557"],
        {"rows": "45cc490062cc1a6fe7450b7a62b6bed40cb03c0eb9377947daba9e86fb4758c8"},
        id="raw-retreat-simulate",
    ),
    pytest.param(
        ["simulate", "--scheme", "III_B", "--p", "0.417", "--r", "1e-4", "--pb", PB_ARG,
         "--quanta", "5000", "--walks", "2000", "--seed", "7"],
        {"rows": "fbc06bcd2cec5c039cd1f6d0df0c95e95fcad1ceee919aefb079ea39d033d377"},
        id="long-horizon-simulate",
    ),
]


def _sha256(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv, expected", GOLDEN)
def test_monte_carlo_output_matches_golden_hash(argv, expected, capsys):
    assert main(argv + ["--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert {key: _sha256(out[key]) for key in expected} == expected


# A raw q > 0 chain with mass on D at the start, some walks censored and a
# horizon that is not a multiple of 4 (Philox hands out draws in blocks of 4).
API_GOLDEN = {
    "counts": "0f3da890a2710179d2891d862f8148d58e86cff86c479f98d3524cf2e5825ae6",
    "first_hit": "97dd5aee267c21ee8c1a6c1f84f0cfecdd770342b51c4442906a0ca3f5fa55b2",
}


def _api_config() -> SimConfig:
    params = SchemeParams(0.35, 0.347, 0.3, 0.003, 5)
    init = Distribution(np.array([0.2, 0.1, 0.3, 0.15, 0.2, 0.05]))
    return SimConfig(params, init, n_quanta=999, n_walks=300, seed=2 ** 63 + 12345)


def _array_sha256(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<i8").tobytes()).hexdigest()


# 250: time blocks of 248 draws, one walk per tile; 4001: four whole walks
# per tile; None: the module's budget
@pytest.mark.parametrize("budget", [None, 250, 4001])
def test_api_arrays_match_golden_hash(budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(montecarlo, "_TILE_BUDGET", budget)
    config = _api_config()
    arrays = {
        "counts": simulate(config).counts,
        "first_hit": absorption_times(config).first_hit,
    }
    assert {key: _array_sha256(value) for key, value in arrays.items()} == API_GOLDEN
