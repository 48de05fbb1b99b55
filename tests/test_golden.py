"""Frozen Monte Carlo outputs: any change to the RNG path must keep these bytes.

Each case runs one CLI call in-process with ``--format json`` and pins the
sha256 of its output rows (and of ``absorb``'s ``summary``).  ``meta`` is left
out because it carries the package version.  Every case uses more than 8192
walks, so the walk-chunk boundary of the sweep is crossed.
"""

import hashlib
import json

import pytest

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
]


def _sha256(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv, expected", GOLDEN)
def test_monte_carlo_output_matches_golden_hash(argv, expected, capsys):
    assert main(argv + ["--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert {key: _sha256(out[key]) for key in expected} == expected
