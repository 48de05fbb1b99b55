"""Tests for the command-line front end: parsing, outputs, exit codes."""

import csv
import gc
import io
import json
import os
import resource
import subprocess
import sys

import pytest

import schedchain.cli as cli
from schedchain import ConstraintError, DimensionError, ParameterError
from schedchain.cli import RunSpec, execute, main, parse_args, render_csv

PB_ARG = "0.27,0.15,0.17,0.18,0.23"
PB5 = (0.27, 0.15, 0.17, 0.18, 0.23)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# argument parsing


def test_parse_args_mixture_run():
    spec = parse_args(
        ["run", "--scheme", "III_A", "--p", "0.5", "--pb", PB_ARG, "--quanta", "50"]
    )
    assert spec.command == "run"
    assert spec.scheme == "III_A"
    assert spec.free == {"p": 0.5}
    assert spec.pb == PB5
    assert spec.quanta == 50
    assert spec.fmt == "csv"


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--scheme", "I_A", "--pb", "1.0", "--quanta", "5"],   # m == 1
        ["run", "--scheme", "I_A", "--pb", "0.5,0.4"],                # mass != 1
        ["run", "--scheme", "NOPE", "--pb", PB_ARG],                  # unknown scheme
        ["run", "--scheme", "I_A", "--pb", "a,b"],                    # not numbers
        ["simulate", "--scheme", "I_A", "--pb", PB_ARG, "--walks", "0"],
        ["simulate", "--scheme", "I_A", "--pb", PB_ARG, "--seed", "-3"],
        ["compare", "--preset", "I_B:r=0.2", "--pb", PB_ARG, "--r", "0.1"],
        [],
        ["run", "--scheme", "I_A", "--pb", "nan,1"],                  # NaN mass
        ["run", "--scheme", "I_A", "--pb", "nan,0.5,0.5"],
        ["compare", "--preset", "I_B:r=0.1,r=0.5", "--pb", PB_ARG],   # r twice
        ["run", "--scheme", "I_A", "--pb=-0.5,1.5"],                  # negative mass
        ["compare", "--preset", "NOPE", "--pb", PB_ARG],              # unknown scheme
        ["compare", "--preset", "I_B:r", "--pb", PB_ARG],             # no value
        ["compare", "--preset", "I_B:r=x", "--pb", PB_ARG],           # not a number
        ["run", "--scheme", "IV", "--m", "1"],                        # m == 1
        ["run", "--scheme", "I_A", "--pb", "0.5,0.5", "--m", "3"],    # m != len(pb)
        ["run", "--scheme", "I_A", "--pb", PB_ARG, "--quanta", "-1"],
        ["simulate", "--scheme", "I_A", "--pb", PB_ARG, "--quanta", "0"],
        ["compare", "--preset", "I_B:r=0.2", "--pb", PB_ARG, "--quanta", "0"],
        ["compare", "--preset", "I_B:r=0.2", "--pb", PB_ARG, "--q", "2"],  # not --quanta
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    # argparse exits 2 on text that does not parse; main returns 2 when an
    # engine's constructor refuses a parsed value
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""


def test_value_errors_print_the_engine_message_once(capsys):
    code, out, err = run_cli(capsys, "run", "--scheme", "I_A", "--pb", "1.0")
    assert (code, out) == (2, "")
    assert err == "schedchain: error: need two process slots plus deadlock, got 1 process slot\n"


def test_meta_and_argv_get_the_same_message_for_a_bad_value(capsys):
    argv = ["simulate", "--scheme", "I_B", "--r", "0.1", "--pb", PB_ARG, "--quanta", "3"]
    code, out, _ = run_cli(capsys, *argv, "--walks", "10", "--format", "json")
    assert code == 0
    meta = json.loads(out)["meta"]
    code, out, err = run_cli(capsys, *argv, "--walks", "0")
    assert (code, out) == (2, "")
    with pytest.raises(ParameterError) as exc:
        execute(RunSpec.from_meta({**meta, "walks": 0}))
    assert err == f"schedchain: error: {exc.value}\n"


def test_help_promises_only_what_the_parser_accepts():
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command")
    for command, sub in commands.choices.items():
        help_text = " ".join(sub.format_help().split())  # unwrapped
        scheme = next((a for a in sub._actions if a.dest == "scheme"), None)
        moves = [f"--{name}" for name in ("p", "s", "q", "r") if f"--{name} " in help_text]
        if command == "compare":
            assert scheme is None and moves == [], help_text
            continue
        assert moves == ["--p", "--s", "--q", "--r"], command
        # "raw without --scheme" only where --scheme may be left out
        assert ("raw without --scheme" in help_text) == (not scheme.required), command
        argv = [command, "--scheme", "III_A", "--p", "0.5", "--pb", PB_ARG, "--quanta", "3"]
        assert parse_args(argv).free == {"p": 0.5}
        if not scheme.required:
            raw = [command, "--p", "0.5", "--s", "0.5", "--q", "0", "--r", "0", "--pb", PB_ARG]
            assert parse_args(raw).free == {"p": 0.5, "s": 0.5, "q": 0.0, "r": 0.0}


def test_constraint_violation_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "run", "--scheme", "II_A", "--s", "0.3", "--pb", PB_ARG
    )
    assert code == 3
    assert "constraint" in err


@pytest.mark.parametrize(
    "token, name", [("III_B:p=0.417,s=0.5,R=0.1", "R"), ("I_B:r=0.1,x=0.9", "x")]
)
def test_unknown_preset_parameter_exits_3_and_names_it(capsys, token, name):
    code, out, err = run_cli(capsys, "compare", "--preset", token, "--pb", PB_ARG)
    assert (code, out) == (3, "")
    assert err == f"schedchain: constraint violation: unknown move probability {name!r}\n"


@pytest.mark.parametrize(
    "argv, exc",
    [
        (["run", "--scheme", "I_B", "--r", "0.1", "--pb", PB_ARG], ConstraintError),
        (["run", "--p", "0.5", "--s", "0.5", "--pb", PB_ARG], ParameterError),
    ],
    ids=["preset", "raw"],
)
def test_meta_with_an_unknown_parameter_gets_the_argv_message(capsys, argv, exc):
    code, out, _ = run_cli(capsys, *argv, "--quanta", "2", "--format", "json")
    assert code == 0
    meta = {**json.loads(out)["meta"], "free": {"r": 0.1, "typo": 0.3}}
    with pytest.raises(exc) as caught:
        execute(RunSpec.from_meta(meta))
    _, _, err = run_cli(capsys, "compare", "--preset", "I_B:r=0.1,typo=0.3", "--pb", PB_ARG)
    assert err == f"schedchain: constraint violation: {caught.value}\n"


@pytest.mark.parametrize("value", [True, "0.1"], ids=["bool", "text"])
def test_meta_values_that_are_not_real_numbers_are_refused(value):
    pb = {"pb": list(PB5), "quanta": 2}
    for meta, exc in [
        ({"command": "run", "scheme": "I_B", "free": {"r": value}}, ConstraintError),
        ({"command": "run", "free": {"s": 0.9, "r": value}}, ParameterError),
        ({"command": "compare", "presets": [{"scheme": "I_B", "free": {"r": value}}]},
         ConstraintError),
    ]:
        with pytest.raises(exc, match=f"r must be a real number, got {value!r}"):
            execute(RunSpec.from_meta({**meta, **pb}))


@pytest.mark.parametrize(
    "spec, argv",
    [
        (
            RunSpec(command="run", free={"s": 0.5, "p": 0.5}, pb=PB5, quanta=2),
            ["run", "--p", "0.5", "--s", "0.5", "--pb", PB_ARG, "--quanta", "2"],
        ),
        (
            RunSpec(command="compare", presets=(("III_B", {"r": 0.166, "p": 0.417}),), pb=PB5),
            ["compare", "--preset", "III_B:p=0.417,r=0.166", "--pb", PB_ARG],
        ),
    ],
    ids=["raw", "compare"],
)
def test_hand_built_spec_emits_the_meta_of_the_same_argv(spec, argv):
    assert cli.render_json(execute(spec)) == cli.render_json(execute(parse_args(argv)))


def test_missing_pb_for_scheme_exits_2(capsys):
    code, _, err = run_cli(capsys, "run", "--scheme", "I_A", "--quanta", "5")
    assert code == 2
    assert "pb" in err
    code, _, err = run_cli(capsys, "run", "--p", "0.5", "--s", "0.5")  # a raw run
    assert code == 2
    assert "--pb" in err


# specs that parse_args never builds, as RunSpec or a hand-edited meta can
@pytest.mark.parametrize(
    "spec, exc, match",
    [
        (RunSpec(command="nope"), ParameterError, "unknown command 'nope'"),
        (
            RunSpec(command="run", free={"p": 0.5, "s": 0.5}, pb=(0.5, 0.5), m=3),
            DimensionError,
            "m=3",
        ),
        (RunSpec(command="run", scheme="NOPE", pb=(0.5, 0.5)), ParameterError, "'NOPE'"),
        (
            RunSpec(command="compare", presets=(("NOPE", {}),), pb=(0.5, 0.5)),
            ParameterError,
            "'NOPE'",
        ),
    ],
    ids=["unknown-command", "pb-and-m-disagree", "unknown-scheme", "unknown-preset-scheme"],
)
def test_unknown_command_is_a_parameter_error(spec, exc, match):
    with pytest.raises(exc, match=match):
        execute(spec)


# ---------------------------------------------------------------------------
# trajectory outputs


def test_run_fifo_rows_are_constant(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--scheme", "I_A", "--pb", PB_ARG, "--quanta", "2"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["quantum", "P1", "P2", "P3", "P4", "P5", "D"]
    assert len(rows) == 3
    assert rows[0][1:] == rows[1][1:] == rows[2][1:]
    assert [r[0] for r in rows] == ["0", "1", "2"]


@pytest.mark.parametrize("command", ["run", "closed-form"])
def test_negative_zero_pb_entry_prints_as_zero(capsys, command):
    code, out, _ = run_cli(
        capsys, command, "--scheme", "I_B", "--r", "0.5", "--pb=-0,1", "--quanta", "2"
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert [row[1] for row in rows] == ["0", "0", "0"]


def test_run_pinned_start_cycles_unit_mass(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--scheme", "IV", "--m", "5", "--quanta", "5"
    )
    assert code == 0
    _, rows = parse_csv(out)
    for n, row in enumerate(rows):
        values = [float(v) for v in row[1:]]
        expected = [0.0] * 6
        expected[n % 5] = 1.0
        assert values == expected


def test_every_csv_row_sums_to_one(capsys):
    for argv in (
        ["run", "--scheme", "III_B", "--p", "0.417", "--r", "0.166", "--pb", PB_ARG],
        ["closed-form", "--scheme", "II_B", "--r", "0.166", "--pb", PB_ARG],
        ["simulate", "--scheme", "I_B", "--r", "0.166", "--pb", PB_ARG,
         "--quanta", "10", "--walks", "5000", "--seed", "9"],
        ["run", "--q", "0.4", "--s", "0.6", "--pb", PB_ARG],  # raw parameters
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            assert abs(sum(float(v) for v in row[1:]) - 1.0) <= 1e-9


def test_closed_form_requires_scheme():
    with pytest.raises(SystemExit) as exc:
        parse_args(["closed-form", "--pb", PB_ARG])
    assert exc.value.code == 2


def test_csv_uses_lf_and_significant_digits(tmp_path):
    spec = parse_args(
        ["run", "--scheme", "I_B", "--r", "0.166", "--pb", PB_ARG, "--quanta", "3"]
    )
    text = render_csv(execute(spec))
    assert "\r" not in text
    assert text.endswith("\n")
    _, rows = parse_csv(text)
    assert rows[1][1] == "0.22518"
    for row in rows:
        for cell in row[1:]:
            # 12 significant digits, no locale artifacts, stable reformatting
            assert cell == format(float(cell), ".12g")


# ---------------------------------------------------------------------------
# determinism


def test_simulate_is_byte_identical_across_runs(capsys):
    argv = [
        "simulate", "--scheme", "I_B", "--r", "0.166", "--pb", PB_ARG,
        "--quanta", "10", "--walks", "20000", "--seed", "42",
    ]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize(
    "argv",
    [
        [
            "simulate", "--scheme", "II_B", "--p", "0.834", "--pb", PB_ARG,
            "--quanta", "8", "--walks", "4000", "--seed", "77",
        ],
        [
            "compare", "--preset", "I_B:r=0.166", "--preset", "II_B:r=0.166",
            "--preset", "III_B:p=0.417,r=0.166", "--pb", PB_ARG, "--quanta", "50",
        ],
        ["compare", "--preset", "IV", "--m", "4"],
        [
            "absorb", "--scheme", "I_B", "--r", "0.166", "--pb", PB_ARG,
            "--quanta", "200", "--walks", "2000", "--seed", "42",
        ],
        ["closed-form", "--scheme", "IV", "--m", "3"],
        [
            "simulate", "--p", "0.4", "--s", "0.3", "--q", "0.2", "--r", "0.1",
            "--pb", "0.25,0.25,0.25,0.25", "--quanta", "9", "--walks", "500",
            "--seed", str(2 ** 64 - 59),
        ],
    ],
    ids=["simulate", "compare", "compare-IV", "absorb", "closed-form-IV", "raw-simulate"],
)
def test_json_meta_round_trips_byte_identically(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    meta = json.loads(out)["meta"]
    respec = RunSpec.from_meta(meta)
    payload = execute(respec)
    assert cli.render_json(payload) == out


# ---------------------------------------------------------------------------
# compare and absorb


def test_compare_ranks_mixture_first(capsys):
    code, out, _ = run_cli(
        capsys,
        "compare",
        "--preset", "I_B:r=0.166",
        "--preset", "II_B:r=0.166",
        "--preset", "III_B:p=0.417,r=0.166",
        "--pb", PB_ARG,
        "--quanta", "50",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["ranking"][0] == "III_B"
    assert {entry["scheme"] for entry in report["schemes"]} == {"I_B", "II_B", "III_B"}
    by_scheme = {entry["scheme"]: entry for entry in report["schemes"]}
    assert by_scheme["I_B"]["expected_absorption"] == pytest.approx(1 / 0.166)


def test_compare_csv_is_long_form(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--preset", "I_A", "--pb", PB_ARG, "--quanta", "3"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["scheme", "quantum", "survival", "fairness", "efficiency_index"]
    assert len(rows) == 4
    assert all(row[0] == "I_A" for row in rows)


def test_absorb_summary_and_histogram(capsys):
    code, out, _ = run_cli(
        capsys,
        "absorb", "--scheme", "I_B", "--r", "0.5", "--pb", PB_ARG,
        "--quanta", "60", "--walks", "3000", "--seed", "4", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    summary = doc["summary"]
    assert summary["n_walks"] == 3000
    hit_total = sum(row[1] for row in doc["rows"][:-1])
    assert hit_total + summary["n_censored"] == 3000
    assert summary["mean_first_hit"] == pytest.approx(2.0, rel=0.1)  # 1/r, r = 0.5
    censored_row = doc["rows"][-1]
    assert censored_row == [-1, summary["n_censored"]]


# ---------------------------------------------------------------------------
# verification and failure paths


def test_verify_passes_for_preset(capsys):
    code, out, _ = run_cli(
        capsys,
        "run", "--scheme", "III_A", "--p", "0.5", "--pb", PB_ARG,
        "--quanta", "40", "--verify",
    )
    assert code == 0
    assert out  # output still emitted


RAW_RETREAT = ("run", "--p", "0.4", "--s", "0.3", "--q", "0.2", "--r", "0.1",
               "--pb", "0.25,0.25,0.25,0.25")


def test_verify_passes_for_raw_parameters(capsys):
    code, out, err = run_cli(capsys, *RAW_RETREAT, "--verify")
    assert code == 0
    assert err == ""
    # --verify only checks: the table is the one printed without it
    assert out == run_cli(capsys, *RAW_RETREAT)[1]


@pytest.mark.parametrize("skew", [1e-6, float("nan")], ids=["offset", "nan"])
@pytest.mark.parametrize(
    "argv",
    [("run", "--scheme", "I_A", "--pb", PB_ARG), RAW_RETREAT],
    ids=["preset", "raw"],
)
def test_verify_detects_divergence(capsys, monkeypatch, argv, skew):
    # presets and raw parameters are checked against the same closed form
    real = cli.closed_form_table

    def skewed(params, pb, ns):
        table = real(params, pb, ns)
        table[1:, 0] += skew
        table[1:, 1] -= skew
        return table

    monkeypatch.setattr(cli, "closed_form_table", skewed)
    code, out, err = run_cli(capsys, *argv, "--quanta", "3", "--verify")
    assert code == 1
    assert out == ""
    assert "diverge" in err


_PB2 = ["--pb", "0.5,0.5"]


@pytest.mark.parametrize(
    "argv",
    [
        # 1e15 quanta need petabyte arrays, past the 47-bit address space:
        # the allocation fails at once, before any memory is touched
        ["simulate", "--scheme", "I_B", "--r", "0.166", "--walks", "1",
         *_PB2, "--quanta", str(10**15)],
        ["closed-form", "--scheme", "III_A", "--p", "0.5", *_PB2, "--quanta", str(10**15)],
        ["run", "--scheme", "III_A", "--p", "0.5", *_PB2, "--quanta", str(10**15)],
        # sizes whose arrays have more bytes than numpy can index at all
        ["run", "--scheme", "III_A", "--p", "0.5", *_PB2, "--quanta", str(10**20)],
        ["closed-form", "--scheme", "III_A", "--p", "0.5", *_PB2, "--quanta", str(10**20)],
        ["compare", "--preset", "III_A:p=0.5", *_PB2, "--quanta", str(10**20)],
        ["run", "--scheme", "III_A", "--p", "0.5", *_PB2, "--quanta", str(2**60)],
        ["simulate", "--scheme", "I_B", "--r", "0.166", *_PB2, "--walks", str(10**20)],
        ["run", "--scheme", "IV", "--m", str(10**20)],
    ],
)
def test_unallocatable_horizon_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("schedchain: error: ")


def test_absorb_sizes_its_histogram_before_the_sweep(capsys, monkeypatch):
    def sweep(config):
        raise AssertionError("swept a horizon whose histogram cannot be allocated")

    monkeypatch.setattr(cli, "absorption_times", sweep)
    code, out, err = run_cli(
        capsys, "absorb", "--scheme", "I_B", "--r", "0.5", *_PB2,
        "--quanta", str(10**15), "--walks", "1",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("schedchain: error: ")


def test_wide_ring_run_stays_in_bounded_memory(tmp_path):
    # The dense (m + 1)² matrix of this ring would take 80 GB.  The child's
    # address space is capped at 2 GB, so any attempt fails whatever the
    # host's overcommit policy; the output rows themselves need about 0.6 GB.
    cap = 2 * 2**30
    target = tmp_path / "iv.csv"
    child = subprocess.run(
        [sys.executable, "-m", "schedchain", "run", "--scheme", "IV", "--m", "100000",
         "--quanta", "100", "--output", str(target)],
        capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert child.returncode == 0, child.stderr
    lines = target.read_text().splitlines()
    assert len(lines) == 102
    for n in (0, 1, 100):  # round robin from P1: all mass on slot n + 1
        cells = lines[n + 1].split(",")
        assert len(cells) == 100_002 and cells[0] == str(n) and cells[n + 1] == "1"
        assert cells[1:].count("0") == 100_000


def test_output_file_and_io_failure(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, _, _ = run_cli(
        capsys,
        "run", "--scheme", "I_A", "--pb", PB_ARG, "--quanta", "2",
        "--output", str(target),
    )
    assert code == 0
    assert target.read_text().startswith("quantum,P1")

    code, _, err = run_cli(
        capsys,
        "run", "--scheme", "I_A", "--pb", PB_ARG,
        "--output", str(tmp_path / "missing" / "out.csv"),
    )
    assert code == 4
    assert "cannot write" in err


# ---------------------------------------------------------------------------
# start-up cost


_MC_ARGS = ["--scheme", "I_B", "--r", "0.2", "--pb", "0.5,0.5", "--quanta", "3", "--walks", "20"]


@pytest.mark.parametrize(
    "argv, loaded, unloaded",
    [
        pytest.param(["run", "--scheme", "I_B", "--r", "0.1", "--pb", "0.5,0.5", "--quanta", "2"],
                     [], ["numpy.random", "numpy.fft"], id="run"),
        pytest.param(["simulate", *_MC_ARGS], ["schedchain.montecarlo", "numpy.random"],
                     ["schedchain.analysis"], id="simulate"),
        pytest.param(["absorb", *_MC_ARGS], ["schedchain.montecarlo", "numpy.random"],
                     ["schedchain.analysis"], id="absorb"),
        pytest.param(["compare", "--preset", "I_B:r=0.2", "--pb", "0.5,0.5", "--quanta", "3"],
                     ["schedchain.analysis"], ["schedchain.montecarlo", "numpy.random"],
                     id="compare"),
        pytest.param(["closed-form", "--scheme", "I_B", "--r", "0.2", "--pb", "0.5,0.5",
                      "--quanta", "3", "--format", "json"], ["json"], [], id="closed-form-json"),
        pytest.param(["run", "--scheme", "III_A", "--p", "0.5", "--pb", "0.5,0.5", "--quanta", "3",
                      "--verify"], ["numpy.fft"], [], id="run-verify-mixture"),
    ],
)
def test_cli_import_leaves_scipy_unloaded(argv, loaded, unloaded):
    # importing the CLI loads neither scipy nor the engines and the JSON
    # encoder a subcommand may never use; a call loads the modules its
    # subcommand runs and not the others (a run without --verify loads
    # neither numpy.random nor numpy.fft)
    watched = sorted({*loaded, *unloaded})
    code = (
        "import sys, schedchain.cli\n"
        "print(sorted({'scipy', 'schedchain.montecarlo', 'schedchain.analysis', 'json'}"
        " & set(sys.modules)))\n"
        f"assert schedchain.cli.main({argv!r} + ['--output', sys.argv[1]]) == 0\n"
        f"print(sorted(set({watched!r}) & set(sys.modules)))\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", code, os.devnull], capture_output=True, text=True, check=True
    )
    assert child.stdout.split("\n")[:2] == ["[]", repr(sorted(loaded))]


@pytest.mark.parametrize(
    "name, argv",
    [
        ("simulate", ["simulate", "--scheme", "I_B", "--r", "0.2", "--pb", PB_ARG,
                      "--quanta", "3", "--walks", "20"]),
        ("absorption_times", ["absorb", "--scheme", "I_B", "--r", "0.2", "--pb", PB_ARG,
                              "--quanta", "3", "--walks", "20"]),
        ("compare_presets", ["compare", "--preset", "I_B:r=0.2", "--preset", "II_B:r=0.2",
                             "--pb", PB_ARG, "--quanta", "3"]),
    ],
)
def test_lazily_bound_engines_stay_patchable(monkeypatch, name, argv):
    original = getattr(cli, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    execute(parse_args(argv))
    assert calls == [name]


def test_engines_patched_before_first_load_are_the_ones_called():
    # binding a name before its engine loads keeps that binding, as the
    # benchmark's tracer relies on
    code = (
        "import sys, schedchain.cli as cli\n"
        "cli.compare_presets = lambda presets, horizon: sys.exit(7)\n"
        "cli.main(['compare', '--preset', 'I_B:r=0.2', '--pb', '0.5,0.5'])\n"
    )
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert child.returncode == 7, child.stderr


# ---------------------------------------------------------------------------
# process entry

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _child_env(**settings):
    """This process's environment with buffered output, no thread counts and ``settings``."""
    drop = {"PYTHONUNBUFFERED", *THREAD_VARS}
    return {**{k: v for k, v in os.environ.items() if k not in drop}, **settings}


def _entry_with_main(main_source, **kwargs):
    """Run ``schedchain.__main__.entry()`` in a child whose ``cli.main`` is
    defined by ``main_source``; ``kwargs`` go to ``subprocess.run``.

    The stand-in ``cli`` module is in place before the entry imports it, so
    nothing loads numpy before the entry has set the process up."""
    code = (
        "import sys, types, schedchain.__main__ as entry\n"
        "cli = types.ModuleType('schedchain.cli')\n"
        "exec(sys.argv[1], cli.__dict__)\n"
        "sys.modules['schedchain.cli'] = cli\n"
        "entry.entry()\n"
    )
    options = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "env": _child_env(), **kwargs}
    return subprocess.run([sys.executable, "-c", code, main_source], text=True, **options)


_REPORT_THREADS = (
    "import json, os, sys\n"
    "def main():\n"
    "    del sys.modules['schedchain.cli']\n"
    "    import schedchain.cli  # the real one, which loads numpy and its BLAS\n"
    "    tasks = '/proc/self/task'\n"
    "    threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None\n"
    f"    env = {{k: os.environ.get(k) for k in {THREAD_VARS!r}}}\n"
    "    print(json.dumps({'threads': threads, 'env': env}))\n"
    "    return 0\n"
)


def test_entry_runs_the_cli_with_one_blas_thread():
    child = _entry_with_main(_REPORT_THREADS)
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    assert report["env"] == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None,
                             "OMP_NUM_THREADS": None}
    if report["threads"] is not None:
        assert report["threads"] == 1


@pytest.mark.parametrize("name", THREAD_VARS)
def test_caller_thread_count_reaches_the_cli_unchanged(name):
    child = _entry_with_main(_REPORT_THREADS, env=_child_env(**{name: "2"}))
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout)["env"] == {k: "2" if k == name else None for k in THREAD_VARS}


def test_library_use_leaves_environment_and_collector_alone():
    code = (
        "import gc, os\n"
        "before = dict(os.environ), gc.isenabled()\n"
        "import schedchain\n"
        "import schedchain.cli\n"
        "schedchain.cli.main(['run', '--scheme', 'I_B', '--r', '0.1', '--pb', '0.5,0.5',"
        " '--quanta', '2', '--output', os.devnull])\n"
        "print((dict(os.environ), gc.isenabled()) == before)\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert (child.returncode, child.stdout) == (0, "True\n"), child.stderr


def test_main_leaves_the_collector_alone_but_the_process_entry_disables_it(capsys):
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    assert main(["run", "--scheme", "I_B", "--r", "0.1", "--pb", "0.5,0.5", "--quanta", "2"]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    child = _entry_with_main("import gc\ndef main():\n    print(gc.isenabled())\n    return 5\n")
    assert (child.returncode, child.stdout) == (5, "False\n"), child.stderr


def test_output_larger_than_a_pipe_arrives_whole(tmp_path):
    argv = ["run", "--scheme", "I_B", "--r", "1e-4", "--pb", PB_ARG, "--quanta", "20000"]
    expected = render_csv(execute(parse_args(argv))).encode()
    assert len(expected) > 1 << 20
    command = [sys.executable, "-m", "schedchain", *argv]
    piped = subprocess.run(command, capture_output=True, env=_child_env())
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert piped.stdout == expected
    target = tmp_path / "out.csv"
    written = subprocess.run(
        [*command, "--output", str(target)], capture_output=True, env=_child_env()
    )
    assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
    assert target.read_bytes() == expected


def test_atexit_handler_registered_in_main_runs_once():
    child = _entry_with_main(
        "import atexit\n"
        "def main():\n"
        "    atexit.register(print, 'handler ran')\n"
        "    return 3\n"
    )
    assert (child.returncode, child.stdout) == (3, "handler ran\n"), child.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_final_flush_exits_through_the_interpreter():
    # text an atexit handler leaves in the buffer fails to flush; the process
    # then exits as Python does when that happens at teardown, with no traceback
    with open("/dev/full", "w") as full:
        child = _entry_with_main(
            "import atexit\n"
            "def main():\n"
            "    atexit.register(print, 'handler ran')\n"
            "    return 0\n",
            stdout=full,
        )
    assert child.returncode == 120
    assert child.stderr.startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
    assert "Traceback" not in child.stderr


def test_uncaught_error_in_main_prints_its_traceback_and_exits_1():
    child = _entry_with_main("def main():\n    raise RuntimeError('engine broke')\n")
    assert child.returncode == 1
    assert "Traceback" in child.stderr
    assert child.stderr.rstrip().endswith("RuntimeError: engine broke")


def test_usage_error_through_the_process_entry_exits_2():
    child = subprocess.run(
        [sys.executable, "-m", "schedchain", "run", "--scheme", "nope"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert child.returncode == 2
    assert "invalid choice: 'nope'" in child.stderr


def test_value_error_through_the_process_entry_writes_no_output(tmp_path):
    target = tmp_path / "out.csv"
    child = subprocess.run(
        [sys.executable, "-m", "schedchain", "simulate", "--scheme", "I_B", "--r", "0.1",
         "--pb", PB_ARG, "--walks", "0", "--output", str(target)],
        capture_output=True, text=True, env=_child_env(),
    )
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr == "schedchain: error: walks must be >= 1, got 0\n"
    assert not target.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_buffered_stdout_write_failure_exits_4():
    # with buffered stdout the text reaches the device only when flushed;
    # that flush must fail inside main, not at interpreter exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        child = subprocess.run(
            [sys.executable, "-m", "schedchain", "run", "--scheme", "I_B", "--r", "0.1",
             "--pb", "0.5,0.5", "--quanta", "5"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env,
        )
    assert child.returncode == 4
    assert "cannot write output" in child.stderr
    assert "Exception ignored" not in child.stderr
