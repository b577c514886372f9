"""CLI: determinism, schemas, exit codes, CSV/JSON parity."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diracbag import cli

GOLDEN = Path(__file__).parent / "data" / "golden_spectrum.json"


def _run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_spectrum_values(capsys):
    code, out = _run(["spectrum", "--a", "1", "--mass", "0", "--lambda", "0",
                      "--window", "0:3"], capsys)
    assert code == 0
    doc = json.loads(out)
    levels = [row["energy"] for row in doc["results"]["levels"]]
    assert levels == pytest.approx([0.7853981634, 2.3561944902], abs=1e-9)
    assert [row["index"] for row in doc["results"]["levels"]] == [0, 1]
    assert doc["schema_version"] == "1"
    for row in doc["results"]["levels"]:
        assert abs(row["deviation"]) < 1e-9


def test_spectrum_lam_independent(capsys):
    code, out = _run(["spectrum", "--a", "1", "--mass", "0", "--lambda", "4",
                      "--window", "0:3"], capsys)
    assert code == 0
    doc = json.loads(out)
    levels = [row["energy"] for row in doc["results"]["levels"]]
    assert levels == pytest.approx([math.pi / 4, 3 * math.pi / 4], abs=1e-8)


def test_usage_error_exit_code_2(capsys):
    code, _ = _run(["spectrum", "--a", "-1", "--window", "0:3"], capsys)
    assert code == 2
    code, _ = _run(["spectrum"], capsys)  # neither --window nor --levels
    assert code == 2
    code, _ = _run(["compare", "--cutoff", "2"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["shift", "--lambda", "nan"],
    ["compare", "--mass", "nan"],
    ["spectrum", "--a", "inf", "--levels", "2"],
    ["spectrum", "--window", "0:nan"],
    ["shift", "--mass", "1", "--lambda", "inf"],
])
def test_non_finite_input_rejected_before_compute(argv, capsys, monkeypatch):
    monkeypatch.setattr(cli, "render", lambda args: pytest.fail("computation started"))
    code, out = _run(argv, capsys)
    assert code == 2 and out == ""


def test_negative_window_as_separate_argument(capsys):
    argv = ["spectrum", "--mass", "1", "--lambda", "0.5"]
    code, out = _run(argv + ["--window", "-3:3"], capsys)
    assert code == 0
    _, glued = _run(argv + ["--window=-3:3"], capsys)
    assert out == glued
    doc = json.loads(out)
    assert doc["inputs"]["window"] == [-3, 3]
    assert [row["index"] for row in doc["results"]["levels"]] == [-2, -1, 0, 1]


def test_window_and_levels_together_rejected(capsys, monkeypatch):
    monkeypatch.setattr(cli, "render", lambda args: pytest.fail("computation started"))
    code, out = _run(["spectrum", "--window", "0:3", "--levels", "2"], capsys)
    assert code == 2 and out == ""


@pytest.mark.parametrize("argv", [
    ["spectrum", "--window=-1e4:1e4", "--mass", "1", "--lambda", "1"],
    ["shift", "--mass", "1", "--lambda", "1", "--levels", "100000000"],
    # Massless levels need no propagation; their output rows are charged.
    ["spectrum", "--mass", "0", "--lambda", "1", "--window=-1e5:1e5"],
    ["spectrum", "--mass", "0", "--levels", "1000000"],
])
def test_cost_budget_refused_before_propagation(argv, capsys, monkeypatch):
    from diracbag import backend, shooting

    def refuse(*args, **kwargs):
        pytest.fail("propagation started")

    monkeypatch.setattr(backend, "propagate_batch", refuse)
    monkeypatch.setattr(backend, "propagate_trace", refuse)
    monkeypatch.setattr(shooting, "_solve_levels", refuse)
    code, out = _run(argv, capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["results"] is None
    assert doc["diagnostics"]["error"].startswith("NumericsError: request needs about")
    assert "over the budget of 1e+07" in doc["diagnostics"]["error"]


@pytest.mark.parametrize("argv", [
    ["spectrum", "--mass", "1", "--lambda", "1", "--levels", "5"],
    ["spectrum", "--mass", "0", "--lambda", "1", "--window=-300:300"],
    ["spectrum", "--mass", "0", "--lambda", "1", "--window=-300:300", "--format", "csv"],
])
def test_spectrum_builds_no_modes(argv, capsys, monkeypatch):
    from diracbag import backend, shooting
    code, expected = _run(argv, capsys)
    assert code == 0

    def refuse(*args, **kwargs):
        pytest.fail("a mode was built")

    monkeypatch.setattr(backend, "propagate_trace", refuse)
    monkeypatch.setattr(shooting, "_build_mode", refuse)
    assert _run(argv, capsys) == (0, expected)


def test_commands_import_no_oracle_scipy_or_openssl():
    # What a CLI run imports sets its start-up time and its memory.
    script = (
        "import contextlib, io, sys\n"
        "from diracbag import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['spectrum', '--mass', '1', '--lambda', '1', '--levels', '2'],\n"
        "                 ['shift', '--mass', '1', '--lambda', '0.01'],\n"
        "                 ['compare', '--mass', '1', '--lambda', '0.1', '--cutoff', '64'],\n"
        "                 ['convergence', '--lambda', '1', '--cutoff', '16']):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print(' '.join(m for m in ('scipy', 'hashlib', '_hashlib', 'diracbag.oracle',\n"
        "                           'diracbag._threads') if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        cwd=str(Path(__file__).resolve().parents[1]),
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_byte_identical_reruns(capsys):
    argv = ["compare", "--a", "1", "--mass", "0", "--lambda", "1", "--cutoff", "64"]
    _, out1 = _run(argv, capsys)
    _, out2 = _run(argv, capsys)
    assert out1 == out2


def test_run_id_depends_on_inputs(capsys):
    _, out1 = _run(["spectrum", "--window", "0:3"], capsys)
    _, out2 = _run(["spectrum", "--window", "0:4"], capsys)
    assert json.loads(out1)["run_id"] != json.loads(out2)["run_id"]


def test_float_round_trip_17_digits(capsys):
    _, out = _run(["spectrum", "--window", "0:3"], capsys)
    doc = json.loads(out)
    # Re-serialising the parsed document must agree byte-for-byte.
    assert cli.dumps(doc) + "\n" == out


def test_golden_spectrum_bytes(capsys):
    _, out = _run(["spectrum", "--a", "1", "--mass", "0", "--lambda", "0",
                   "--window", "0:3"], capsys)
    golden = json.loads(GOLDEN.read_text())
    assert out == cli.dumps(golden) + "\n"


def test_golden_compare_bytes_and_withheld_verdicts(capsys):
    _, out = _run(["compare", "--a", "1", "--mass", "0", "--lambda", "1",
                   "--cutoff", "64"], capsys)
    golden = json.loads((GOLDEN.parent / "golden_compare.json").read_text())
    assert out == cli.dumps(golden) + "\n"
    doc = json.loads(out)
    # cutoff 64 leaves the Pauli sum unconverged: verdicts are withheld
    assert doc["diagnostics"]["verdicts_withheld"] is True
    assert "matches_pauli" not in doc["results"]


def test_compare_bytes_independent_of_simd_dispatch():
    # The massless compare payload is exact, so the SIMD kernels NumPy
    # dispatches on this CPU must not reach its bytes.
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    dispatched = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    env = {k: v for k, v in os.environ.items()
           if k not in ("NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = "src"
    outs = []
    for extra in ({}, {"NPY_DISABLE_CPU_FEATURES": " ".join(dispatched)}):
        proc = subprocess.run(
            [sys.executable, "-m", "diracbag.cli", "compare", "--a", "1",
             "--mass", "0", "--lambda", "1", "--cutoff", "64"],
            capture_output=True, cwd=str(Path(__file__).resolve().parents[1]),
            env={**env, **extra},
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_numeric_failure_exit_code_1(capsys):
    # Deep sub-threshold propagation overflows for extreme mass*a; the CLI
    # must report it as a diagnostic payload with exit code 1.
    code, out = _run(["shift", "--mass", "400", "--lambda", "0.1"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["results"] is None
    assert "NumericsError" in doc["diagnostics"]["error"]


def test_refinement_cap_reports_numeric_failure(capsys, monkeypatch):
    # A bracket still wider than tol when the iteration cap is reached is
    # a numeric failure with a diagnostic payload, not a silent midpoint.
    from diracbag import shooting
    monkeypatch.setattr(shooting, "_MAX_REFINE_ITERS", 3)
    code, out = _run(["spectrum", "--mass", "1", "--lambda", "1", "--levels", "1"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["results"] is None
    assert "did not converge in 3 iterations" in doc["diagnostics"]["error"]


def test_stalled_refinement_stops_early(capsys, monkeypatch):
    # No double lies inside a one-ulp bracket, so a tol below the ulp is
    # reported as soon as every open bracket stalls, not after the cap.
    from diracbag import backend
    calls = []
    propagate = backend.propagate_batch

    def counted(*args, **kwargs):
        calls.append(1)
        return propagate(*args, **kwargs)

    monkeypatch.setattr(backend, "propagate_batch", counted)
    code, out = _run(["spectrum", "--mass", "1", "--lambda", "1", "--levels", "1",
                      "--tol", "1e-300"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["results"] is None
    assert "root refinement stalled after" in doc["diagnostics"]["error"]
    assert "cannot shrink to tol 1e-300" in doc["diagnostics"]["error"]
    # Bisection alone needs about 50 halvings from the grid cell to one ulp.
    assert 0 < len(calls) <= 60


def test_compare_zero_coupling(capsys):
    code, out = _run(["compare", "--a", "1", "--mass", "0", "--lambda", "0",
                      "--cutoff", "32"], capsys)
    assert code == 0
    res = json.loads(out)["results"]
    assert ":-0" not in out   # no signed zeros in the payload
    assert res["w_exact"] == 0.0
    assert res["w_second_pauli"] == 0.0
    assert res["w_second_feynman"] == 0.0
    assert res["w_first"] == 0.0


def test_compare_massless_verdicts(capsys):
    code, out = _run(["compare", "--a", "1", "--mass", "0", "--lambda", "1",
                      "--cutoff", "400"], capsys)
    assert code == 0
    doc = json.loads(out)
    res = doc["results"]
    assert abs(res["w_exact"]) < 1e-8
    assert abs(res["w_second_feynman"] - res["w_exact"]) < 1e-8
    assert abs(res["w_second_pauli"] - res["w_exact"]) > 1e-3
    assert res["matches_feynman"] is True
    assert res["matches_pauli"] is False
    assert doc["diagnostics"]["converged_pauli"] is True


def test_shift_command(capsys):
    code, out = _run(["shift", "--a", "1", "--mass", "0", "--lambda", "2"], capsys)
    assert code == 0
    assert abs(json.loads(out)["results"]["w_exact"]) < 1e-8


def test_csv_json_parity_convergence(capsys):
    argv = ["convergence", "--a", "1", "--mass", "0", "--lambda", "1", "--cutoff", "16"]
    _, out_json = _run(argv + ["--format", "json"], capsys)
    _, out_csv = _run(argv + ["--format", "csv"], capsys)
    rows = json.loads(out_json)["results"]["traces"]
    lines = out_csv.strip().split("\n")
    assert lines[0] == "prescription,scheme,cutoff,partial_sum"
    assert len(lines) == len(rows) + 1
    for row, line in zip(rows, lines[1:]):
        p, s, n, val = line.split(",")
        assert p == row["prescription"] and s == row["scheme"]
        assert int(n) == row["cutoff"]
        assert float(val) == row["partial_sum"]


def test_csv_json_parity_spectrum(capsys):
    argv = ["spectrum", "--a", "1", "--mass", "1", "--lambda", "0.5", "--window=-3:3"]
    _, out_json = _run(argv, capsys)
    _, out_csv = _run(argv + ["--format", "csv"], capsys)
    rows = json.loads(out_json)["results"]["levels"]
    lines = out_csv.strip().split("\n")
    assert lines[0] == "index,energy"
    assert len(lines) == len(rows) + 1
    for row, line in zip(rows, lines[1:]):
        idx, energy = line.split(",")
        assert int(idx) == row["index"]
        assert float(energy) == row["energy"]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "spec.json"
    code = cli.main(["spectrum", "--window", "0:3", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["results"]["levels"]


def test_prescription_filter(capsys):
    _, out = _run(["convergence", "--cutoff", "8", "--lambda", "1",
                   "--prescription", "pauli"], capsys)
    rows = json.loads(out)["results"]["traces"]
    assert {r["prescription"] for r in rows} == {"pauli"}


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "diracbag.cli", "spectrum", "--window", "0:1"],
        capture_output=True, text=True,
        cwd=str(Path(__file__).resolve().parents[1]),
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["levels"]


def test_levels_flag_spectrum(capsys):
    code, out = _run(["spectrum", "--levels", "3", "--mass", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    indices = [row["index"] for row in doc["results"]["levels"]]
    assert indices == [-3, -2, -1, 0, 1, 2]
