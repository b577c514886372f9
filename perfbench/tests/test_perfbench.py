"""Tests of the benchmark itself: input generation, span arithmetic,
output checks and the runner's refusal to run without the package.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Draw  # noqa: E402


def _take(name, seed, n):
    return list(itertools.islice(WORKLOADS[name].draws(seed), n))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_draws_are_deterministic_per_seed(name):
    assert _take(name, 7, 50) == _take(name, 7, 50)
    assert _take(name, 7, 50) != _take(name, 8, 50)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_draws_give_every_op_its_own_a_within_the_ranges(name):
    wl = WORKLOADS[name]
    draws = _take(name, 3, 10000)
    assert len({d.a for d in draws}) == len(draws)
    for d in draws:
        assert workloads.A_RANGE[0] <= d.a <= workloads.A_RANGE[1]
        assert wl.lam_range[0] <= d.lam <= wl.lam_range[1]
        if wl.mass_range is None:
            assert d.mass == 0.0
        else:
            assert wl.mass_range[0] <= d.mass <= wl.mass_range[1]
        # The CLI receives exactly the drawn doubles.
        argv = list(d.argv)
        assert float(argv[argv.index("--a") + 1]) == d.a
        assert float(argv[argv.index("--lambda") + 1]) == d.lam


def test_kronecker_constant_is_the_plastic_generalisation():
    phi = workloads._PHI3
    assert abs(phi ** 4 - phi - 1.0) < 1e-14


def test_host_clock_reads_the_calibration_kernel_at_its_reference_time():
    # Timing the kernel itself must give n * CALIBRATION_REF_S whatever the
    # host's speed; the tolerance covers sample-to-sample noise.
    clock = run.HostClock()
    n = 200
    ref_s, wall, result = clock.time(lambda: [run.calibrate() for _ in range(n)])
    assert len(result) == n
    assert ref_s == pytest.approx(n * run.CALIBRATION_REF_S, rel=0.3)


def _span(name, start, end, parent, op="op0", work=0, tag=None):
    return [name, start, end, parent, op, work, tag]


def test_self_time_subtracts_children_once():
    tree = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 5.0, 9.0, 0),
        _span("b1", 6.0, 7.0, 2),
        _span("b2", 6.5, 8.0, 2),     # overlaps b1: the union counts once
        _span("late", 8.0, 12.0, 0),  # runs past its parent: clipped
    ]
    # root: children cover [1,4] U [5,10];  b: children cover [6,8].
    assert spans.self_times(tree) == pytest.approx([2.0, 3.0, 2.0, 1.0, 1.5, 4.0])


def test_counts_on_a_synthetic_compare():
    so, um, fl, es, pb = ("perturb.second_order", "perturb.unperturbed_modes",
                          "shooting.find_levels", "shooting.exact_shift",
                          "backend.propagate_batch")
    tree = [
        _span("cli.main", 0, 100, -1),
        _span(so, 1, 40, 0),                # builds the row: a miss
        _span(um, 2, 30, 1, work=401),
        _span(fl, 3, 20, 2, work=201, tag=(0.0, 5.0)),
        _span(pb, 4, 5, 3, work=1000),
        _span(pb, 6, 7, 3, work=1000),
        _span(so, 41, 50, 0),               # row from the cache: a hit
        _span(um, 42, 43, 6, work=1),       # first_order's single level
        _span(es, 51, 99, 0),
        _span(fl, 52, 60, 8, work=0, tag=(0.0, 3.0)),
        _span(pb, 53, 54, 9, work=500),
        _span(fl, 61, 70, 8, work=3, tag=(0.0, 4.2)),   # widened window
        _span(pb, 62, 63, 11, work=500),
        _span(fl, 71, 80, 8, work=3, tag=(0.0, 4.2)),   # lam = 0, same window
        _span(pb, 81, 82, 8, work=7),       # not under find_levels
        _span(pb, 83, 84, 0, op="op1", work=9),          # another op
    ]
    c = spans.op_counts(tree, ["op0"])
    assert c["calls"][pb] == 5
    assert c["work"][pb] == 3007
    assert c["perturb.row_cache_hit_ratio"] == 0.5
    assert c["shooting.exact_shift.retries"] == 1
    assert c["shooting.batch_calls_per_find_levels"] == 4 / 4
    assert c["shooting.lane_steps_per_level"] == 3000 / 207


def test_layer_metrics_are_per_op_means_over_the_count_prefix():
    tree = [
        _span("cli.main", 0.0, 2.0, -1, op="op0"),
        _span("backend.propagate_batch", 0.5, 1.5, 0, op="op0", work=100),
        _span("cli.main", 3.0, 4.0, -1, op="op1"),
        _span("backend.propagate_batch", 3.0, 3.5, 2, op="op1", work=300),
    ]
    m = spans.layer_metrics(tree, traced_ops=["op0", "op1"], count_ops=["op0", "op1"],
                            check_ops=[], count_check_ops=[], op_wall=[2.0, 1.0])
    assert m["backend.batch.calls"] == 1.0
    assert m["backend.batch.lane_steps"] == 200.0
    assert m["backend.batch.self_s"] == pytest.approx(0.75)
    assert m["backend.batch.ns_per_lane_step"] == pytest.approx(1.5e9 / 400)
    assert m["cli.main.self_s"] == pytest.approx(0.75)
    assert m["backend.share"] == pytest.approx(1.5 / 3.0)
    assert m["cli.share"] == pytest.approx(1.5 / 3.0)


def test_tracer_wraps_by_name_imports_and_restores_them():
    from diracbag import bagmodel, perturb
    from diracbag.bagmodel import BagConfig
    original = bagmodel.panel_quadrature
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert perturb.panel_quadrature is not original
        assert perturb.panel_quadrature is bagmodel.panel_quadrature
        tracer.op = "op0"
        perturb.first_order(BagConfig(a=1.0, mass=0.0, lam=1.0), 0)
    finally:
        tracer.op = None
        tracer.uninstall()
    assert perturb.panel_quadrature is original and bagmodel.panel_quadrature is original
    names = [s[0] for s in tracer.spans]
    assert names[:2] == ["perturb.first_order", "perturb.unperturbed_modes"]
    assert "bagmodel.closed_form_mode" in names
    quad = [s for s in tracer.spans if s[0] == "bagmodel.panel_quadrature"]
    # Mode normalisation reaches the rule through bagmodel's binding, the
    # matrix element through perturb's by-name import.
    assert {tracer.spans[s[3]][0] for s in quad} == {
        "perturb.unperturbed_modes", "perturb.x_matrix_element"}
    assert all(s[5] > 0 and s[5] % 32 == 0 for s in quad)
    assert all(s[4] == "op0" for s in tracer.spans)


def _massless_output(draw, flip_pauli=False):
    from scipy.special import zeta
    scale = draw.lam ** 2 * draw.a ** 3
    pauli = -31.0 * float(zeta(5.0)) / math.pi ** 5 * scale
    res = {"w_exact": 0.0, "w_first": 0.0, "w_second_feynman": 1e-21,
           "w_second_pauli": -pauli if flip_pauli else pauli,
           "matches_feynman": True, "matches_pauli": False}
    return json.dumps({"results": res, "diagnostics": {}})


def test_massless_check_flags_a_flipped_pauli_sum():
    draw = _take("massless_compare", 1, 1)[0]
    assert workloads.check_massless_compare(draw, 0, _massless_output(draw)) == []
    errors = workloads.check_massless_compare(draw, 0, _massless_output(draw, True))
    assert len(errors) == 1 and "Pauli" in errors[0]


def test_spectrum_check_flags_a_level_moved_by_1e_4():
    from diracbag import oracle
    from diracbag.bagmodel import BagConfig
    draw = Draw(index=0, a=1.0, mass=1.0, lam=1.0, argv=())
    window = [-8.0, 8.0]
    levels = list(oracle.levels_refined(BagConfig(1.0, 1.0, 1.0), window, 4000)["refined"])
    assert len(levels) == 10

    def output(energies):
        return json.dumps({"results": {"levels": [{"energy": e} for e in energies]},
                           "diagnostics": {"window": window}})

    assert workloads.check_massive_spectrum(draw, 0, output(levels)) == []
    moved = levels[:3] + [levels[3] + 1e-4] + levels[4:]
    errors = workloads.check_massive_spectrum(draw, 0, output(moved))
    assert len(errors) == 1 and "oracle" in errors[0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_check_flags_a_nonzero_exit(name):
    draw = _take(name, 1, 1)[0]
    assert WORKLOADS[name].check(draw, 1, '{"results": null}') == ["exit code 1"]


def test_runner_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "massive_spectrum", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
