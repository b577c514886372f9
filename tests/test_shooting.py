"""Shooting solver: Pruefer-angle levels, labels, spectra, mode quality."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diracbag import backend
from diracbag import bagmodel as bm
from diracbag import oracle
from diracbag import perturb
from diracbag import shooting as sh
from diracbag.errors import LevelTrackingError


PI = math.pi


def test_rhs_massless_cases():
    cfg = bm.BagConfig(1.0, 0.0, 0.0)
    du, dv = sh.rhs(0.0, (1.0, 0.0), PI / 4, cfg)
    assert du == 0.0
    assert dv == pytest.approx(-PI / 4, abs=0)
    cfg2 = bm.BagConfig(1.0, 0.0, 2.0)
    du, dv = sh.rhs(1.0, (0.0, 1.0), 0.0, cfg2)
    assert du == -2.0 and dv == 0.0


def test_rhs_mass_convention():
    # Off-diagonal mass: du/dx gains -m*u, dv/dx gains +m*v.
    cfg = bm.BagConfig(1.0, 1.0, 0.0)
    du, dv = sh.rhs(0.0, (1.0, 0.0), 1.0, cfg)
    assert du == pytest.approx(-1.0, abs=0)   # -m*u - (0-1)*0
    assert dv == pytest.approx(-1.0, abs=0)   # +m*0 + (0-1)*1


def test_rhs_domain_error():
    with pytest.raises(ValueError):
        sh.rhs(1.5, (1.0, 0.0), 0.0, bm.BagConfig(1.0, 0.0, 0.0))


def test_rhs_consistency_with_integrated_modes():
    # Finite-difference derivative of a shooting mode obeys the system.
    cfg = bm.BagConfig(1.0, 1.0, 0.5)
    mode = sh.find_levels(cfg, (0.5, 2.5)).mode(0)
    xs = np.linspace(-0.9, 0.9, 7)
    d = 1e-6
    for x in xs:
        up, vp = mode.spinor(x + d)
        um, vm = mode.spinor(x - d)
        du_fd = (up - um) / (2 * d)
        dv_fd = (vp - vm) / (2 * d)
        u, v = mode.spinor(x)
        du, dv = sh.rhs(x, (u, v), mode.energy, cfg)
        assert abs(du_fd - du) < 1e-7
        assert abs(dv_fd - dv) < 1e-7


def test_shoot_at_root_and_off_root():
    cfg = bm.BagConfig(1.0, 0.0, 0.0)
    assert abs(sh.shoot(PI / 4, cfg).mismatch) < 1e-10
    assert abs(sh.shoot(PI / 4, bm.BagConfig(1.0, 0.0, 7.0)).mismatch) < 1e-9
    m_half = sh.shoot(0.5, cfg).mismatch
    m_one = sh.shoot(1.0, cfg).mismatch
    assert abs(m_half) > 0.1
    assert m_half * m_one < 0.0  # sign change brackets the pi/4 root


def test_shoot_left_boundary_condition_exact():
    res = sh.shoot(1.3, bm.BagConfig(1.0, 1.0, 2.0))
    xs, us, vs = res.samples
    assert us[0] == vs[0]
    assert res.steps >= 128


def test_shoot_validation():
    with pytest.raises(ValueError):
        sh.shoot(1.0, bm.BagConfig(1.0, 0.0, 0.0), tol=-1.0)


def test_find_levels_massless_window():
    spec = sh.find_levels(bm.BagConfig(1.0, 0.0, 0.0), (0.0, 3.0))
    assert np.allclose(spec.energies, [PI / 4, 3 * PI / 4], atol=1e-9, rtol=0)
    assert [m.index for m in spec.modes] == [0, 1]


def test_find_levels_with_potential():
    spec = sh.find_levels(bm.BagConfig(1.0, 0.0, 1.0), (-3.0, 3.0))
    expect = bm.massless_levels(1.0, -2, 1)
    assert np.allclose(spec.energies, expect, atol=1e-8, rtol=0)
    assert [m.index for m in spec.modes] == [-2, -1, 0, 1]


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 5.0])
def test_massless_levels_lam_independent(lam):
    spec = sh.find_levels(bm.BagConfig(1.0, 0.0, lam), (-5.0, 5.0))
    expect = bm.massless_levels(1.0, -3, 2)
    assert np.allclose(spec.energies, expect, atol=1e-8, rtol=0)


def test_level_count_matches_analytic_prediction():
    for window in [(-5.0, 5.0), (0.0, 3.0), (-10.0, -0.2), (0.9, 7.3)]:
        spec = sh.find_levels(bm.BagConfig(1.0, 0.0, 2.0), window)
        lo_n = math.ceil((4 * window[0] / PI - 1) / 2)
        hi_n = math.floor((4 * window[1] / PI - 1) / 2)
        assert len(spec.modes) == max(0, hi_n - lo_n + 1)


def test_empty_window_returns_empty_spectrum():
    spec = sh.find_levels(bm.BagConfig(1.0, 0.0, 0.0), (0.9, 1.2))
    assert len(spec.modes) == 0


def test_window_validation():
    with pytest.raises(ValueError):
        sh.find_levels(bm.BagConfig(1.0, 0.0, 0.0), (2.0, 1.0))


def test_reversal_symmetry():
    # Each root of the left-to-right mismatch also solves the right-to-left
    # problem: the backward mismatch vanishes there and changes sign across it.
    cfg = bm.BagConfig(1.0, 1.0, 1.0)
    spec = sh.find_levels(cfg, (-5.0, 5.0))
    assert [m.index for m in spec.modes] == [-3, -2, -1, 0, 1, 2]
    for e in spec.energies:
        assert abs(sh.shoot(e, cfg, direction=-1).mismatch) < 1e-9
        below = sh.shoot(e - 1e-6, cfg, direction=-1).mismatch
        above = sh.shoot(e + 1e-6, cfg, direction=-1).mismatch
        assert below * above < 0.0


def test_massive_zero_potential_levels_closed_form():
    # With lam = 0 the system has constant coefficients; quantisation gives
    # eps = +-sqrt(m^2 + k_j^2), k_j = (2j+1)pi/(4a).
    cfg = bm.BagConfig(1.0, 1.0, 0.0)
    spec = sh.find_levels(cfg, (-8.0, 8.0))
    ks = (2 * np.arange(5) + 1) * PI / 4
    expect = np.sqrt(1.0 + ks ** 2)
    expect = np.sort(np.concatenate([-expect, expect]))
    assert np.max(np.abs(spec.energies - expect)) < 1e-11
    assert [m.index for m in spec.modes] == [-5, -4, -3, -2, -1, 0, 1, 2, 3, 4]


def test_spectrum_strictly_increasing_and_nondegenerate():
    spec = sh.find_levels(bm.BagConfig(1.0, 1.0, 1.0), (-8.0, 8.0))
    gaps = np.diff(spec.energies)
    assert np.all(gaps > 1e-9)


def test_global_indices_with_offset_window():
    # A window that starts above zero must still yield global labels.
    cfg = bm.BagConfig(1.0, 1.0, 0.0)
    spec = sh.find_levels(cfg, (2.0, 6.0))
    full = sh.find_levels(cfg, (0.0, 6.0))
    sub = {m.index: m.energy for m in spec.modes}
    ref = {m.index: m.energy for m in full.modes}
    assert sub and all(ref[idx] == e for idx, e in sub.items())


def test_levels_do_not_depend_on_the_window():
    # Each level is solved on its own bracket with its own step count, so
    # its bits do not depend on the window or on the other levels solved.
    cfg = bm.BagConfig(1.0, 1.0, 0.7)
    specs = [{m.index: m.energy for m in sh.find_levels(cfg, w).modes}
             for w in [(0.0, 6.0), (2.0, 6.0), (-6.0, 6.0)]]
    assert list(specs[2]) == [-4, -3, -2, -1, 0, 1, 2, 3]
    assert list(specs[0]) == [0, 1, 2, 3] and list(specs[1]) == [1, 2, 3]
    for spec in specs[:2]:
        assert all(specs[2][n] == e for n, e in spec.items())
    for n, e in specs[2].items():
        e0 = float(bm.lam0_basis(cfg.a, cfg.mass, n)[0])
        assert sh.exact_shift(cfg, n, tol=1e-12) + e0 == e


def test_mode_quality_invariants():
    for cfg in (bm.BagConfig(1.0, 0.0, 1.0), bm.BagConfig(1.0, 1.0, 1.0)):
        spec = sh.find_levels(cfg, (-4.0, 4.0))
        for mode in spec.modes:
            assert mode.norm_check < 1e-10
            u_l, v_l = mode.spinor(-cfg.a)
            u_r, v_r = mode.spinor(cfg.a)
            assert abs(u_l - v_l) < 1e-10
            assert abs(u_r + v_r) < 1e-10
            assert u_l > 0.0
        for i, mi in enumerate(spec.modes):
            for mj in spec.modes[i + 1:]:
                assert abs(bm.overlap(mi, mj)) < 1e-10


def test_modes_built_once_on_first_use(monkeypatch):
    built = []
    build = sh._build_mode

    def counted(cfg, eps, index):
        built.append(index)
        return build(cfg, eps, index)

    monkeypatch.setattr(sh, "_build_mode", counted)
    spec = sh.find_levels(bm.BagConfig(1.0, 1.0, 1.0), (-4.0, 4.0))
    assert built == []
    assert spec.modes is spec.modes
    assert spec.mode(0) is spec.modes[list(spec.indices).index(0)]
    assert built == list(spec.indices)
    assert [m.energy for m in spec.modes] == list(spec.energies)


@pytest.mark.parametrize("a, mass, lam", [(1.0, 1.0, 0.7), (0.7, 0.3, -1.4), (1.5, 1.2, 1.3)])
def test_hellmann_feynman(a, mass, lam):
    # d eps_n/d lam = <n|x|n>_lam (Feynman, Phys. Rev. 56, 340, 1939): the
    # energies' central difference against quadrature over the modes.
    h = 1e-4
    spec, up, down = (sh.find_levels(bm.BagConfig(a, mass, lam + d), (-4.0, 4.0))
                      for d in (0.0, h, -h))
    assert len(spec.indices) >= 4
    assert list(up.indices) == list(down.indices) == list(spec.indices)
    slopes = (up.energies - down.energies) / (2.0 * h)
    for mode, slope in zip(spec.modes, slopes):
        assert abs(perturb.x_matrix_element(mode, mode).real - slope) < 1e-6


def test_found_roots_have_small_mismatch():
    spec = sh.find_levels(bm.BagConfig(1.0, 1.0, 1.0), (-5.0, 5.0), tol=1e-12)
    for mode in spec.modes:
        assert abs(sh.shoot(mode.energy, bm.BagConfig(1.0, 1.0, 1.0)).mismatch) < 1e-9


def test_shoot_reverse_direction_imposes_right_condition():
    res = sh.shoot(1.3, bm.BagConfig(1.0, 1.0, 2.0), direction=-1)
    xs, us, vs = res.samples
    assert xs[0] == 1.0          # integration starts at +a
    assert us[0] == -vs[0]       # u(+a) = -v(+a) exact


def test_norm_conservation_along_massless_trajectory():
    # At m = 0 the flow is a pure rotation, so u^2 + v^2 is conserved.
    res = sh.shoot(PI / 4, bm.BagConfig(1.0, 0.0, 0.0))
    _, us, vs = res.samples
    norms = us ** 2 + vs ** 2
    assert np.max(np.abs(norms - norms[0])) < 1e-10


def test_exact_shift_massless_is_zero():
    assert sh.exact_shift(bm.BagConfig(1.0, 0.0, 0.0), 0) == 0.0
    assert abs(sh.exact_shift(bm.BagConfig(1.0, 0.0, 2.0), 0)) < 1e-8
    assert abs(sh.exact_shift(bm.BagConfig(1.0, 0.0, 1.0), -1)) < 1e-8


def test_exact_shift_massive_small_and_nonzero():
    w = sh.exact_shift(bm.BagConfig(1.0, 1.0, 0.01), 0)
    assert 1e-4 < abs(w) < 1e-2


def test_randomised_configs_cross_checked_against_oracle(rng):
    from diracbag import oracle
    for _ in range(3):
        a = float(rng.uniform(0.6, 1.6))
        mass = float(rng.uniform(0.0, 1.5))
        lam = float(rng.uniform(-1.5, 1.5))
        cfg = bm.BagConfig(a, mass, lam)
        hi = 6.0 / a
        spec = sh.find_levels(cfg, (-hi + 0.013, hi + 0.017))
        res = oracle.levels_refined(cfg, (-hi + 0.013, hi + 0.017), 2000)
        assert len(res["refined"]) == len(spec.modes)
        assert np.max(np.abs(res["refined"] - spec.energies)) < 1e-6
        for mode in spec.modes:
            assert mode.norm_check < 1e-10


@given(a=st.floats(0.6, 1.6), mass=st.floats(0.0, 1.5), lam=st.floats(-1.5, 1.5))
def test_labels_are_sign_class_ranks_of_oracle_levels(a, mass, lam):
    # The Pruefer index of each level equals its rank in its sign class
    # (0, 1, ... upwards from zero, -1, -2, ... downwards), counted on the
    # independent finite-difference spectrum.  The oracle window edges sit
    # midway between levels, so no level is near an edge.
    cfg = bm.BagConfig(a, mass, lam)
    reach = 5.0 / a + mass + abs(lam) * a
    modes = sh.find_levels(cfg, (-reach, reach)).modes
    energies = [m.energy for m in modes]
    window = (0.5 * (energies[0] + energies[1]), 0.5 * (energies[-2] + energies[-1]))
    ref = oracle.levels_refined(cfg, window, 2000)["refined"]
    pos = sorted(e for e in ref if e > 0.0)
    neg = sorted((e for e in ref if e < 0.0), reverse=True)
    rank = {e: i for i, e in enumerate(pos)} | {e: -1 - i for i, e in enumerate(neg)}
    assert len(ref) == len(modes) - 2 >= 4
    for mode, e in zip(modes[1:-1], ref):
        assert mode.index == rank[e]
        assert abs(mode.energy - e) < 1e-6


def test_newton_needs_few_propagations(monkeypatch):
    # Bisection from the +-|lam|*a brackets to 1e-12 would take about 40
    # batched propagations; the Newton steps on F_n take far fewer.
    calls = []
    real = backend.propagate_batch
    monkeypatch.setattr(backend, "propagate_batch", lambda *args: calls.append(1) or real(*args))
    spec = sh.find_levels(bm.BagConfig(1.0, 1.0, 1.0), (-8.0, 8.0))
    assert len(spec.modes) == 10
    assert len(calls) <= 20


def test_strong_field_levels_match_oracle():
    # With |lam|*a^2 >> 1 two levels can sit closer than a bracket-grid cell
    # of pi/(8a), and level 0 moves by more than half its energy; neither
    # affects the Pruefer index.  (The oracle needs N = 16000 here to
    # resolve the close pair to 1e-6.)
    cfg = bm.BagConfig(2.25, 2.65, -3.68)
    spec = sh.find_levels(cfg, (-3.0, 3.0))
    ref = oracle.levels_refined(cfg, (-3.0, 3.0), 16000)["refined"]
    assert [m.index for m in spec.modes] == [-4, -3, -2, -1, 0, 1, 2, 3]
    assert np.min(np.diff(spec.energies)) < math.pi / (8 * cfg.a)
    assert np.max(np.abs(spec.energies - ref)) < 1e-6
    cfg = bm.BagConfig(1.75, 4.0, -2.85)
    e0 = float(bm.lam0_basis(cfg.a, cfg.mass, 0)[0])
    ref = oracle.levels_refined(cfg, (0.0, 2.0), 4000)["refined"]
    w = sh.exact_shift(cfg, 0)
    assert len(ref) == 1 and abs(e0 + w - ref[0]) < 1e-6 and w < -0.5 * e0


@pytest.mark.parametrize("mass", [0.0, 0.5, 3.0, 10.0])
def test_zero_energy_angle_at_zero_coupling(mass):
    # theta(a; 0) lies in [pi/4, pi/2) at lam = 0, which makes the Pruefer
    # labels the sign-class labels of the closed-form spectrum.
    # (At mass*a = 13 the distance to pi/2 is below one ulp.)
    theta, _ = sh._prufer(np.array([0.0]), bm.BagConfig(1.3, mass, 0.0), 64)
    assert math.pi / 4 - 1e-15 <= theta[0] <= math.pi / 2


def test_prufer_slope_matches_finite_difference():
    # dtheta(a)/deps = -integral(u^2 + v^2)/r(a)^2 drives the Newton steps;
    # the integral is the trapezoid rule on the 512 steps, O(h^2) accurate.
    cfg = bm.BagConfig(1.1, 1.2, 0.9)
    eps = np.array([-3.0, -0.4, 0.2, 1.7, 5.5])
    d = 1e-5
    _, slope = sh._prufer(eps, cfg, 512)
    up, _ = sh._prufer(eps + d, cfg, 512)
    down, _ = sh._prufer(eps - d, cfg, 512)
    assert np.all(slope < 0.0)
    assert np.max(np.abs((up - down) / (2 * d) / slope - 1.0)) < 1e-4


@pytest.mark.parametrize("theta0, raises", [
    (0.8 * math.pi, True), (-0.25 * math.pi, True),
    (0.75 * math.pi, False), (-0.2 * math.pi, False)],
    ids=["above", "lower_end", "upper_end", "inside"])
def test_zero_crossing_guard(monkeypatch, theta0, raises):
    # The eps = 0 lane rides on the first propagation; an angle outside
    # (-pi/4, 3pi/4] means a level crossed zero and the labels would no
    # longer be the sign-class labels.
    real = backend.propagate_batch

    def moved(eps, *args):
        u, v, theta, norm = real(eps, *args)
        if np.ndim(eps) and eps[-1] == 0.0:
            theta = np.append(theta[:-1], theta0)
        return u, v, theta, norm

    monkeypatch.setattr(backend, "propagate_batch", moved)
    cfg = bm.BagConfig(1.0, 1.0, 1.0)
    if raises:
        with pytest.raises(LevelTrackingError, match="crossed zero"):
            sh.find_levels(cfg, (-3.0, 3.0))
        with pytest.raises(LevelTrackingError):
            sh.exact_shift(cfg, 0)
    else:
        assert [m.index for m in sh.find_levels(cfg, (-3.0, 3.0)).modes] == [-2, -1, 0, 1]
