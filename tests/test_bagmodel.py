"""Closed-form modes: massless spectrum, lam = 0 basis, quadrature, overlaps."""

import math

import numpy as np
import pytest

from diracbag import bagmodel as bm
from diracbag import shooting


def test_massless_levels_values():
    got = bm.massless_levels(1.0, 0, 2)
    assert np.allclose(got, [math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4], rtol=0, atol=0)
    assert bm.massless_levels(2.0, 0, 0)[0] == math.pi / 8
    assert bm.massless_levels(1.0, -1, -1)[0] == -math.pi / 4


def test_massless_levels_uniform_spacing():
    levels = bm.massless_levels(0.7, -15, 15)
    spacing = np.diff(levels)
    # uniform to the last ulp of the level magnitudes
    assert np.max(np.abs(spacing - math.pi / (2 * 0.7))) < 1e-13


def test_massless_levels_charge_conjugation():
    levels = bm.massless_levels(1.3, -10, 9)
    assert np.allclose(np.sort(-levels), levels, rtol=0, atol=0)


def test_massless_levels_validation():
    with pytest.raises(ValueError):
        bm.massless_levels(-1.0, 0, 3)
    with pytest.raises(ValueError):
        bm.massless_levels(1.0, 3, 0)


def test_quantisation_identity():
    # Dividing the two amplitude relations forces exp(4i*eps*a) = -1.
    for a in (0.5, 1.0, 2.0):
        for eps in bm.massless_levels(a, -20, 20):
            assert abs(np.exp(4j * eps * a) + 1.0) < 1e-12


@pytest.mark.parametrize("n, lam, a, mass", [
    (0, 0.0, 1.0, 0.0), (0, 3.0, 1.0, 0.0), (1, 1.0, 1.0, 0.0), (-2, 2.5, 0.7, 0.0),
    (0, 0.0, 1.0, 1.0), (3, 0.0, 1.13, 0.7), (-3, 0.0, 1.13, 0.7), (-1, 0.0, 0.8, 2.0)])
def test_closed_form_spinor_solves_dirac_equation(n, lam, a, mass):
    # Fourth-order central differences of the spinor against shooting.rhs,
    # and both boundary conditions.
    mode = bm.closed_form_mode(n, lam, a, mass)
    spinor = lambda x: np.array(bm.eval_mode(mode, x))
    h = 1e-3
    xs = np.linspace(-a + 2 * h, a - 2 * h, 41)
    der = (spinor(xs - 2 * h) - 8 * spinor(xs - h)
           + 8 * spinor(xs + h) - spinor(xs + 2 * h)) / (12 * h)
    rhs = shooting.rhs(xs, spinor(xs), mode.energy, bm.BagConfig(a, mass, lam))
    assert np.max(np.abs(der - np.array(rhs))) < 1e-8
    u_l, v_l = bm.eval_mode(mode, -a)
    u_r, v_r = bm.eval_mode(mode, a)
    assert u_l == v_l and u_l > 0.0
    assert abs(u_r + v_r) < 1e-15


def test_energy_does_not_depend_on_lam():
    for n in (-3, 0, 5):
        energies = {bm.closed_form_mode(n, lam, 1.0).energy for lam in (0.0, 0.5, 3.0, 11.0)}
        assert len(energies) == 1  # bit-for-bit identical


def test_pure_phase_components():
    # |w_pm| must be x-independent.
    m = bm.closed_form_mode(2, 4.0, 1.0)
    xs = np.linspace(-1.0, 1.0, 257)
    u, v = bm.eval_mode(m, xs)
    w_plus = u + 1j * v
    w_minus = u - 1j * v
    assert np.ptp(np.abs(w_plus)) < 1e-14
    assert np.ptp(np.abs(w_minus)) < 1e-14


def test_uniform_density_and_boundary_conditions():
    for (n, lam, a) in [(0, 0.0, 1.0), (0, 3.0, 1.0), (1, 1.0, 1.0), (-4, 7.0, 0.5)]:
        mode = bm.closed_form_mode(n, lam, a)
        xs = np.linspace(-a, a, 1001)
        u, v = bm.eval_mode(mode, xs)
        rho = np.abs(u) ** 2 + np.abs(v) ** 2
        assert np.max(np.abs(rho - 1.0 / (2 * a))) < 1e-10
        assert abs(u[-1] + v[-1]) < 1e-12   # u(+a) = -v(+a)
        assert abs(u[0] - v[0]) < 1e-12     # u(-a) = +v(-a)


def test_phase_convention_u_left_real_positive():
    for (n, lam, a) in [(0, 0.0, 1.0), (3, 2.0, 1.5), (-1, 0.3, 0.5)]:
        mode = bm.closed_form_mode(n, lam, a)
        u, _ = bm.eval_mode(mode, -a)
        assert abs(np.imag(u)) < 1e-15
        assert np.real(u) > 0.0


def test_eval_mode_domain_error():
    mode = bm.closed_form_mode(0, 0.0, 1.0)
    with pytest.raises(ValueError):
        bm.eval_mode(mode, 1.5)


def test_eval_mode_matches_shooting_sample():
    mode = bm.closed_form_mode(0, 0.0, 1.0)
    u_cf, v_cf = bm.eval_mode(mode, 0.0)
    spec = shooting.find_levels(bm.BagConfig(1.0, 0.0, 0.0), (0.0, 1.0))
    u_sh, v_sh = spec.mode(0).spinor(0.0)
    assert abs(complex(u_cf) - complex(u_sh)) < 1e-9
    assert abs(complex(v_cf) - complex(v_sh)) < 1e-9


@pytest.mark.parametrize("a, mass", [(1.0, 1.0), (1.13, 0.7)])
def test_closed_form_massive_modes_match_shooting(a, mass):
    cfg = bm.BagConfig(a, mass, 0.0)
    spec = shooting.find_levels(cfg, (-6.1, 6.1))
    assert len(spec.modes) >= 6
    xs = np.linspace(-a, a, 201)
    for mode in spec.modes:
        cf = bm.closed_form_mode(mode.index, 0.0, a, mass)
        assert abs(cf.energy - mode.energy) < 1e-12
        u_cf, v_cf = bm.eval_mode(cf, xs)
        u_sh, v_sh = mode.spinor(xs)
        assert np.max(np.abs(u_cf - u_sh)) < 1e-10
        assert np.max(np.abs(v_cf - v_sh)) < 1e-10


def test_closed_form_massive_mode_needs_zero_coupling():
    with pytest.raises(ValueError):
        bm.closed_form_mode(0, 0.5, 1.0, 1.0)


def test_overlap_orthonormality():
    a = 1.0
    modes = {n: bm.closed_form_mode(n, 0.0, a).as_mode(n) for n in (-2, -1, 0, 1, 3)}
    assert abs(bm.overlap(modes[0], modes[0]) - 1.0) < 1e-10
    assert abs(bm.overlap(modes[0], modes[1])) < 1e-10
    assert abs(bm.overlap(modes[0], modes[-1])) < 1e-10
    assert abs(bm.overlap(modes[-2], modes[3])) < 1e-10


def test_overlap_orthonormality_with_potential_basis():
    # The closed-form modes stay orthonormal for lam != 0.
    modes = {n: bm.closed_form_mode(n, 2.0, 1.0).as_mode(n) for n in (0, 1, -1)}
    assert abs(bm.overlap(modes[0], modes[0]) - 1.0) < 1e-10
    assert abs(bm.overlap(modes[0], modes[1])) < 1e-10
    assert abs(bm.overlap(modes[1], modes[-1])) < 1e-10


def test_overlap_rejects_mismatched_configs():
    m1 = bm.closed_form_mode(0, 0.0, 1.0).as_mode(0)
    m2 = bm.closed_form_mode(0, 1.0, 1.0).as_mode(0)
    with pytest.raises(ValueError):
        bm.overlap(m1, m2)


def test_config_validation():
    with pytest.raises(ValueError):
        bm.BagConfig(a=-1.0)
    with pytest.raises(ValueError):
        bm.BagConfig(a=1.0, mass=-0.5)
    for bad in ({"a": math.inf}, {"mass": math.nan}, {"lam": math.nan}, {"lam": -math.inf}):
        with pytest.raises(ValueError):
            bm.BagConfig(**bad)


def test_norm_check_small():
    mode = bm.closed_form_mode(5, 3.0, 1.0).as_mode(5)
    assert mode.norm_check < 1e-12


def test_eval_mode_scalar_array_consistency():
    mode = bm.closed_form_mode(2, 1.5, 1.0)
    xs = np.array([-1.0, -0.3, 0.0, 0.7, 1.0])
    u_arr, v_arr = bm.eval_mode(mode, xs)
    for i, x in enumerate(xs):
        u, v = bm.eval_mode(mode, x)
        # scalar and vectorised libm paths may differ in the last ulp
        assert abs(complex(u) - u_arr[i]) < 1e-15
        assert abs(complex(v) - v_arr[i]) < 1e-15


def test_mode_density_helper():
    mode = bm.closed_form_mode(0, 0.0, 2.0).as_mode(0)
    xs = np.linspace(-2.0, 2.0, 11)
    assert np.max(np.abs(mode.density(xs) - 0.25)) < 1e-12
