"""Propagator correctness: exact special cases, expm reference, order."""

import numpy as np
import scipy.linalg as sla

from diracbag import backend


def _propagate(eps, mass, lam, n_steps, state=(1.0, 1.0)):
    return np.array(backend.propagate_batch(eps, mass, lam, -1.0, 1.0,
                                            state[0], state[1], n_steps)[:2])


def test_massless_single_step_is_exact_rotation():
    # m = 0: the state rotates by the integral of (lam*x - eps).
    for lam in (0.0, 1.0, 5.0):
        for eps in (0.25 * np.pi, 3.0, 17.2):
            u, v = _propagate(eps, 0.0, lam, 1, state=(1.0, 0.3))
            phi = -2.0 * eps
            expect = np.array([
                np.cos(phi) * 1.0 - np.sin(phi) * 0.3,
                np.sin(phi) * 1.0 + np.cos(phi) * 0.3,
            ])
            assert np.max(np.abs(np.array([u, v]) - expect)) < 5e-15


def test_constant_coefficient_single_step_matches_expm():
    # lam = 0: the generator is constant, one step must be exact.
    for mass in (0.5, 1.0, 2.0):
        for eps in (0.3, 1.7, -2.2):
            gen = np.array([[-mass, eps], [-eps, mass]])
            expect = sla.expm(2.0 * gen) @ np.array([1.0, 0.3])
            got = _propagate(eps, mass, 0.0, 1, state=(1.0, 0.3))
            assert np.max(np.abs(got - expect)) < 1e-12 * np.linalg.norm(expect)


def test_sixth_order_convergence():
    ref = _propagate(5.0, 1.0, 3.0, 20000)
    errs = [np.max(np.abs(_propagate(5.0, 1.0, 3.0, n) - ref)) for n in (50, 100, 200)]
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(rates > 5.7), rates


def test_suggested_steps_reach_tolerance():
    for (mass, lam, eps) in [(1.0, 0.01, 1.5), (1.0, 1.0, 8.0), (2.0, 3.0, 5.0)]:
        n = backend.suggested_steps(1.0, mass, lam, eps, tol=1e-13)
        got = _propagate(eps, mass, lam, n)
        ref = _propagate(eps, mass, lam, 4 * n)
        assert np.max(np.abs(got - ref)) < 1e-13


def test_special_cases_use_one_step():
    assert backend.suggested_steps(1.0, 0.0, 7.0, 30.0) == 1
    assert backend.suggested_steps(1.0, 2.0, 0.0, 30.0) == 1


def test_trace_endpoints_match_plain_propagation():
    xs, us, vs = backend.propagate_trace(2.3, 1.0, 0.7, -1.0, 1.0, 1.0, 1.0, 97)
    u, v, *_ = backend.propagate_batch(2.3, 1.0, 0.7, -1.0, 1.0, 1.0, 1.0, 97)
    assert xs[0] == -1.0 and xs[-1] == 1.0
    assert us[0] == 1.0 and vs[0] == 1.0
    assert abs(us[-1] - u) == 0.0 and abs(vs[-1] - v) == 0.0
