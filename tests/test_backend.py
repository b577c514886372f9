"""The propagator: shapes, and chunked stepping against a plain step loop."""

import numpy as np
import pytest

from diracbag import backend


def test_backend_name_valid():
    assert backend.backend_name() == "python"


def test_propagate_batch_shapes():
    eps = np.linspace(0.1, 2.0, 17)
    out = backend.propagate_batch(eps, 1.0, 0.5, -1.0, 1.0, 1.0, 1.0, 32)
    assert len(out) == 4    # u, v, theta, norm
    for arr in out:
        assert arr.shape == eps.shape and np.all(np.isfinite(arr))


@pytest.mark.parametrize("lam", [0.5, 5.0])
def test_massless_angle_and_norm(lam):
    # At mass = 0 theta' = lam*x - eps and u^2 + v^2 is constant, so
    # theta(a) = pi/4 - 2*a*eps and the norm integral is 2*a*r^2.  64 steps
    # keep every turn below pi/2 up to |eps| = 9.
    a = 1.3
    eps = np.linspace(-9.0, 9.0, 19)
    r = 1.0 / np.sqrt(2.0)
    _, _, theta, norm = backend.propagate_batch(eps, 0.0, lam, -a, a, r, r, 64)
    assert np.max(np.abs(theta - (np.pi / 4 - 2 * a * eps))) < 1e-12
    assert np.max(np.abs(norm - 2 * a)) < 1e-12


def test_trace_shape():
    xs, us, vs = backend.propagate_trace(1.3, 1.0, 0.5, -1.0, 1.0, 1.0, 1.0, 50)
    assert len(xs) == len(us) == len(vs) == 51


def _reference_states(eps, mass, lam, x0, x1, u0, v0, n_steps):
    """States after every step of a plain loop, one Magnus-6 step at a time.

    Written out independently of ``backend.step_matrices``; returns the
    states and how many lane-steps took the small-|mu| series.
    """
    eps = np.asarray(eps, dtype=float)
    u = np.full(eps.shape, float(u0))
    v = np.full(eps.shape, float(v0))
    states = [(u, v)]
    series = 0
    h = (x1 - x0) / n_steps
    for i in range(n_steps):
        q2 = lam * (x0 + i * h + 0.5 * h) - eps
        h2 = h * h
        h3 = h2 * h
        h5 = h3 * h2
        h7 = h5 * h2
        lm = lam * mass
        om_j = h * q2 + lam * lm * mass * q2 * h7 / 900.0
        om_1 = -lm * h3 / 6.0 - lm * (q2 * q2 - mass * mass) * h5 / 90.0
        om_3 = -h * mass + lam * lm * h5 / 60.0 - lam * lm * mass * mass * h7 / 900.0
        mu = om_1 * om_1 + om_3 * om_3 - om_j * om_j
        theta = np.sqrt(np.abs(mu))
        with np.errstate(invalid="ignore", divide="ignore"):
            c = np.where(mu >= 0.0, np.cosh(theta), np.cos(theta))
            s = np.where(mu >= 0.0,
                         np.where(theta > 0.0, np.sinh(theta) / np.where(theta > 0, theta, 1.0), 1.0),
                         np.sin(theta) / np.where(theta > 0, theta, 1.0))
        small = np.abs(mu) < 1.0e-8
        series += int(np.sum(small))
        mus = np.where(small, mu, 0.0)
        c = np.where(small, 1.0 + mus / 2.0 + mus * mus / 24.0, c)
        s = np.where(small, 1.0 + mus / 6.0 + mus * mus / 120.0, s)
        u, v = ((c + s * om_3) * u + s * (om_1 - om_j) * v,
                s * (om_1 + om_j) * u + (c - s * om_3) * v)
        states.append((u, v))
    return states, series


@pytest.mark.parametrize("lanes", [1, 3, 300])
@pytest.mark.parametrize("n_steps", [1, 97, "two_chunks"])
def test_chunked_propagation_is_bit_identical_to_step_loop(lanes, n_steps):
    if n_steps == "two_chunks":
        n_steps = backend._CHUNK // lanes + 5
    eps = np.linspace(-9.0, 9.0, lanes) if lanes > 1 else np.array([2.3])
    args = (1.0, 1.3, -1.0, 1.0, 0.8, -0.6, n_steps)
    states, _ = _reference_states(eps, *args)
    u, v, *_ = backend.propagate_batch(eps, *args)
    assert np.array_equal(u, states[-1][0]) and np.array_equal(v, states[-1][1])
    # The trace of one lane records every reference state, and its end is
    # what propagate_batch returns for that lane.
    xs, us, vs = backend.propagate_trace(float(eps[-1]), *args)
    assert len(xs) == n_steps + 1
    assert np.array_equal(us, [st[0][-1] for st in states])
    assert np.array_equal(vs, [st[1][-1] for st in states])
    assert us[-1] == u[-1] and vs[-1] == v[-1]


@pytest.mark.parametrize("lanes", [1, 3, 300])
def test_angle_and_norm_against_step_loop(lanes):
    # theta is the unwrapped atan2 of the states (every step turns less
    # than pi/2 here); the norm is the trapezoid rule summed step by step.
    n_steps = max(97, backend._CHUNK // lanes + 5)    # more than one chunk
    eps = np.linspace(-9.0, 9.0, lanes) if lanes > 1 else np.array([2.3])
    args = (1.0, 1.3, -1.0, 1.0, 0.8, -0.6, n_steps)
    states, _ = _reference_states(eps, *args)
    us = np.array([st[0] for st in states])
    vs = np.array([st[1] for st in states])
    r2 = us * us + vs * vs
    total = r2[0]
    for row in r2[1:]:
        total = total + row
    h = 2.0 / n_steps
    _, _, theta, norm = backend.propagate_batch(eps, *args)
    assert np.max(np.abs(np.diff(np.unwrap(np.arctan2(vs, us), axis=0), axis=0))) < np.pi / 2
    assert np.max(np.abs(theta - np.unwrap(np.arctan2(vs, us), axis=0)[-1])) < 1e-12
    assert np.array_equal(norm, h * (total - 0.5 * (r2[0] + r2[-1])))


def test_lane_results_do_not_depend_on_the_batch():
    # A lane alone is chunked differently from the same lane among 301,
    # and every output must still agree to the last bit.
    eps = np.linspace(-7.0, 7.0, 301)
    args = (1.2, 0.9, -1.1, 1.1, 0.7, 0.7, 600)
    full = backend.propagate_batch(eps, *args)
    for i in (0, 150, 300):
        alone = backend.propagate_batch(eps[i:i + 1], *args)
        assert all(f[i] == a[0] for f, a in zip(full, alone))


def test_series_branch_is_bit_identical_to_step_loop():
    # eps = +-mass at lam = 0 gives mu = 0: the small-|mu| series branch.
    eps = np.array([-2e-5, -1e-5, 0.3, 1e-5, 2e-5])
    args = (1e-5, 0.0, -1.0, 1.0, 0.8, -0.6, 7)
    states, series = _reference_states(eps, *args)
    assert series > 0
    u, v, *_ = backend.propagate_batch(eps, *args)
    assert np.array_equal(u, states[-1][0]) and np.array_equal(v, states[-1][1])
