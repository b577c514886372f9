"""Perturbation theory: matrix elements, prescriptions, exact-shift checks.

Frozen regression values (independent derivations in comments):

* <0|x|1> for the massless box equals -4a/pi^2: the mode pair density is
  cos(delta*(x+a))/(2a) with delta = pi/(2a), integrated against x.
* The massive (m=1, lam=0) ground state has closed-form density
  cos^2(k(x+a)) + q^2 sin^2(k(x+a)), k = pi/4, q = (eps0-1)/k, giving
  <0|x|0> = -(1-q^2) / (4k^2(1+q^2)).
* The converged Pauli-restricted sum for a=1, lam=1 equals
  -(32/pi^5) * sum_{odd j} j^-5 = -31*zeta(5)/pi^5.
"""

import math

import numpy as np
import pytest
from scipy.special import zeta

from diracbag import bagmodel as bm
from diracbag import oracle
from diracbag import perturb as pt
from diracbag import shooting as sh


X01_SQUARED = 0.16425571607494929        # = 16/pi^4
X00_MASSIVE = -0.31873176193711678       # closed form above, m=1, a=1
W_PAULI = -0.10504147938064452           # = -31*zeta(5)/pi^5, a=1, lam=1


def _massless_mode(n, lam=0.0, a=1.0):
    return bm.closed_form_mode(n, lam, a).as_mode(n)


def test_diagonal_element_vanishes_massless():
    m0 = _massless_mode(0)
    assert abs(pt.x_matrix_element(m0, m0)) < 1e-12


def test_hermiticity_random_pairs(rng):
    modes = {n: _massless_mode(n) for n in range(-6, 7)}
    for _ in range(10):
        j, k = rng.integers(-6, 7, size=2)
        ejk = pt.x_matrix_element(modes[j], modes[k])
        ekj = pt.x_matrix_element(modes[k], modes[j])
        assert abs(ejk - np.conj(ekj)) < 1e-12


def test_ground_offdiagonal_element_frozen():
    el = pt.x_matrix_element(_massless_mode(0), _massless_mode(1))
    assert abs(abs(el) ** 2 - X01_SQUARED) < 1e-13
    assert abs(abs(el) ** 2 - 16.0 / math.pi ** 4) < 1e-13


def test_ground_element_against_oracle_eigenvectors():
    # Same element from the independent discretisation, two resolutions.
    cfg = bm.BagConfig(1.0, 0.0, 0.0)
    vals = []
    for n_nodes in (1000, 2000):
        op = oracle.discretize(cfg, n_nodes)
        m0, m1 = oracle.eigen(op, (0.1, 3.0))[:2]
        i0, i1 = m0.interpolator(), m1.interpolator()
        xs, ws = bm.panel_quadrature(1.0, 4.0)
        u0, v0 = i0(xs)
        u1, v1 = i1(xs)
        vals.append(float(np.sum(ws * xs * (u0 * u1 + v0 * v1))))
    for v in vals:
        assert abs(v ** 2 - X01_SQUARED) < 5e-5
    assert abs(vals[1] ** 2 - X01_SQUARED) < abs(vals[0] ** 2 - X01_SQUARED)


def test_element_selection_rule():
    # Even index differences integrate to zero.
    assert abs(pt.x_matrix_element(_massless_mode(0), _massless_mode(2))) < 1e-13
    assert abs(pt.x_matrix_element(_massless_mode(-1), _massless_mode(3))) < 1e-13


def test_mismatched_basis_rejected():
    with pytest.raises(ValueError):
        pt.x_matrix_element(_massless_mode(0, a=1.0), _massless_mode(0, a=2.0))


def test_first_order_massless_vanishes():
    for lam in (0.5, 2.0):
        w1 = pt.first_order(bm.BagConfig(1.0, 0.0, lam), 0)
        assert abs(w1) < 1e-12 * lam


def test_first_order_zero_coupling_exact():
    assert pt.first_order(bm.BagConfig(1.0, 1.0, 0.0), 3) == 0.0


def test_first_order_massive_frozen():
    w1 = pt.first_order(bm.BagConfig(1.0, 1.0, 0.1), 0)
    assert abs(w1 - 0.1 * X00_MASSIVE) < 1e-12


def test_first_order_massive_against_oracle():
    op = oracle.discretize(bm.BagConfig(1.0, 1.0, 0.0), 4000)
    mode0 = oracle.eigen(op, (1.0, 2.0))[0]
    interp = mode0.interpolator()
    xs, ws = bm.panel_quadrature(1.0, 5.0)
    u, v = interp(xs)
    x00 = float(np.sum(ws * xs * (u * u + v * v)))
    # raw N=4000 eigenvectors carry the O(h) discretisation error
    assert abs(x00 - X00_MASSIVE) < 2e-3 * abs(X00_MASSIVE)


def test_level_restriction_and_cutoff_validation():
    cfg = bm.BagConfig(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        pt.second_order(cfg, 1, pt.FEYNMAN, 100)
    with pytest.raises(ValueError):
        pt.second_order(cfg, 0, pt.FEYNMAN, 3)
    with pytest.raises(ValueError):
        pt.second_order(cfg, 0, pt.FEYNMAN, 100, scheme="diagonal")


def test_pairwise_cancellation_elements():
    cfg = bm.BagConfig(1.0, 0.0, 1.0)
    energies, elements = pt._ground_row(cfg, 50)
    c = 50
    for k in range(1, 51):
        assert abs(abs(elements[c + k]) - abs(elements[c - k])) < 1e-12


@pytest.mark.parametrize("a", (1.0, 1.7))
def test_massless_ground_row_closed_form_against_quadrature(a):
    cfg = bm.BagConfig(a, 0.0, 1.0)
    c = 100
    energies, elements = pt._ground_row(cfg, c)
    np.testing.assert_array_equal(energies, bm.massless_levels(a, -c, c))
    m0 = _massless_mode(0, a=a)
    for k in range(-c, c + 1):
        quad = pt.x_matrix_element(m0, _massless_mode(k, a=a))
        assert abs(elements[c + k] - quad.real) < 1e-15 * a
        if k % 2 == 0:
            assert elements[c + k] == 0.0
            assert math.copysign(1.0, elements[c + k]) == 1.0
    sums = pt.second_order(cfg, 0, pt.FEYNMAN, 2000).partial_sums["feynman"]
    assert np.all(sums == 0.0)


@pytest.mark.parametrize("a, mass", [(1.0, 1.0), (1.13, 0.7)])
def test_massive_ground_row_closed_form_against_shooting(a, mass):
    # The shooting solver stays the reference for the closed-form basis.
    cfg = bm.BagConfig(a, mass, 0.3)
    c = 20
    energies, elements = pt._ground_row(cfg, c)
    base = cfg.without_potential()
    bound = math.hypot(mass, (2 * c + 2) * math.pi / (4 * a))  # between levels c, c+1
    modes = {m.index: m for window in ((0.0, bound), (-bound, 0.0))
             for m in sh.find_levels(base, window).modes}
    assert set(modes) == set(range(-c - 1, c + 1))
    for k in range(-c, c + 1):
        assert abs(energies[c + k] - modes[k].energy) < 1e-12
        quad = pt.x_matrix_element(modes[0], modes[k])
        assert abs(elements[c + k] - quad.real) < 1e-13


def test_second_order_first_order_slot():
    # w_first comes from the row's k = 0 slot; it must agree with the
    # quadrature first_order and never carry a signed zero.
    massless = bm.BagConfig(1.0, 0.0, 1.0)
    assert pt.second_order(massless, 0, pt.PAULI, 16).w_first == 0.0
    assert abs(pt.first_order(massless, 0)) < 1e-12
    massive = bm.BagConfig(1.0, 1.0, 0.1)
    w1 = pt.second_order(massive, 0, pt.PAULI, 8).w_first
    assert abs(w1 - 0.1 * X00_MASSIVE) < 1e-12
    assert abs(w1 - pt.first_order(massive, 0)) < 1e-12
    for cfg in (bm.BagConfig(1.0, 0.0, 0.0), bm.BagConfig(1.0, 1.0, 0.0),
                bm.BagConfig(1.0, 0.0, -1.0)):
        w1 = pt.second_order(cfg, 0, pt.FEYNMAN, 8).w_first
        assert w1 == 0.0 and math.copysign(1.0, w1) == 1.0


def test_massive_row_independent_of_call_history():
    cfg = bm.BagConfig(1.0, 1.0, 0.01)
    fresh = pt.second_order(cfg, 0, pt.PAULI, 8)
    pt.second_order(cfg, 0, pt.PAULI, 32)
    again = pt.second_order(cfg, 0, pt.PAULI, 8)
    assert again.w_first == fresh.w_first
    assert again.w_second == fresh.w_second


def test_feynman_partial_sums_cancel_massless():
    cfg = bm.BagConfig(1.0, 0.0, 1.0)
    rep = pt.second_order(cfg, 0, pt.FEYNMAN, 300)
    sums = rep.partial_sums["feynman"]
    assert np.max(np.abs(sums)) < 1e-10 * cfg.lam ** 2 * cfg.a ** 3
    assert rep.converged["feynman"]


def test_pauli_sum_strictly_negative_and_frozen():
    cfg = bm.BagConfig(1.0, 0.0, 1.0)
    rep = pt.second_order(cfg, 0, pt.PAULI, 600)
    sums = rep.partial_sums["pauli"]
    assert np.all(np.diff(sums) <= 0.0)           # every term <= 0
    assert rep.w_second["pauli"] < -1e-3
    assert abs(rep.w_extrapolated["pauli"] - W_PAULI) < 1e-12
    assert abs(W_PAULI + 31.0 * zeta(5) / math.pi ** 5) < 1e-15


def test_zero_coupling_shift_is_exactly_zero():
    # +0.0, not the -0.0 of 0.0 over a negative gap, in sums and traces.
    for mass in (0.0, 1.0):
        cfg = bm.BagConfig(1.0, mass, 0.0)
        for prescription in (pt.PAULI, pt.FEYNMAN):
            rep = pt.second_order(cfg, 0, prescription, 50)
            w = rep.w_second[prescription.value]
            assert w == 0.0 and math.copysign(1.0, w) == 1.0
        for trace in pt.convergence_traces(cfg, 16):
            assert not np.any(np.signbit(trace["partial_sums"]))


def test_lam_squared_scaling_exact():
    r01 = pt.second_order(bm.BagConfig(1.0, 0.0, 0.1), 0, pt.PAULI, 200)
    r1 = pt.second_order(bm.BagConfig(1.0, 0.0, 1.0), 0, pt.PAULI, 200)
    ratio = r01.w_second["pauli"] / r1.w_second["pauli"]
    assert abs(ratio - 0.01) < 1e-6 * 0.01


def test_ground_row_built_once(monkeypatch):
    calls = []
    row = pt._ground_row

    def counted(cfg, cutoff):
        calls.append(cutoff)
        return row(cfg, cutoff)

    monkeypatch.setattr(pt, "_ground_row", counted)
    cfg = bm.BagConfig(1.0, 1.0, 0.1)
    pt.second_order(cfg, 0, pt.PAULI, 64)
    assert calls == [64]
    pt.compare(cfg, 0, 64)
    assert calls == [64, 64]


def test_prescription_difference_equals_sea_sum():
    cfg = bm.BagConfig(1.0, 0.0, 1.0)
    t_pos, t_neg, _ = pt._term_arrays(cfg, 200)
    rf = pt.second_order(cfg, 0, pt.FEYNMAN, 200)
    rp = pt.second_order(cfg, 0, pt.PAULI, 200)
    diff = rf.w_second["feynman"] - rp.w_second["pauli"]
    assert abs(diff - float(np.sum(t_neg))) < 1e-12


def test_asymmetric_scheme_moves_feynman_sums():
    cfg = bm.BagConfig(1.0, 0.0, 1.0)
    sym = pt.second_order(cfg, 0, pt.FEYNMAN, 200, scheme=pt.SYMMETRIC)
    asym = pt.second_order(cfg, 0, pt.FEYNMAN, 200, scheme=pt.ASYMMETRIC)
    assert abs(asym.w_second["feynman"]) > 1e-12
    assert abs(sym.w_second["feynman"]) < 1e-14
    assert not asym.converged["feynman"]  # converged requires the symmetric scheme


def test_convergence_traces_structure():
    cfg = bm.BagConfig(1.0, 0.0, 1.0)
    traces = pt.convergence_traces(cfg, 64)
    kinds = {(t["prescription"], t["scheme"]) for t in traces}
    assert kinds == {("feynman", "symmetric"), ("feynman", "asymmetric"),
                     ("pauli", "symmetric")}
    for t in traces:
        assert len(t["partial_sums"]) == 64


def test_compare_massless_verdicts():
    rep = pt.compare(bm.BagConfig(1.0, 0.0, 1.0), 0, 400)
    assert abs(rep.w_exact) < 1e-10
    assert rep.agreement["feynman"] < 1e-8
    assert rep.agreement["pauli"] > 1e-3
    assert rep.matches_exact == {"pauli": False, "feynman": True}


def test_compare_zero_coupling_all_zero():
    rep = pt.compare(bm.BagConfig(1.0, 0.0, 0.0), 0, 50)
    assert rep.w_exact == 0.0
    assert rep.w_second == {"pauli": 0.0, "feynman": 0.0}
    assert rep.w_first == 0.0


def test_exact_shift_consistent_with_pt_through_second_order():
    # |W - W1 - W2| should be bounded by the cubic term; the coefficient is
    # estimated from the smaller-lam run and must carry over.
    diffs = {}
    for lam in (1e-2, 1e-3):
        rep = pt.compare(bm.BagConfig(1.0, 1.0, lam), 0, 120)
        diffs[lam] = abs(rep.w_exact - rep.w_first - rep.w_second["feynman"])
    c_small = diffs[1e-3] / 1e-9
    assert diffs[1e-2] <= 2.0 * c_small * 1e-6
    assert diffs[1e-2] >= 0.5 * c_small * 1e-6


def test_unperturbed_modes_massive_indexing():
    modes = pt.unperturbed_modes(bm.BagConfig(1.0, 1.0, 0.7), [-2, -1, 0, 3])
    assert set(modes) == {-2, -1, 0, 3}
    ks = (2 * np.arange(4) + 1) * math.pi / 4
    assert modes[0].energy == pytest.approx(math.sqrt(1 + ks[0] ** 2), abs=1e-11)
    assert modes[3].energy == pytest.approx(math.sqrt(1 + ks[3] ** 2), abs=1e-11)
    assert modes[-1].energy == pytest.approx(-math.sqrt(1 + ks[0] ** 2), abs=1e-11)
    assert modes[-2].energy == pytest.approx(-math.sqrt(1 + ks[1] ** 2), abs=1e-11)
