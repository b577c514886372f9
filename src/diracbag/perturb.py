"""Perturbative energy shifts of the one-particle ground state.

The unperturbed basis is the lam = 0 spectrum of the same (a, mass);
the perturbation is V(x) = lam*x.  The second-order shift of level 0 is

    W2 = lam^2 * sum_k |<0|x|k>|^2 / (eps_0 - eps_k)

with the intermediate set depending on the occupancy prescription:

* FEYNMAN  - every level k != 0, positive and negative energies alike;
* PAULI    - only unoccupied levels, i.e. positive energies k = 1..cutoff
  (the negative-energy sea is filled and the valence particle sits in
  level 0).

The Feynman sum is only conditionally convergent in the massless case,
so the summation order is part of the contract: terms are accumulated in
k <-> -k pairs (each pair reduced first), pairs added in ascending k.
Every report records the cutoff scheme; an "asymmetric" scheme (positive
indices to N, negative ones to N/2) is available to expose how the
partial sums move when the pairing is broken.

Matrix elements <j|x|k> are real with the u(-a) > 0 phase convention.
The basis is the closed-form lam = 0 spectrum of ``bagmodel`` for every
mass, and so is the ground row.  With s = x + a, the mode pair density is

    u_0 u_k + v_0 v_k = [w_- cos(j*pi*s/(2a)) + w_+ cos((j+1)*pi*s/(2a))]/(2a),
    w_- = (1 + q_0 q_k)/r,   w_+ = (1 - q_0 q_k)/r,   r = sqrt((1 + q_0^2)(1 + q_k^2)),

where k_j is the wavenumber of level k (j = k for k >= 0, j = -k-1 for
k < 0) and q_k = (eps_k - m)/k_j.  Against x, cos(N*pi*s/(2a))/(2a)
integrates to -4a/(pi^2 N^2) for odd N and to 0 otherwise, so <0|x|k> is
-4a/pi^2 times w/N^2 for the one odd frequency N of j and j+1.  At
mass = 0, q = +-1 makes the weights exactly 1 and 0: <0|x|k> =
-4a/(pi^2 k^2) for odd k and exactly 0 for even k (k = 0 included), and
the gaps are taken as eps_0 - eps_k = -k*pi/(2a).  The row is then exact,
the same on every platform, and each +-k Feynman pair cancels bit for
bit.  ``x_matrix_element`` and ``first_order`` integrate the modes by
quadrature, an independent cross-check of the row formula.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import shooting
from .bagmodel import (BagConfig, Mode, closed_form_mode, lam0_basis,
                       mode_phase_budget, panel_quadrature)

__all__ = [
    "Prescription",
    "PAULI",
    "FEYNMAN",
    "ShiftReport",
    "x_matrix_element",
    "first_order",
    "second_order",
    "compare",
    "convergence_traces",
    "unperturbed_modes",
]


class Prescription(enum.Enum):
    """Intermediate-state occupancy rule for the second-order sum."""

    PAULI = "pauli"        # exclude transitions into the occupied sea
    FEYNMAN = "feynman"    # include every intermediate state except level 0


PAULI = Prescription.PAULI
FEYNMAN = Prescription.FEYNMAN

SYMMETRIC = "symmetric"
ASYMMETRIC = "asymmetric"


@dataclass(frozen=True)
class ShiftReport:
    """First/second-order shifts, partial-sum traces and verdicts."""

    config: BagConfig
    level: int
    cutoff: int
    tol: float
    scheme: str
    w_first: float
    w_second: dict
    partial_sums: dict
    cauchy_residual: dict
    converged: dict
    w_extrapolated: dict = field(default_factory=dict)
    w_exact: float | None = None
    agreement: dict | None = None
    matches_exact: dict | None = None


def _default_tol(cfg: BagConfig) -> float:
    # Dimensionally natural scale of the second-order shift.
    return 1.0e-9 * max(cfg.lam * cfg.lam * cfg.a ** 3, 1.0e-30)


def _require_same_basis(mode_j: Mode, mode_k: Mode) -> None:
    if mode_j.config != mode_k.config:
        raise ValueError(
            f"modes from different configurations: {mode_j.config} vs {mode_k.config}")


def x_matrix_element(mode_j: Mode, mode_k: Mode) -> complex:
    """<j|x|k> = integral x*(conj(u_j) u_k + conj(v_j) v_k) dx."""
    _require_same_basis(mode_j, mode_k)
    cfg = mode_j.config
    budget = (mode_phase_budget(mode_j.energy, cfg.lam, cfg.a)
              + mode_phase_budget(mode_k.energy, cfg.lam, cfg.a))
    xs, ws = panel_quadrature(cfg.a, budget)
    uj, vj = mode_j.spinor(xs)
    uk, vk = mode_k.spinor(xs)
    return complex(np.sum(ws * xs * (np.conj(uj) * uk + np.conj(vj) * vk)))


def unperturbed_modes(cfg: BagConfig, indices) -> dict:
    """Closed-form basis modes of the lam = 0 problem, keyed by level index."""
    return {n: closed_form_mode(n, 0.0, cfg.a, cfg.mass).as_mode(n)
            for n in sorted(set(int(i) for i in indices))}


def _ground_row(cfg: BagConfig, cutoff: int):
    """Energies eps_k and elements <0|x|k> for k in [-cutoff, cutoff].

    Returns (energies, elements) as arrays indexed by k + cutoff; the
    k = 0 element slot holds <0|x|0>.  Both are closed form for every mass
    (see the module docstring).
    """
    ks = np.arange(-cutoff, cutoff + 1)
    energies, _, q = lam0_basis(cfg.a, cfg.mass, ks)
    q0 = q[cutoff]
    j = np.where(ks >= 0, ks, -ks - 1)
    odd = j % 2 == 1
    freq = np.where(odd, j, j + 1).astype(float)
    w = np.where(odd, 1.0 + q0 * q, 1.0 - q0 * q) / np.sqrt((1.0 + q0 * q0) * (1.0 + q * q))
    # Adding +0.0 turns the -0.0 of the vanishing (w = 0) slots into +0.0.
    elements = (-4.0 * cfg.a / math.pi ** 2) * w / (freq * freq) + 0.0
    return energies, elements


def first_order(cfg: BagConfig, level: int) -> float:
    """First-order shift lam * <level|x|level> in the lam = 0 basis."""
    if cfg.lam == 0.0:
        return 0.0
    mode = unperturbed_modes(cfg, [level])[level]
    return cfg.lam * x_matrix_element(mode, mode).real


def _term_arrays(cfg: BagConfig, cutoff: int):
    """Second-order terms t_k = lam^2 |<0|x|k>|^2 / (eps_0 - eps_k) for
    k = 1..cutoff and k = -1..-cutoff, and w_first = lam*<0|x|0>, all
    from one ground row."""
    energies, elements = _ground_row(cfg, cutoff)
    lam2 = cfg.lam * cfg.lam
    ks = np.arange(1, cutoff + 1)
    el_pos = elements[cutoff + ks]
    el_neg = elements[cutoff - ks]
    if cfg.mass == 0.0:
        # eps_0 - eps_{+-k} = -+k*pi/(2a) exactly: with |<0|x|k>| even in k,
        # each +-k Feynman pair then cancels bit for bit.
        den_pos = ks * (-math.pi / (2.0 * cfg.a))
        den_neg = -den_pos
    else:
        e0 = energies[cutoff]
        den_pos = e0 - energies[cutoff + ks]
        den_neg = e0 - energies[cutoff - ks]
    # Adding +0.0 keeps the vanishing terms (lam = 0, even massless k) from
    # being -0.0, the sign of 0.0 divided by a negative gap.
    t_pos = lam2 * el_pos * el_pos / den_pos + 0.0
    t_neg = lam2 * el_neg * el_neg / den_neg + 0.0
    # Adding +0.0 turns the signed zero of lam = 0 (or of lam < 0 at
    # mass = 0) into +0.0.
    w_first = float(cfg.lam * elements[cutoff]) + 0.0
    return t_pos, t_neg, w_first


def _partial_sums(t_pos, t_neg, prescription: Prescription, scheme: str):
    if prescription is Prescription.PAULI:
        return np.cumsum(t_pos)
    if scheme == SYMMETRIC:
        # Reduce each k <-> -k pair first, then accumulate in ascending k.
        return np.cumsum(t_pos + t_neg)
    # Asymmetric: S_N takes positive indices to N, negative ones to N//2.
    cum_pos = np.cumsum(t_pos)
    cum_neg = np.concatenate([[0.0], np.cumsum(t_neg)])
    ns = np.arange(1, len(t_pos) + 1)
    return cum_pos + cum_neg[ns // 2]


def second_order(cfg: BagConfig, level: int, prescription: Prescription,
                 cutoff: int, tol: float | None = None,
                 scheme: str = SYMMETRIC) -> ShiftReport:
    """Second-order shift of the ground state under one prescription.

    Convergence is judged by the Cauchy residual |S_N - S_{N/2}|; a sum
    that fails the criterion is reported with converged=False rather than
    raised.  The converged flag also requires the symmetric scheme, which
    is the declared summation order of this artifact.
    """
    _check_sum_request(level, cutoff, scheme)
    return _report(cfg, level, Prescription(prescription), cutoff, tol, scheme,
                   _term_arrays(cfg, cutoff))


def _check_sum_request(level: int, cutoff: int, scheme: str) -> None:
    if level != 0:
        raise ValueError("second-order shifts are defined here for level 0 "
                         "(ground state of the one-particle sector)")
    if cutoff < 4:
        raise ValueError(f"cutoff must be >= 4, got {cutoff}")
    if scheme not in (SYMMETRIC, ASYMMETRIC):
        raise ValueError(f"unknown cutoff scheme {scheme!r}")


def _report(cfg: BagConfig, level: int, prescription: Prescription, cutoff: int,
            tol: float | None, scheme: str, terms) -> ShiftReport:
    """The second-order report of one prescription from ``_term_arrays``."""
    if tol is None:
        tol = _default_tol(cfg)
    t_pos, t_neg, w_first = terms
    sums = _partial_sums(t_pos, t_neg, prescription, scheme)
    residual = abs(float(sums[-1] - sums[cutoff // 2 - 1]))
    converged = bool(residual < tol and scheme == SYMMETRIC)
    name = prescription.value
    return ShiftReport(
        config=cfg, level=level, cutoff=cutoff, tol=tol, scheme=scheme,
        w_first=w_first,
        w_second={name: float(sums[-1])},
        partial_sums={name: sums},
        cauchy_residual={name: residual},
        converged={name: converged},
        w_extrapolated=_tail_extrapolation(name, sums),
    )


def _tail_extrapolation(name: str, sums: np.ndarray) -> dict:
    """Richardson limit of the partial sums on the 1/N tail.

    The order is estimated empirically from the cutoffs (N/4, N/2, N); a
    non-geometric tail (e.g. the exactly cancelling Feynman sums, or any
    cutoff < 16) yields no extrapolation entry.
    """
    n = len(sums)
    if n < 16:
        return {}
    s4, s2, s1 = sums[n // 4 - 1], sums[n // 2 - 1], sums[-1]
    d1, d2 = s2 - s4, s1 - s2
    if d1 == 0.0 or d2 == 0.0 or (d1 / d2) <= 1.0:
        return {}
    p = math.log2(abs(d1 / d2))
    return {name: float(s1 + d2 / (2.0 ** p - 1.0))}


def compare(cfg: BagConfig, level: int, cutoff: int, tol: float | None = None,
            verdict_tol: float = 1.0e-8) -> ShiftReport:
    """Both prescriptions against the exact shift, with agreement verdicts."""
    _check_sum_request(level, cutoff, SYMMETRIC)
    terms = _term_arrays(cfg, cutoff)
    rep_p = _report(cfg, level, PAULI, cutoff, tol, SYMMETRIC, terms)
    rep_f = _report(cfg, level, FEYNMAN, cutoff, tol, SYMMETRIC, terms)
    w_exact = shooting.exact_shift(cfg, level)
    w_second = {**rep_p.w_second, **rep_f.w_second}
    agreement = {k: abs(w - w_exact) for k, w in w_second.items()}
    return ShiftReport(
        config=cfg, level=level, cutoff=cutoff, tol=rep_p.tol, scheme=SYMMETRIC,
        w_first=rep_p.w_first,
        w_second=w_second,
        partial_sums={**rep_p.partial_sums, **rep_f.partial_sums},
        cauchy_residual={**rep_p.cauchy_residual, **rep_f.cauchy_residual},
        converged={**rep_p.converged, **rep_f.converged},
        w_extrapolated={**rep_p.w_extrapolated, **rep_f.w_extrapolated},
        w_exact=float(w_exact),
        agreement=agreement,
        matches_exact={k: bool(d < verdict_tol) for k, d in agreement.items()},
    )


def convergence_traces(cfg: BagConfig, cutoff: int, tol: float | None = None):
    """Partial-sum traces for both prescriptions and both cutoff schemes.

    Returns a list of dicts {prescription, scheme, cutoffs, partial_sums}
    ready for serialisation (the traces share the term arrays, so this
    costs one row computation).
    """
    if tol is None:
        tol = _default_tol(cfg)
    t_pos, t_neg, _ = _term_arrays(cfg, cutoff)
    out = []
    for prescription in (FEYNMAN, PAULI):
        for scheme in (SYMMETRIC, ASYMMETRIC):
            if prescription is PAULI and scheme == ASYMMETRIC:
                continue  # the Pauli sum has no negative-index terms to split
            sums = _partial_sums(t_pos, t_neg, prescription, scheme)
            out.append({
                "prescription": prescription.value,
                "scheme": scheme,
                "cutoffs": np.arange(1, cutoff + 1),
                "partial_sums": sums,
                "cauchy_residual": abs(float(sums[-1] - sums[cutoff // 2 - 1])),
            })
    return out
