"""Model definition and the closed-form lam = 0 basis.

A single relativistic particle lives on [-a, a] with the confining
boundary conditions

    u(+a) = -v(+a),    u(-a) = +v(-a),

and feels the linear potential V(x) = lam*x.  Natural units (hbar = c = 1)
are used throughout, so energies carry dimension 1/length.

At lam = 0 the first-order system has constant coefficients for every
mass.  With k_j = (2j+1)*pi/(4a) the levels are

    eps_n = +-sqrt(m^2 + k_j^2),   j = n for n >= 0,  j = -n-1 for n < 0,

and, normalised with u(-a) real and positive, the spinor is real:

    u(x) = A*(cos phi + q*sin phi),   v(x) = A*(cos phi - q*sin phi),
    phi = k_j*(x + a),   q = (eps - m)/k_j,   A = 1/sqrt(2a*(1 + q^2)).

u(-a) = v(-a) = A, and cos(2*k_j*a) = 0 gives u(+a) = -v(+a).

In the massless case the combinations w_pm = u +- i v are pure phases,
which quantises the energy to eps_n = (2n+1)*pi/(4a) independently of
lam.  The same real spinor with q = 1 and the phase

    phi(x) = lam*(a^2 - x^2)/2 + eps*(x + a)

solves the massless problem at every lam, with the constant density
u^2 + v^2 = 1/(2a).

Quadrature: all integrals over [-a, a] use composite 32-node
Gauss-Legendre panels, with enough panels that the phase budget
lam*a^2/2 + |eps|*a of the integrand advances less than pi per panel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "BagConfig",
    "Mode",
    "ClosedFormMode",
    "massless_levels",
    "lam0_basis",
    "closed_form_mode",
    "eval_mode",
    "overlap",
    "panel_quadrature",
    "mode_phase_budget",
]

GAUSS_NODES_PER_PANEL = 32

_BASE_RULE = np.polynomial.legendre.leggauss(GAUSS_NODES_PER_PANEL)


@dataclass(frozen=True)
class BagConfig:
    """Physical parameters: half-width a > 0, mass >= 0, coupling lam."""

    a: float = 1.0
    mass: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
        for name in ("a", "mass", "lam"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.a > 0.0):
            raise ValueError(f"half-width a must be positive, got {self.a}")
        if self.mass < 0.0:
            raise ValueError(f"mass must be non-negative, got {self.mass}")

    def without_potential(self) -> "BagConfig":
        return BagConfig(a=self.a, mass=self.mass, lam=0.0)


@dataclass(frozen=True)
class Mode:
    """One normalised single-particle eigenstate.

    ``spinor`` maps x (scalar or array, |x| <= a) to the pair (u, v);
    ``norm_check`` is the residual |integral(|u|^2 + |v|^2) - 1| obtained
    with the module quadrature rule.
    """

    index: int
    energy: float
    spinor: Callable[[np.ndarray], tuple]
    norm_check: float
    config: BagConfig

    def density(self, x):
        u, v = self.spinor(x)
        return np.abs(u) ** 2 + np.abs(v) ** 2


@dataclass(frozen=True)
class ClosedFormMode:
    """Analytic mode u = A(cos phi + q sin phi), v = A(cos phi - q sin phi)
    with phi = lam*(a^2 - x^2)/2 + k*(x + a) (see the module docstring)."""

    energy: float
    k: float
    q: float
    mass: float
    lam: float
    a: float

    def as_mode(self, index: int) -> Mode:
        cfg = BagConfig(a=self.a, mass=self.mass, lam=self.lam)
        spinor = lambda x: eval_mode(self, x)
        # The spinor is normalised by construction; the quadrature residual
        # is recomputed anyway as a sanity value.
        xs, ws = panel_quadrature(self.a, mode_phase_budget(self.energy, self.lam, self.a) * 2.0)
        u, v = eval_mode(self, xs)
        norm = float(np.sum(ws * (u * u + v * v)))
        return Mode(index=index, energy=self.energy, spinor=spinor,
                    norm_check=abs(norm - 1.0), config=cfg)


def massless_levels(a: float, n_lo: int, n_hi: int) -> np.ndarray:
    """Energies eps_n = (2n+1)*pi/(4a) for n = n_lo..n_hi (inclusive)."""
    if not (a > 0.0):
        raise ValueError(f"half-width a must be positive, got {a}")
    if n_lo > n_hi:
        raise ValueError(f"need n_lo <= n_hi, got {n_lo} > {n_hi}")
    n = np.arange(n_lo, n_hi + 1)
    return (2 * n + 1) * (math.pi / (4.0 * a))


def lam0_basis(a: float, mass: float, n):
    """Energies eps_n, wavenumbers k_j and ratios q = (eps - m)/k of the
    lam = 0 levels n (scalar or array).

    q is taken as k/(eps + m) for eps > 0, which avoids the cancellation
    in eps - m; at mass = 0 it is exactly +-1 and eps_n is exactly the
    ``massless_levels`` value.
    """
    n = np.asarray(n)
    j = np.where(n >= 0, n, -n - 1)
    k = (2 * j + 1) * (math.pi / (4.0 * a))
    e = np.hypot(mass, k)
    energies = np.where(n >= 0, e, -e)
    q = np.where(n >= 0, k / (e + mass), -(e + mass) / k)
    return energies, k, q


def closed_form_mode(n: int, lam: float, a: float, mass: float = 0.0) -> ClosedFormMode:
    """Normalised mode for level n with the u(-a) > 0 convention.

    Closed forms exist for mass = 0 at any lam and for lam = 0 at any mass.
    """
    if not (a > 0.0):
        raise ValueError(f"half-width a must be positive, got {a}")
    if mass != 0.0 and lam != 0.0:
        raise ValueError(f"no closed form for mass = {mass} and lam = {lam}; "
                         "one of them must be zero")
    eps, k, q = (float(v) for v in lam0_basis(a, mass, n))
    if mass == 0.0:
        # q = 1 with the signed phase eps*(x + a) holds at every lam.
        k, q = eps, 1.0
    return ClosedFormMode(energy=eps, k=k, q=q, mass=mass, lam=lam, a=a)


def eval_mode(mode: ClosedFormMode, x):
    """Real spinor (u, v) of a closed-form mode at x."""
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > mode.a * (1.0 + 1e-12)):
        raise ValueError(f"evaluation point outside [-a, a], a={mode.a}")
    phase = 0.5 * mode.lam * (mode.a * mode.a - x * x) + mode.k * (x + mode.a)
    c, s = np.cos(phase), np.sin(phase)
    amp = 1.0 / math.sqrt(2.0 * mode.a * (1.0 + mode.q * mode.q))
    return amp * (c + mode.q * s), amp * (c - mode.q * s)


def mode_phase_budget(energy: float, lam: float, a: float) -> float:
    """Oscillation budget lam*a^2/2 + |eps|*a of one mode over [-a, a]."""
    return 0.5 * abs(lam) * a * a + abs(energy) * a


def panel_quadrature(a: float, phase_budget: float):
    """Composite Gauss-Legendre rule on [-a, a].

    The panel count keeps the given phase budget below pi per panel, so
    oscillatory mode products are resolved to near machine precision by
    the 32-node panels.
    """
    n_panels = max(1, int(math.ceil(phase_budget / math.pi)) + 1)
    base_x, base_w = _BASE_RULE
    edges = np.linspace(-a, a, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    xs = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    ws = (half[:, None] * base_w[None, :]).ravel()
    return xs, ws


def overlap(mode_j: Mode, mode_k: Mode) -> complex:
    """Inner product integral(conj(u_j)*u_k + conj(v_j)*v_k) dx."""
    if mode_j.config != mode_k.config:
        raise ValueError(
            f"modes belong to different configurations: {mode_j.config} vs {mode_k.config}")
    a = mode_j.config.a
    lam = mode_j.config.lam
    budget = (mode_phase_budget(mode_j.energy, lam, a)
              + mode_phase_budget(mode_k.energy, lam, a))
    xs, ws = panel_quadrature(a, budget)
    uj, vj = mode_j.spinor(xs)
    uk, vk = mode_k.spinor(xs)
    val = np.sum(ws * (np.conj(uj) * uk + np.conj(vj) * vk))
    return complex(val)
