"""Shooting eigensolver for arbitrary (mass, lam), labelled by the Pruefer angle.

Integrations start at x = -a from (u, v) = (1, 1)/sqrt(2), which meets
u(-a) = v(-a) exactly.  The system (the mass couples off-diagonally, so the
massive spectrum is NOT even in lam) and the Pruefer angle theta = atan2(v, u)

    du/dx = -mass*u - (lam*x - eps)*v,    dv/dx = +mass*v + (lam*x - eps)*u,
    theta' = lam*x - eps + mass*sin(2*theta),    theta(-a) = pi/4,

turn u(a) = -v(a) into theta(a) = -pi/4 mod pi: level n is the root of
F_n(eps) = theta(a; eps) + pi/4 + n*pi, which strictly decreases, as
dtheta(a)/deps = -integral(u^2 + v^2)/r(a)^2 (Pryce, Numerical Solution of
Sturm-Liouville Problems, 1993; Weidmann, LNM 1258, 1987).  n labels the
level; it is the sign-class label (n >= 0 upwards from the lowest positive
level, n <= -1 downwards) while theta(a; 0) lies in (-pi/4, 3pi/4], as at
lam = 0 for every mass.  Leaving it means a level crossed zero, reported as
LevelTrackingError.  As |lam*x| <= |lam|*a, level n lies within
eps_n(0) +- |lam|*a of its closed-form lam = 0 energy, which it is at
mass = 0 or lam = 0.  Otherwise bracketed Newton steps on F_n shrink that
bracket to at most tol, one lane per level; a bracket that cannot shrink,
or is still wider after 200 iterations, raises NumericsError.  The
step count of a level follows from its bracket alone, rounded up to a
power of two so that neighbours share a call: its energy does not depend
on the window or on the other levels solved with it.

``find_levels`` returns the indices and energies only; the normalised
eigenmodes (a trace and two quadratures each) are built on first use of
``Spectrum.modes``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import backend
from .bagmodel import BagConfig, Mode, lam0_basis, mode_phase_budget, panel_quadrature
from .errors import LevelTrackingError, NumericsError

__all__ = ["ShootResult", "Spectrum", "rhs", "shoot", "find_levels", "exact_shift"]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_MAX_REFINE_ITERS = 200
# Largest levels x steps of one propagation a request may need; one
# propagation of that size takes about a second on a 2-vCPU Xeon.
_MAX_LANE_STEPS = 10_000_000
# Lane-steps each level is charged at least: what its output row costs
# (about 13.5 us against 0.12 us per lane-step).
_MIN_LEVEL_COST = 100


@dataclass(frozen=True)
class ShootResult:
    """Boundary mismatch plus the spinor trace of one integration."""

    mismatch: float
    samples: tuple  # (xs, us, vs) arrays; left boundary condition exact
    steps: int


@dataclass(frozen=True)
class Spectrum:
    """Levels found in a window, in ascending order: their Pruefer indices
    and energies.  The eigenmodes are built on first use."""

    config: BagConfig
    indices: np.ndarray
    energies: np.ndarray
    window: tuple

    @cached_property
    def modes(self) -> tuple:
        return tuple(_build_mode(self.config, float(e), int(n))
                     for n, e in zip(self.indices, self.energies))

    def mode(self, index: int) -> Mode:
        for m in self.modes:
            if m.index == index:
                return m
        raise KeyError(f"no level with index {index} in window {self.window}")


def rhs(x, state, eps, cfg: BagConfig):
    """Right-hand side (du/dx, dv/dx) of the first-order system."""
    if np.any(np.abs(np.asarray(x)) > cfg.a * (1.0 + 1e-12)):
        raise ValueError(f"x outside [-a, a], a={cfg.a}")
    u, v = state
    q = cfg.lam * x - eps
    return (-cfg.mass * u - q * v, cfg.mass * v + q * u)


def shoot(eps: float, cfg: BagConfig, tol: float = 1.0e-12,
          direction: int = +1) -> ShootResult:
    """Integrate once across the box and report the mismatch (u(a) + v(a))/r(a)."""
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    n_steps = max(backend.suggested_steps(cfg.a, cfg.mass, cfg.lam, abs(eps),
                                          min(tol, 1.0e-13)), 128)
    if direction >= 0:
        xs, us, vs = backend.propagate_trace(eps, cfg.mass, cfg.lam, -cfg.a, cfg.a,
                                             _INV_SQRT2, _INV_SQRT2, n_steps)
        num = us[-1] + vs[-1]
    else:
        xs, us, vs = backend.propagate_trace(eps, cfg.mass, cfg.lam, cfg.a, -cfg.a,
                                             _INV_SQRT2, -_INV_SQRT2, n_steps)
        num = us[-1] - vs[-1]
    norm = math.hypot(us[-1], vs[-1])
    if not (np.all(np.isfinite(us)) and np.all(np.isfinite(vs))) or norm == 0.0:
        raise NumericsError(
            f"propagation produced non-finite state (a={cfg.a}, mass={cfg.mass}, "
            f"lam={cfg.lam}, eps={eps}, steps={n_steps})")
    return ShootResult(mismatch=float(num / norm), samples=(xs, us, vs), steps=n_steps)


def _prufer(eps, cfg: BagConfig, n_steps: int):
    """theta(a; eps) and dtheta(a)/deps = -integral(u^2 + v^2)/r(a)^2."""
    # Deep sub-threshold energies grow like exp(2*kappa*a) and can overflow;
    # that is reported as NumericsError below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        u, v, theta, norm = backend.propagate_batch(
            eps, cfg.mass, cfg.lam, -cfg.a, cfg.a, _INV_SQRT2, _INV_SQRT2, n_steps)
        slope = -norm / (u * u + v * v)
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(slope)) and np.all(slope < 0.0)):
        raise NumericsError(
            f"propagation produced non-finite state (a={cfg.a}, mass={cfg.mass}, "
            f"lam={cfg.lam}, eps range [{np.min(eps)}, {np.max(eps)}], steps={n_steps})")
    return theta, slope


def _level_steps(cfg: BagConfig, eps_scale: float) -> int:
    return 1 << (backend.suggested_steps(cfg.a, cfg.mass, cfg.lam, eps_scale) - 1).bit_length()


def _check_budget(cfg: BagConfig, n_levels: int, eps_scale: float) -> None:
    """Refuse, before any propagation, more than _MAX_LANE_STEPS lane-steps,
    each level charged at least _MIN_LEVEL_COST."""
    steps = _level_steps(cfg, eps_scale) if n_levels <= _MAX_LANE_STEPS else 1
    cost = n_levels * max(steps, _MIN_LEVEL_COST)
    if cost > _MAX_LANE_STEPS:
        raise NumericsError(
            f"request needs about {cost:.3g} lane-steps ({n_levels:.3g} levels), "
            f"over the budget of {_MAX_LANE_STEPS:.3g} (a={cfg.a}, mass={cfg.mass}, lam={cfg.lam})")


def _solve_levels(cfg: BagConfig, levels, tol: float) -> np.ndarray:
    """Energies of the levels with the given Pruefer indices (floats, so that
    any int fits): bracketed Newton steps on F_n, one call per step count."""
    levels = np.asarray(levels, dtype=float)
    e0 = lam0_basis(cfg.a, cfg.mass, levels)[0]
    if cfg.mass == 0.0 or cfg.lam == 0.0:
        return e0
    half = abs(cfg.lam) * cfg.a
    steps = np.array([_level_steps(cfg, abs(e) + half) for e in e0], dtype=int)
    lo, hi, x = e0 - half, e0 + half, e0.copy()    # F_n(lo) >= 0 >= F_n(hi)
    f, slope = np.zeros(len(levels)), -np.ones(len(levels))
    guard = True    # the first propagation carries the eps = 0 lane
    for it in range(_MAX_REFINE_ITERS + 1):
        width = hi - lo
        live = width > tol
        if not np.any(live):
            return 0.5 * (lo + hi)
        if it == _MAX_REFINE_ITERS:
            raise NumericsError(
                f"root refinement did not converge in {_MAX_REFINE_ITERS} iterations: "
                f"widest final bracket {float(np.max(width)):.3g} > tol {tol:.3g} "
                f"(a={cfg.a}, mass={cfg.mass}, lam={cfg.lam})")
        mid = 0.5 * (lo + hi)
        if np.all(~live | (mid == lo) | (mid == hi)):
            raise NumericsError(
                f"root refinement stalled after {it} iterations: bracket width "
                f"{float(np.max(width)):.3g} cannot shrink to tol {tol:.3g} "
                f"(a={cfg.a}, mass={cfg.mass}, lam={cfg.lam})")
        for n_steps in np.unique(steps[live]):
            lanes = live & (steps == n_steps)
            theta, s = _prufer(np.append(x[lanes], 0.0) if guard else x[lanes], cfg, int(n_steps))
            if guard:
                if not -0.25 * math.pi < theta[-1] <= 0.75 * math.pi:
                    raise LevelTrackingError(
                        f"a level crossed zero: theta(a; 0) = {theta[-1] / math.pi:.6g}*pi "
                        f"is outside (-pi/4, 3pi/4] (a={cfg.a}, mass={cfg.mass}, "
                        f"lam={cfg.lam}), so the Pruefer labels are not the sign-class labels")
                theta, s, guard = theta[:-1], s[:-1], False
            f[lanes] = theta + (levels[lanes] + 0.25) * math.pi
            slope[lanes] = s
        # A Newton step inside the bracket is kept tol/2 off its ends.
        lo = np.where(live & (f >= 0.0), x, lo)
        hi = np.where(live & (f <= 0.0), x, hi)
        step = x - f / slope
        inside = (step > lo) & (step < hi)
        x = np.where(inside, np.clip(step, lo + 0.5 * tol, hi - 0.5 * tol), 0.5 * (lo + hi))


def _make_spinor(cfg, eps, xs, us, vs, scale):
    """Evaluator that re-propagates one exact-size step from the stored trace."""
    mass, lam, a = cfg.mass, cfg.lam, cfg.a

    def spinor(x):
        x = np.asarray(x, dtype=float)
        if np.any(np.abs(x) > a * (1.0 + 1e-12)):
            raise ValueError(f"evaluation point outside [-a, a], a={a}")
        idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
        x0 = xs[idx]
        h = x - x0
        m_uu, m_uv, m_vu, m_vv = backend.step_matrices(x0, h, eps, mass, lam)
        u0, v0 = us[idx], vs[idx]
        return (m_uu * u0 + m_uv * v0) * scale, (m_vu * u0 + m_vv * v0) * scale

    return spinor


def _build_mode(cfg: BagConfig, eps: float, index: int) -> Mode:
    """Normalise the shooting solution at eps into a Mode."""
    n_steps = max(backend.suggested_steps(cfg.a, cfg.mass, cfg.lam, abs(eps)), 64)
    xs, us, vs = backend.propagate_trace(eps, cfg.mass, cfg.lam, -cfg.a, cfg.a,
                                         _INV_SQRT2, _INV_SQRT2, n_steps)
    spinor_raw = _make_spinor(cfg, eps, xs, us, vs, 1.0)
    budget = 2.0 * (mode_phase_budget(eps, cfg.lam, cfg.a) + cfg.mass * cfg.a)
    qx, qw = panel_quadrature(cfg.a, budget)
    uu, vv = spinor_raw(qx)
    norm_sq = float(np.sum(qw * (uu * uu + vv * vv)))
    scale = 1.0 / math.sqrt(norm_sq)
    spinor = _make_spinor(cfg, eps, xs, us, vs, scale)
    # Residual recomputed on a different panel decomposition so the check
    # is not a tautology of the normalising rule.
    qx2, qw2 = panel_quadrature(cfg.a, 1.5 * budget + 1.0)
    un, vn = spinor(qx2)
    residual = abs(float(np.sum(qw2 * (un * un + vn * vn))) - 1.0)
    return Mode(index=index, energy=float(eps), spinor=spinor,
                norm_check=residual, config=cfg)


def _level_index(cfg: BagConfig, e: float) -> float:
    """The lam = 0 level index as a continuous function of energy (-1/2 in the gap)."""
    k = math.sqrt(abs(e) - cfg.mass) * math.sqrt(abs(e) + cfg.mass) if abs(e) > cfg.mass else 0.0
    j = 2.0 * cfg.a * k / math.pi - 0.5
    return j if e > 0.0 else -1.0 - j


def find_levels(cfg: BagConfig, window, tol: float = 1.0e-12) -> Spectrum:
    """All eigenvalues in (e_min, e_max) with their indices: the levels whose
    brackets meet the window are solved, those inside it kept.  No mode is
    built until ``Spectrum.modes`` is read."""
    e_min, e_max = float(window[0]), float(window[1])
    if not (e_min < e_max):
        raise ValueError(f"need e_min < e_max, got {window}")
    half = abs(cfg.lam) * cfg.a
    n_lo = math.floor(_level_index(cfg, e_min - half))
    n_hi = math.ceil(_level_index(cfg, e_max + half))
    _check_budget(cfg, n_hi - n_lo + 1, max(-e_min, e_max) + 2.0 * half)
    n = np.arange(n_lo, n_hi + 1)
    e0 = lam0_basis(cfg.a, cfg.mass, n)[0]
    levels = n[(e0 - half < e_max) & (e0 + half > e_min)]
    energies = _solve_levels(cfg, levels, tol)
    keep = (energies > e_min) & (energies < e_max)
    return Spectrum(config=cfg, indices=levels[keep], energies=energies[keep],
                    window=(e_min, e_max))


def exact_shift(cfg: BagConfig, level: int, tol: float = 1.0e-13) -> float:
    """Exact energy shift eps_level(lam) - eps_level(0) of one level."""
    e0 = float(lam0_basis(cfg.a, cfg.mass, level)[0])
    _check_budget(cfg, 1, abs(e0) + abs(cfg.lam) * cfg.a)
    return float(_solve_levels(cfg, [level], tol)[0]) - e0
