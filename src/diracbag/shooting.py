"""Shooting eigensolver for arbitrary (mass, lam).

The boundary-value problem is converted to initial-value integrations:
start at x = -a from (u, v) = (1, 1)/sqrt(2), which satisfies the left
condition u(-a) = v(-a) exactly, propagate to x = +a and measure the
mismatch

    M(eps) = (u(a) + v(a)) / sqrt(u(a)^2 + v(a)^2).

Eigenvalues are the roots of M.  They are located by sign-change
bracketing on a grid of spacing <= pi/(8a) (finer than half the
asymptotic level spacing pi/(2a)) and polished by bisection with secant
acceleration to |d eps| < tol (default 1e-12); a bracket still wider than
tol once it can no longer shrink, or after 200 iterations, raises
NumericsError.

Sign conventions of the first-order system (reduces to the massless
equations at mass = 0; the mass couples off-diagonally so that the
massive spectrum is NOT even in lam, see rhs):

    du/dx = -mass*u - (lam*x - eps)*v
    dv/dx = +mass*v + (lam*x - eps)*u

The system is real, so all shooting is done in real 2-vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import backend
from .bagmodel import BagConfig, Mode, mode_phase_budget, panel_quadrature
from .errors import ConsistencyError, LevelTrackingError, NumericsError

__all__ = ["ShootResult", "Spectrum", "rhs", "shoot", "find_levels", "exact_shift"]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_MAX_REFINE_ITERS = 200


@dataclass(frozen=True)
class ShootResult:
    """Boundary mismatch plus the spinor trace of one integration."""

    mismatch: float
    samples: tuple  # (xs, us, vs) arrays; left boundary condition exact
    steps: int


@dataclass(frozen=True)
class Spectrum:
    """Ordered eigenmodes found in a window, with solver metadata."""

    modes: tuple
    window: tuple
    bracket_grid: float

    @property
    def energies(self) -> np.ndarray:
        return np.array([m.energy for m in self.modes])

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


def _steps_for(cfg: BagConfig, eps_scale: float, tol: float = 1.0e-13) -> int:
    return backend.suggested_steps(cfg.a, cfg.mass, cfg.lam, eps_scale, tol)


def _mismatch_batch(eps, cfg: BagConfig, n_steps: int):
    """M(eps) for an array of energies."""
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    # Deep sub-threshold energies grow like exp(2*kappa*a) and can overflow;
    # that is reported as NumericsError below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        u, v = backend.propagate_batch(eps, cfg.mass, cfg.lam, -cfg.a, cfg.a,
                                       _INV_SQRT2, _INV_SQRT2, n_steps)
        num = u + v
        norm = np.hypot(u, v)
    if not np.all(np.isfinite(norm)) or np.any(norm == 0.0):
        raise NumericsError(
            f"propagation produced non-finite state (a={cfg.a}, mass={cfg.mass}, "
            f"lam={cfg.lam}, eps range [{eps.min()}, {eps.max()}], steps={n_steps})")
    return num / norm


def shoot(eps: float, cfg: BagConfig, tol: float = 1.0e-12,
          direction: int = +1) -> ShootResult:
    """Integrate once across the box and report the boundary mismatch."""
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    n_steps = max(_steps_for(cfg, abs(eps), min(tol, 1.0e-13)), 128)
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


def _refine_roots(lo, hi, f_lo, f_hi, cfg, n_steps, tol):
    """Vectorised safeguarded bisection with secant acceleration.

    Raises NumericsError when every bracket still wider than tol has
    stalled (no double lies strictly inside it), or when some bracket is
    still wider than tol after _MAX_REFINE_ITERS iterations.
    """
    lo = lo.copy(); hi = hi.copy()
    f_lo = f_lo.copy(); f_hi = f_hi.copy()
    x_prev, f_prev = lo.copy(), f_lo.copy()
    x_cur, f_cur = hi.copy(), f_hi.copy()
    for it in range(_MAX_REFINE_ITERS):
        width = hi - lo
        if np.all(width <= tol):
            break
        mid = 0.5 * (lo + hi)
        if np.all((width <= tol) | (mid == lo) | (mid == hi)):
            raise NumericsError(
                f"root refinement stalled after {it} iterations: bracket width "
                f"{float(np.max(width)):.3g} cannot shrink to tol {tol:.3g} "
                f"(a={cfg.a}, mass={cfg.mass}, lam={cfg.lam})")
        with np.errstate(divide="ignore", invalid="ignore"):
            sec = x_cur - f_cur * (x_cur - x_prev) / (f_cur - f_prev)
        ok = np.isfinite(sec) & (sec > lo + 0.01 * width) & (sec < hi - 0.01 * width)
        cand = np.where(ok, sec, mid)
        f_cand = _mismatch_batch(cand, cfg, n_steps)
        same_side = (f_cand * f_lo) > 0.0
        lo = np.where(same_side, cand, lo)
        f_lo = np.where(same_side, f_cand, f_lo)
        hi = np.where(same_side, hi, cand)
        f_hi = np.where(same_side, f_hi, f_cand)
        x_prev, f_prev = x_cur, f_cur
        x_cur, f_cur = cand, f_cand
    width = hi - lo
    if not np.all(width <= tol):
        raise NumericsError(
            f"root refinement did not converge in {_MAX_REFINE_ITERS} iterations: "
            f"widest final bracket {float(np.max(width)):.3g} > tol {tol:.3g} "
            f"(a={cfg.a}, mass={cfg.mass}, lam={cfg.lam})")
    return 0.5 * (lo + hi)


def _count_roots_on_grid(cfg, lo, hi, spacing, n_steps) -> int:
    """Number of sign changes of M on a fresh grid over (lo, hi)."""
    if hi <= lo:
        return 0
    n = max(2, int(math.ceil((hi - lo) / spacing)) + 1)
    grid = np.linspace(lo, hi, n)
    f = _mismatch_batch(grid, cfg, n_steps)
    return int(np.sum(np.sign(f[1:]) * np.sign(f[:-1]) < 0))


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
    n_steps = max(_steps_for(cfg, abs(eps)), 64)
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


def find_levels(cfg: BagConfig, window, tol: float = 1.0e-12) -> Spectrum:
    """All eigenvalues in (e_min, e_max), refined and packaged as Modes.

    For mass = 0 the found count is checked against the analytic
    prediction; a mismatch raises ConsistencyError (the bracket grid is
    fine enough that this indicates an internal bug, not a tuning issue).
    """
    e_min, e_max = float(window[0]), float(window[1])
    if not (e_min < e_max):
        raise ValueError(f"need e_min < e_max, got {window}")
    spacing = math.pi / (8.0 * cfg.a)
    eps_scale = max(abs(e_min), abs(e_max))
    n_steps = _steps_for(cfg, eps_scale)
    n_grid = max(2, int(math.ceil((e_max - e_min) / spacing)) + 1)
    grid = np.linspace(e_min, e_max, n_grid)
    f = _mismatch_batch(grid, cfg, n_steps)
    # A grid point can land exactly on a root; it is then a root itself and
    # its zero sign excludes the neighbouring cells from bracketing.
    exact = grid[f == 0.0]
    change = np.sign(f[1:]) * np.sign(f[:-1]) < 0
    i = np.nonzero(change)[0]
    if len(i) == 0:
        roots = exact
    else:
        roots = _refine_roots(grid[i], grid[i + 1], f[i], f[i + 1], cfg, n_steps, tol)
        roots = np.concatenate([roots, exact])
    roots = np.sort(roots)
    if cfg.mass == 0.0:
        lo_n = int(math.ceil((4.0 * cfg.a * e_min / math.pi - 1.0) / 2.0))
        hi_n = int(math.floor((4.0 * cfg.a * e_max / math.pi - 1.0) / 2.0))
        expected = max(0, hi_n - lo_n + 1)
        if len(roots) != expected:
            raise ConsistencyError(
                f"massless level count {len(roots)} != analytic {expected} "
                f"in window ({e_min}, {e_max}); bracket grid {spacing}. "
                "A window endpoint sitting exactly on a level can cause this; "
                "shift the window slightly.")
    if len(roots) > 1 and np.min(np.diff(roots)) < 1.0e-9:
        raise ConsistencyError(
            f"near-degenerate roots found in window ({e_min}, {e_max}); "
            "the bag spectrum is nondegenerate, so this is a solver failure")
    indices = _assign_indices(cfg, roots, (e_min, e_max), spacing, n_steps)
    modes = tuple(_build_mode(cfg, e, ix) for e, ix in zip(roots, indices))
    return Spectrum(modes=modes, window=(e_min, e_max), bracket_grid=spacing)


def _assign_indices(cfg, roots, window, spacing, n_steps):
    """Global level labels: n >= 0 ascending positives, n < 0 from -1 down.

    When the window does not reach zero, the labels of skipped levels are
    recovered by counting sign changes of M between zero and the window.
    """
    if cfg.mass == 0.0:
        return [int(round((4.0 * cfg.a * e / math.pi - 1.0) / 2.0)) for e in roots]
    e_min, e_max = window
    pos_offset = _count_roots_on_grid(cfg, 0.0, e_min, spacing, n_steps) if e_min > 0.0 else 0
    neg_offset = _count_roots_on_grid(cfg, e_max, 0.0, spacing, n_steps) if e_max < 0.0 else 0
    index_of = {}
    for rank, e in enumerate(sorted(e for e in roots if e > 0.0)):
        index_of[e] = pos_offset + rank
    for rank, e in enumerate(sorted((e for e in roots if e < 0.0), reverse=True)):
        index_of[e] = -(neg_offset + rank) - 1
    return [index_of[e] for e in roots]


def _window_for_level(cfg: BagConfig, level: int):
    """Energy window guaranteed (after widening) to contain the level.

    The margin pi/(3a) is deliberately incommensurate with the massless
    level spacing pi/(2a), so window endpoints never coincide with roots.
    """
    k = (2 * abs(level) + 3) * math.pi / (4.0 * cfg.a)
    e_hi = math.hypot(cfg.mass, k) + math.pi / (3.0 * cfg.a) + 0.5 * abs(cfg.lam) * cfg.a
    if level >= 0:
        return (0.0, e_hi)
    return (-e_hi, 0.0)


def exact_shift(cfg: BagConfig, level: int, tol: float = 1.0e-13) -> float:
    """Exact energy shift eps_level(lam) - eps_level(0) by level tracking."""
    base = cfg.without_potential()
    window = _window_for_level(cfg, level)
    for attempt in range(4):
        try:
            spec_lam = find_levels(cfg, window, tol=tol)
            spec_base = find_levels(base, window, tol=tol)
            mode_lam = spec_lam.mode(level)
            mode_base = spec_base.mode(level)
        except (KeyError, ConsistencyError):
            if attempt == 3:
                raise LevelTrackingError(
                    f"level {level} not resolved in windows up to {window} for {cfg}")
            # Widen with an incommensurate offset so a window edge that
            # collided with a root cannot collide again.
            grow = 1.4
            pad = 0.37 * (attempt + 1) / cfg.a
            lo = window[0] * grow - (pad if window[0] < 0.0 else 0.0)
            hi = window[1] * grow + (pad if window[1] > 0.0 else 0.0)
            window = (lo, hi)
            continue
        _check_tracking(spec_lam, spec_base)
        return mode_lam.energy - mode_base.energy
    raise LevelTrackingError(
        f"level {level} not found in windows up to {window} for {cfg}")


def _check_tracking(spec_lam: Spectrum, spec_base: Spectrum) -> None:
    """Spacing-based guard against level crossings during tracking."""
    e_lam = spec_lam.energies
    e_base = spec_base.energies
    for energies in (e_lam, e_base):
        if len(energies) > 1:
            gaps = np.diff(np.sort(energies))
            if np.min(gaps) < 1.0e-6 * np.median(gaps):
                raise LevelTrackingError(
                    "near-degenerate spacing detected; level identity across "
                    "the two spectra is ambiguous")
    sign_count_lam = (int(np.sum(e_lam > 0)), int(np.sum(e_lam < 0)))
    sign_count_base = (int(np.sum(e_base > 0)), int(np.sum(e_base < 0)))
    if sign_count_lam != sign_count_base:
        raise LevelTrackingError(
            f"sign-class level counts differ between lam and lam=0 spectra: "
            f"{sign_count_lam} vs {sign_count_base}")
