"""Workload definitions: seeded input draws and output checks.

Each workload turns a seed into an endless, reproducible sequence of CLI
argument vectors.  The draws use a rotated Kronecker (golden-ratio)
sequence rather than independent random numbers: every prefix covers the
parameter box evenly, so the median cost of the ops a run manages to
complete moves little from seed to seed, and the half-width ``a`` of two
ops is never the same value.  Distinct ``a`` matters because
``perturb._row_cache`` is keyed by ``(a, mass)``; with it every op pays
what a fresh ``diracbag`` process pays.

A check takes the draw, the CLI exit code and the CLI output text and
returns a list of failure messages (empty when the output is right).
Checks import ``scipy`` and ``diracbag.oracle`` lazily, so the runner can
read its peak RSS before they run.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

# Kronecker steps 1/phi_d^j for the generalised golden ratio phi_d,
# the root of x^(d+1) = x + 1 (Roberts' R_d sequence), d = 3.
_PHI3 = 1.2207440846057596
_STEPS = (1.0 / _PHI3, 1.0 / _PHI3 ** 2, 1.0 / _PHI3 ** 3)

A_RANGE = (0.8, 1.25)


@dataclass(frozen=True)
class Draw:
    """One op: its position in the sequence, parameters and CLI argv."""

    index: int
    a: float
    mass: float
    lam: float
    argv: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    mass_range: tuple | None      # None: mass = 0
    lam_range: tuple
    command: tuple                # subcommand and its fixed options
    check: Callable[[Draw, int, str], list]

    def draws(self, seed: int) -> Iterator[Draw]:
        """Endless op sequence; the same seed gives the same sequence."""
        rng = random.Random(seed)
        offsets = [rng.random() for _ in _STEPS]
        i = 0
        while True:
            u = [math.fmod(off + (i + 1) * step, 1.0) for off, step in zip(offsets, _STEPS)]
            a = _scale(A_RANGE, u[0])
            mass = 0.0 if self.mass_range is None else _scale(self.mass_range, u[1])
            lam = _scale(self.lam_range, u[2])
            argv = (self.command[0], "--a", repr(a), "--mass", repr(mass),
                    "--lambda", repr(lam)) + self.command[1:]
            yield Draw(index=i, a=a, mass=mass, lam=lam, argv=argv)
            i += 1


def _scale(bounds, u):
    lo, hi = bounds
    return lo + (hi - lo) * u


def _payload(code: int, text: str):
    """Parsed results/diagnostics, or (None, failure list)."""
    if code != 0:
        return None, [f"exit code {code}"]
    try:
        record = json.loads(text)
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]
    if not isinstance(record.get("results"), dict):
        return None, ["output has no results object"]
    return record, []


def check_massless_compare(draw: Draw, code: int, text: str) -> list:
    """Criterion 3 and the Pauli limit -31 zeta(5)/pi^5 lam^2 a^3."""
    record, errors = _payload(code, text)
    if record is None:
        return errors
    from scipy.special import zeta
    res = record["results"]
    scale = draw.lam ** 2 * draw.a ** 3
    pauli_limit = -31.0 * float(zeta(5.0)) / math.pi ** 5 * scale
    if not abs(res["w_exact"]) <= 1e-12:
        errors.append(f"w_exact {res['w_exact']!r} not within 1e-12 of 0")
    if not abs(res["w_second_feynman"]) <= 1e-10 * scale:
        errors.append(f"Feynman sum {res['w_second_feynman']!r} not within "
                      f"1e-10*lam^2*a^3 of 0")
    if not abs(res["w_second_pauli"] - pauli_limit) <= 1e-9 * abs(pauli_limit):
        errors.append(f"Pauli sum {res['w_second_pauli']!r} not within 1e-9 "
                      f"relative of {pauli_limit!r}")
    if res.get("matches_feynman") is not True:
        errors.append("matches_feynman is not true")
    if res.get("matches_pauli") is not False:
        errors.append("matches_pauli is not false")
    return errors


def check_massive_spectrum(draw: Draw, code: int, text: str) -> list:
    """Criterion 6: ten levels, each within 1e-6 of the refined oracle."""
    record, errors = _payload(code, text)
    if record is None:
        return errors
    from diracbag import bagmodel, oracle
    energies = [row["energy"] for row in record["results"]["levels"]]
    if len(energies) != 10:
        return [f"{len(energies)} levels, expected 10"]
    cfg = bagmodel.BagConfig(a=draw.a, mass=draw.mass, lam=draw.lam)
    window = tuple(record["diagnostics"]["window"])
    refined = oracle.levels_refined(cfg, window, 4000)["refined"]
    if len(refined) != len(energies):
        return [f"oracle finds {len(refined)} levels in {window}, CLI {len(energies)}"]
    worst = max(abs(e - r) for e, r in zip(sorted(energies), refined))
    if not worst <= 1e-6:
        errors.append(f"level deviates from the oracle by {worst:.3e} > 1e-6")
    return errors


def _oracle_ground(cfg) -> float:
    """Level 0 from the oracle, on a window that holds only that level."""
    from diracbag import oracle
    hi = math.hypot(cfg.mass, 2.0 * math.pi / (4.0 * cfg.a))
    levels = oracle.levels_refined(cfg, (0.0, hi), 4000)["refined"]
    if len(levels) != 1:
        raise ValueError(f"oracle window (0, {hi}) holds {len(levels)} levels")
    return float(levels[0])


def check_massive_compare(draw: Draw, code: int, text: str) -> list:
    """Converged sums, criterion 7 third-order residual, oracle shift."""
    record, errors = _payload(code, text)
    if record is None:
        return errors
    from diracbag import bagmodel
    res, diag = record["results"], record["diagnostics"]
    if not (diag["converged_pauli"] and diag["converged_feynman"]):
        errors.append("second-order sums not converged")
    residual = abs(res["w_exact"] - res["w_first"] - res["w_second_feynman"])
    bound = draw.lam ** 3 * draw.a ** 5
    if not residual <= bound:
        errors.append(f"third-order residual {residual:.3e} > lam^3 a^5 = {bound:.3e}")
    if not res["delta_pauli"] > 10.0 * residual:
        errors.append(f"delta_pauli {res['delta_pauli']:.3e} not > 10 x residual")
    cfg = bagmodel.BagConfig(a=draw.a, mass=draw.mass, lam=draw.lam)
    try:
        shift = _oracle_ground(cfg) - _oracle_ground(cfg.without_potential())
    except ValueError as exc:
        return errors + [str(exc)]
    if not abs(res["w_exact"] - shift) <= 1e-6:
        errors.append(f"w_exact {res['w_exact']!r} differs from the oracle shift "
                      f"{shift!r} by more than 1e-6")
    return errors


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="massless_compare",
            mass_range=None, lam_range=(0.5, 2.0),
            command=("compare", "--cutoff", "1000"),
            check=check_massless_compare),
        Workload(
            name="massive_spectrum",
            mass_range=(0.5, 2.0), lam_range=(0.5, 2.0),
            command=("spectrum", "--levels", "5"),
            check=check_massive_spectrum),
        Workload(
            name="massive_compare",
            mass_range=(0.5, 2.0), lam_range=(0.005, 0.02),
            command=("compare", "--cutoff", "200"),
            check=check_massive_compare),
    )
}
