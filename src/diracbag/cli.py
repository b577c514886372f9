"""Command-line front end with machine-readable, reproducible output.

Commands
--------
spectrum     eigenvalues in a window (or the lowest --levels of each sign);
             for mass = 0 the analytic values and deviations are included
shift        exact energy shift of one level, eps(lam) - eps(0)
compare      exact shift vs first+second-order shifts under both
             occupancy prescriptions, with agreement verdicts
convergence  partial-sum traces of the second-order sums for both
             prescriptions and both cutoff schemes (plot-ready)

Output is a single JSON object {schema_version, run_id, inputs, results,
diagnostics} or a CSV table (one header row, one row per level or per
partial-sum entry).  Numbers are serialised with 17 significant digits so
doubles round-trip exactly; identical inputs produce byte-identical
output (the run id is a hash of the inputs, no timestamps anywhere).

Exit codes: 0 success (including unconverged-but-reported sums),
1 numeric failure (diagnostic payload still emitted), 2 usage error
(non-finite numbers included; they are rejected before any compute).
"""

from __future__ import annotations

import argparse
import io
import math
import sys

try:  # CPython's own SHA-256: importing hashlib also loads OpenSSL, about 3.5 MB of RSS
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256  # Python >= 3.12
    except ImportError:
        from hashlib import sha256

SCHEMA_VERSION = "1"

_EXIT_OK = 0
_EXIT_NUMERIC = 1
_EXIT_USAGE = 2


def _fmt(x) -> str:
    """17-significant-digit formatting: exact round-trip for doubles."""
    if isinstance(x, float):
        if math.isnan(x) or math.isinf(x):
            raise ValueError(f"non-finite value in output: {x}")
        return f"{x:.17g}"
    return str(x)


def _to_json(obj, out: list) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(f'"{key}":')
            _to_json(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _to_json(item, out)
        out.append("]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, float)):
        out.append(_fmt(obj))
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialise {type(obj)}")


def dumps(obj) -> str:
    parts: list = []
    _to_json(obj, parts)
    return "".join(parts)


def _run_id(inputs: dict) -> str:
    return sha256(dumps(inputs).encode()).hexdigest()[:16]


def _parse_window(text: str):
    try:
        lo, hi = text.split(":")
        lo, hi = float(lo), float(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"window must be 'lo:hi', got {text!r}")
    return lo, hi


def _glue_window(argv):
    """Join "--window lo:hi" into one token: argparse takes "-1:1" for an option."""
    out = list(argv)
    for i in range(len(out) - 2, -1, -1):
        if out[i] == "--window":
            out[i:i + 2] = ["--window=" + out[i + 1]]
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracbag",
        description="1D confined Dirac particle with linear potential V(x)=lam*x")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--a", type=float, default=1.0, help="box half-width (> 0)")
        p.add_argument("--mass", type=float, default=0.0, help="particle mass (>= 0)")
        p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                       help="linear-potential coupling")
        p.add_argument("--tol", type=float, default=1.0e-12,
                       help="root-refinement tolerance (spectrum/shift); the "
                            "second-order sums keep their scale-aware default")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("spectrum", help="eigenvalues in a window")
    common(p)
    p.add_argument("--window", type=_parse_window, default=None,
                   help="energy window lo:hi (bounds may be negative: --window -1:1)")
    p.add_argument("--levels", type=int, default=None,
                   help="instead of --window: lowest N levels of each sign")

    p = sub.add_parser("shift", help="exact shift of one level")
    common(p)
    p.add_argument("--levels", type=int, default=0, help="level index (default 0)")

    p = sub.add_parser("compare", help="perturbative vs exact ground-state shift")
    common(p)
    p.add_argument("--cutoff", type=int, default=1000, help="max |index| in the sums")

    p = sub.add_parser("convergence", help="partial-sum traces of the sums")
    common(p)
    p.add_argument("--cutoff", type=int, default=1000, help="max |index| in the sums")
    p.add_argument("--prescription", choices=("feynman", "pauli"), default=None,
                   help="restrict traces to one prescription")
    return parser


def _inputs_dict(args) -> dict:
    d = {
        "command": args.command,
        "a": float(args.a),
        "mass": float(args.mass),
        "lambda": float(args.lam),
        "tol": float(args.tol),
        "format": args.format,
    }
    if args.command == "spectrum":
        d["window"] = list(args.window) if args.window else None
        d["levels"] = args.levels
    elif args.command == "shift":
        d["level"] = args.levels
    elif args.command == "compare":
        d["cutoff"] = args.cutoff
    elif args.command == "convergence":
        d["cutoff"] = args.cutoff
        d["prescription"] = args.prescription
    return d


def _validate(args) -> None:
    values = [("--a", args.a), ("--mass", args.mass), ("--lambda", args.lam),
              ("--tol", args.tol)]
    if getattr(args, "window", None) is not None:
        values += [("--window", w) for w in args.window]
    for flag, value in values:
        if not math.isfinite(value):
            raise UsageError(f"{flag} must be finite, got {value}")
    if not (args.a > 0.0):
        raise UsageError(f"--a must be positive, got {args.a}")
    if args.mass < 0.0:
        raise UsageError(f"--mass must be non-negative, got {args.mass}")
    if not (args.tol > 0.0):
        raise UsageError(f"--tol must be positive, got {args.tol}")
    if args.command == "spectrum":
        if (args.window is None) == (args.levels is None):
            raise UsageError("spectrum needs one of --window and --levels")
        if args.window is not None and args.window[0] >= args.window[1]:
            raise UsageError(f"empty window {args.window}")
        if args.levels is not None and args.levels < 1:
            raise UsageError(f"--levels must be >= 1, got {args.levels}")
    if args.command in ("compare", "convergence") and args.cutoff < 4:
        raise UsageError(f"--cutoff must be >= 4, got {args.cutoff}")


class UsageError(Exception):
    pass


def _auto_window(cfg, n_levels: int):
    bound = math.hypot(cfg.mass, 2.0 * n_levels * math.pi / (4.0 * cfg.a))
    margin = math.pi / (16.0 * cfg.a)
    return (-bound - margin, bound + margin)


def run_spectrum(args) -> dict:
    from . import backend, bagmodel, shooting
    cfg = bagmodel.BagConfig(a=args.a, mass=args.mass, lam=args.lam)
    window = args.window if args.window is not None else _auto_window(cfg, args.levels)
    spec = shooting.find_levels(cfg, window, tol=args.tol)
    rows = [{"index": int(n), "energy": float(e)} for n, e in zip(spec.indices, spec.energies)]
    if cfg.mass == 0.0 and rows:
        analytic = bagmodel.massless_levels(cfg.a, rows[0]["index"], rows[-1]["index"])
        for row, e in zip(rows, analytic.tolist()):
            row["analytic"] = e
            row["deviation"] = row["energy"] - e
    return {
        "results": {"levels": rows},
        "diagnostics": {
            "window": list(spec.window),
            "count": len(rows),
            "tol": args.tol,
            "backend": backend.backend_name(),
        },
    }


def run_shift(args) -> dict:
    from . import backend, bagmodel, shooting
    cfg = bagmodel.BagConfig(a=args.a, mass=args.mass, lam=args.lam)
    w = shooting.exact_shift(cfg, args.levels, tol=min(args.tol, 1.0e-13))
    return {
        "results": {"level": args.levels, "w_exact": float(w)},
        "diagnostics": {"tol": args.tol, "backend": backend.backend_name()},
    }


def run_compare(args) -> dict:
    from . import backend, bagmodel, perturb
    cfg = bagmodel.BagConfig(a=args.a, mass=args.mass, lam=args.lam)
    rep = perturb.compare(cfg, 0, args.cutoff)
    results = {
        "w_first": rep.w_first,
        "w_second_pauli": rep.w_second["pauli"],
        "w_second_feynman": rep.w_second["feynman"],
        "w_exact": rep.w_exact,
        "delta_pauli": rep.agreement["pauli"],
        "delta_feynman": rep.agreement["feynman"],
    }
    converged = all(rep.converged.values())
    if converged:
        results["matches_pauli"] = rep.matches_exact["pauli"]
        results["matches_feynman"] = rep.matches_exact["feynman"]
    diagnostics = {
        "cutoff": rep.cutoff,
        "scheme": rep.scheme,
        "tol": rep.tol,
        "converged_pauli": rep.converged["pauli"],
        "converged_feynman": rep.converged["feynman"],
        "cauchy_residual_pauli": rep.cauchy_residual["pauli"],
        "cauchy_residual_feynman": rep.cauchy_residual["feynman"],
        "verdicts_withheld": not converged,
        "backend": backend.backend_name(),
    }
    if "pauli" in rep.w_extrapolated:
        diagnostics["extrapolated_pauli"] = rep.w_extrapolated["pauli"]
    return {"results": results, "diagnostics": diagnostics}


def run_convergence(args) -> dict:
    from . import backend, bagmodel, perturb
    cfg = bagmodel.BagConfig(a=args.a, mass=args.mass, lam=args.lam)
    traces = perturb.convergence_traces(cfg, args.cutoff)
    if args.prescription:
        traces = [t for t in traces if t["prescription"] == args.prescription]
    rows = []
    for t in traces:
        for n, s in zip(t["cutoffs"], t["partial_sums"]):
            rows.append({
                "prescription": t["prescription"],
                "scheme": t["scheme"],
                "cutoff": int(n),
                "partial_sum": float(s),
            })
    residuals = {f"cauchy_residual_{t['prescription']}_{t['scheme']}":
                 t["cauchy_residual"] for t in traces}
    return {
        "results": {"traces": rows},
        "diagnostics": {"cutoff": args.cutoff, **residuals,
                        "backend": backend.backend_name()},
    }


_RUNNERS = {
    "spectrum": run_spectrum,
    "shift": run_shift,
    "compare": run_compare,
    "convergence": run_convergence,
}

_CSV_TABLES = {
    "spectrum": ("levels", ("index", "energy", "analytic", "deviation")),
    "convergence": ("traces", ("prescription", "scheme", "cutoff", "partial_sum")),
}


def _to_csv(command: str, results: dict) -> str:
    buf = io.StringIO()
    if command in _CSV_TABLES:
        key, columns = _CSV_TABLES[command]
        rows = results[key]
        cols = [c for c in columns if c in rows[0]] if rows else list(columns[:2])
        buf.write(",".join(cols) + "\n")
        for row in rows:
            buf.write(",".join(_fmt(row[c]) for c in cols) + "\n")
    else:
        cols = sorted(results)
        buf.write(",".join(cols) + "\n")
        buf.write(",".join(_fmt(results[c]) for c in cols) + "\n")
    return buf.getvalue()


def render(args) -> tuple:
    """Run the command; returns (text, exit_code)."""
    inputs = _inputs_dict(args)
    record = {
        "schema_version": SCHEMA_VERSION,
        "run_id": _run_id(inputs),
        "inputs": inputs,
    }
    from .errors import DiracBagError
    try:
        payload = _RUNNERS[args.command](args)
    except DiracBagError as exc:
        record["results"] = None
        record["diagnostics"] = {"error": f"{type(exc).__name__}: {exc}"}
        return dumps(record) + "\n", _EXIT_NUMERIC
    record.update(payload)
    if args.format == "csv":
        return _to_csv(args.command, record["results"]), _EXIT_OK
    return dumps(record) + "\n", _EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_glue_window(sys.argv[1:] if argv is None else argv))
    try:
        _validate(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    try:
        text, code = render(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
