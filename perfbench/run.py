"""Benchmark of the diracbag CLI, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload massless_compare --seed 1 --seconds 30 --trace 0

The runner drives ``diracbag.cli.main(argv)`` in-process as a closed
loop: one client, one process, ``DIRAC_BAG_THREADS=1``, the next op sent
when the previous one has returned.  Each op's inputs come from the seed
(see ``workloads.py``) and reach the program only as argv.  The loop
starts ops until ``--seconds`` have passed; every op's output is then
checked, after the peak RSS has been read, because the checks load
scipy.  One op is repeated to check byte-identical output.

Times are reported in reference-host seconds (see ``HostClock``): the
shared host this was built on alternates between speed regimes up to
1.6x apart that last tens of seconds, so raw medians of 30-second runs
spread by ~20%, while times scaled by a calibration kernel sampled
during each op stay within a few per cent.  Raw wall times are printed
as well.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
op twice, untraced and then traced (clearing the package's ground-row
cache in between, so both runs pay the same), wraps the package's public
functions with spans from ``spans.py``, and prints the per-layer
metrics; the spans go to ``perfbench/results/``.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; lines before it give
the environment and a readable summary.  Without ``src/diracbag`` next
to this directory the runner exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREADS = "1"
SETUP_SAMPLES = 9
# Ops whose counts are reported in a traced run: a fixed prefix, so the
# counts repeat exactly for a seed whatever the host speed.
TRACE_COUNT_OPS = 2
# Host-speed sampling: calibrate() runs every SAMPLE_INTERVAL_S during a
# timed call.  CALIBRATION_REF_S is its median time on a 2-vCPU Intel Xeon
# VM running at full speed, so a reported second is a second there.
SAMPLE_INTERVAL_S = 0.1
CALIBRATION_REF_S = 0.0011

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


_X = np.linspace(0.0, 1.0, 4000)
_SMALL = np.linspace(0.0, 1.0, 16)


def calibrate() -> float:
    """Seconds for a fixed ~2 ms mix of work that does not touch diracbag:
    NumPy ufuncs on long arrays, small-array NumPy calls and a plain
    interpreter loop, the three kinds of work the CLI does."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(6):
        acc += float(np.sum(np.cos(3.1 * _X) * np.sin(1.7 * _X)))
    small = _SMALL
    for _ in range(150):
        small = np.cos(small) * 0.5 + 0.1
    for i in range(5000):
        acc += i * 0.5
    return time.perf_counter() - t0


class HostClock:
    """Times work in reference-host seconds.

    While a timed call runs, an interval timer interrupts it every
    SAMPLE_INTERVAL_S to run calibrate(), and once more after it.  The
    call's wall time, less the time spent calibrating, is scaled by
    CALIBRATION_REF_S over the mean calibration time.  That cancels the
    host's speed while the call ran and keeps everything the program does
    in the numerator.
    """

    def __init__(self):
        self._samples = []   # (start, seconds)
        signal.signal(signal.SIGALRM, lambda signum, frame: self._sample())

    def _sample(self):
        start = time.perf_counter()
        self._samples.append((start, calibrate()))

    def time(self, fn) -> tuple:
        """(reference-host seconds, wall seconds, result) of fn()."""
        self._samples.clear()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._sample()
        inside = sum(d for start, d in self._samples if start < t1)
        speed = CALIBRATION_REF_S / statistics.mean(d for _, d in self._samples)
        return (t1 - t0 - inside) * speed, t1 - t0, result


def measure_setup(clock: HostClock, n: int) -> list:
    """Reference-host times of fresh interpreters that import diracbag.cli
    and build its parser: what a CLI user pays before any compute."""
    env = dict(os.environ, PYTHONPATH=str(SRC), DIRAC_BAG_THREADS=THREADS)
    cmd = [sys.executable, "-c", "import diracbag.cli as c; c.build_parser()"]
    spawn = functools.partial(subprocess.run, cmd, env=env, cwd=ROOT, check=True, timeout=60)
    return [clock.time(spawn)[0] for _ in range(n)]


def run_op(cli, argv) -> tuple:
    """(exit code, stdout text) of one in-process CLI command."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    except SystemExit as exc:   # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        code = -1
    return code, buf.getvalue()


def environment(seed: int) -> dict:
    from diracbag import backend
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "backend": backend.backend_name(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": os.environ.get("DIRAC_BAG_THREADS"),
        "seed": seed,
    }


def clear_row_cache() -> None:
    """Empty perturb's (a, mass)-keyed ground-row cache, where it exists,
    so the traced rerun of an op costs what its untraced run did."""
    from diracbag import perturb
    cache = getattr(perturb, "_row_cache", None)
    if cache is not None:
        cache.clear()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "diracbag" / "cli.py").is_file():
        print(f"perfbench: no diracbag sources at {SRC}", file=sys.stderr)
        return 2
    os.environ["DIRAC_BAG_THREADS"] = THREADS
    # One CPU for everything, so the host-speed samples are taken where the
    # ops and the setup child processes run.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]
    clock = HostClock()

    setup = [] if args.trace else measure_setup(clock, SETUP_SAMPLES)
    sys.path.insert(0, str(SRC))
    from diracbag import cli

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()

    ops = []        # (draw, reference-host s, wall s, code, text)
    untraced = []   # reference-host s of each op's untraced run (traced runs)
    failures = {}   # op index -> failure messages
    t_start = time.perf_counter()
    for draw in workload.draws(args.seed):
        if time.perf_counter() - t_start >= args.seconds and len(ops) >= (
                TRACE_COUNT_OPS if args.trace else 1):
            break
        op = functools.partial(run_op, cli, draw.argv)
        if tracer is None:
            host_s, wall, (code, text) = clock.time(op)
        else:
            plain_s, _, (_, plain_text) = clock.time(op)
            untraced.append(plain_s)
            clear_row_cache()
            tracer.install()
            tracer.op = f"op{draw.index}"
            try:
                host_s, wall, (code, text) = clock.time(op)
            finally:
                tracer.op = None
                tracer.uninstall()
            if text != plain_text:
                failures[draw.index] = ["traced output differs from the untraced output"]
        ops.append((draw, host_s, wall, code, text))
    elapsed = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Output checks; scipy and the oracle load from here on.
    if tracer is not None:
        tracer.install()
    try:
        for draw, _, _, code, text in ops:
            if tracer is not None:
                tracer.op = f"check{draw.index}"
            try:
                errors = workload.check(draw, code, text)
            except Exception as exc:   # malformed output, or the oracle failed
                traceback.print_exc()
                errors = [f"check raised {exc!r}"]
            if errors:
                failures.setdefault(draw.index, []).extend(errors)
    finally:
        if tracer is not None:
            tracer.op = None
            tracer.uninstall()
    first = ops[0]
    if run_op(cli, first[0].argv) != (first[3], first[4]):
        failures.setdefault(first[0].index, []).append(
            "repeated op output is not byte-identical")

    for index, errors in sorted(failures.items()):
        print(f"op {index} FAILED: {'; '.join(errors)}", file=sys.stderr)
    print("environment " + json.dumps(environment(args.seed), sort_keys=True))
    host = [op[1] for op in ops]
    walls = [op[2] for op in ops]
    print(f"{args.workload}: {len(ops)} ops in {elapsed:.2f} s wall, op wall time "
          f"p50 {statistics.median(walls):.4g} s; fail_frac {len(failures) / len(ops):.4g}")

    if tracer is None:
        ok = [op[1] for op in ops if op[0].index not in failures]
        metrics = {
            "op_s.p50": statistics.median(host),
            "ops_per_s": len(ok) / sum(host),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"  op_s.p50 over n={len(host)} ops; setup_s over n={len(setup)} "
              f"fresh interpreters; times in reference-host seconds")
    else:
        metrics = traced_metrics(tracer, ops, untraced, failures)
        out = HERE / "results" / f"spans-{args.workload}.json.gz"
        tracer.dump(out)
        print(f"  counts over the first {min(TRACE_COUNT_OPS, len(ops))} ops; "
              f"spans in {out.relative_to(ROOT)}")
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are not "
                           "declared in BENCHMARK.json, or declared but missing")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def declared_units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def traced_metrics(tracer, ops, untraced, failures) -> dict:
    from spans import layer_metrics
    ids = [op[0].index for op in ops]
    prefix = ids[:TRACE_COUNT_OPS]
    m = layer_metrics(tracer.spans,
                      traced_ops=[f"op{i}" for i in ids],
                      count_ops=[f"op{i}" for i in prefix],
                      check_ops=[f"check{i}" for i in ids],
                      count_check_ops=[f"check{i}" for i in prefix],
                      op_wall=[op[2] for op in ops])
    m["cli.output_bytes"] = sum(len(op[4].encode()) for op in ops[:len(prefix)]) / len(prefix)
    m["trace.op_s.p50"] = statistics.median(op[1] for op in ops)
    m["trace.untraced_op_s.p50"] = statistics.median(untraced)
    m["trace.overhead_s"] = m["trace.op_s.p50"] - m["trace.untraced_op_s.p50"]
    counted = {f"op{i}" for i in prefix}
    m["trace.spans_per_op"] = sum(1 for s in tracer.spans if s[4] in counted) / len(prefix)
    m["fail_frac"] = len(failures) / len(ops)
    return dict(sorted(m.items()))


if __name__ == "__main__":
    sys.exit(main())
