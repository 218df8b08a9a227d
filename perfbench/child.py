"""Benchmark child process: imports hdrmimo, reports ready, runs one job.

Usage: python child.py SRC_DIR. Started by run.py with the BLAS thread
variables already set. The child writes "ready" on stdout once
``hdrmimo`` is imported and the quantizer designed, reads one JSON job
from stdin, and answers with one JSON line. An empty job line means exit.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import hdrmimo
import hdrmimo.cli
from hdrmimo.frontend import design_quantizer

from tracer import Tracer, summarize
from workloads import Q_BITS, REFERENCE_SEED, WORKLOADS


def _environment() -> dict:
    import numpy
    import scipy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas'].get('name')} {deps['blas'].get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 prints its config only
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def _sweep(wl, seed: int, out: str) -> dict:
    """One user-path sweep through ``hdrmimo.cli.main``, timed around it."""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            status = hdrmimo.cli.main(wl.cli_args(seed, out))
        error = None if status == 0 else f"cli.main returned {status}"
    except SystemExit as exc:
        error = f"cli.main exited with {exc.code!r}"
    except Exception:
        error = traceback.format_exc()
    seconds = time.perf_counter() - start
    return {"seed": seed, "csv": out, "seconds": seconds, "error": error}


def _traced_sweep(wl, seed: int, out: str, spans_path: str) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        result = _sweep(wl, seed, out)
    finally:
        tracer.uninstall()
    if result["error"] is None:
        result["trace"] = summarize(tracer.spans, wl.threads)
        with open(spans_path, "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
    return result


def run_job(job: dict) -> dict:
    """Untimed sweep at the reference seed, then sweeps at the job's seed
    until ``seconds`` have passed; with ``trace`` they alternate untraced
    and traced, so the two can be compared."""
    wl = WORKLOADS[job["workload"]]
    outdir = job["outdir"]
    seed, trace = job["seed"], job["trace"]
    reference = _sweep(wl, REFERENCE_SEED, os.path.join(outdir, "reference.csv"))
    sweeps = []
    start = time.perf_counter()
    while not sweeps or time.perf_counter() - start < job["seconds"] or (
        trace and len(sweeps) < 2
    ):
        i = len(sweeps)
        out = os.path.join(outdir, f"sweep-{i}.csv")
        if trace and i % 2 == 1:
            spans = os.path.join(outdir, "spans.jsonl")
            sweeps.append(_traced_sweep(wl, seed, out, spans))
        else:
            sweeps.append(_sweep(wl, seed, out))
    return {
        "reference": reference,
        "sweeps": sweeps,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": _environment(),
    }


def main() -> int:
    src = os.path.realpath(sys.argv[1])
    where = os.path.realpath(hdrmimo.__file__)
    if not where.startswith(src + os.sep):
        print(f"hdrmimo imported from {where}, not from {src}", file=sys.stderr)
        return 2
    design_quantizer(Q_BITS)
    print("ready", flush=True)
    line = sys.stdin.readline().strip()
    if not line:
        return 0
    print(json.dumps(run_job(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
