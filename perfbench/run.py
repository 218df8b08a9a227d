"""hdrmimo benchmark: closed-loop BER sweeps through the CLI user path.

    python3 perfbench/run.py --workload desk-sweep --seed 3 --seconds 20 --trace 0

Run from the repository root. Each run launches child processes with BLAS
pinned to one thread, times their set-up, then has one child run sweeps
through ``hdrmimo.cli.main`` for ``--seconds`` and checks every CSV they
write. ``--trace 1`` reports per-layer figures instead of end-to-end ones.
``--workload all`` runs every workload in turn. The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full report (environment, digests, exact counts) is
written to ``.bench_out/<workload>-seed<seed>-trace<t>/report.json``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

import checks
from tracer import NAMES, percentile
from workloads import REFERENCE_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

BLAS_THREAD_VARS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

# Child launches per run for setup_s; the first is discarded because it
# may compile bytecode, which users pay once, not per run.
SETUP_LAUNCHES = 6
# A run that has not finished by then is abandoned, well inside the
# 180 s a run may take.
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_THREAD_VARS)
    env["PYTHONPATH"] = SRC
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run did not finish within {RUN_DEADLINE_S:g} s")
    return left


def _launch(deadline: float) -> tuple:
    """Start a child and wait until it is ready; returns (process, seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), SRC],
        cwd=ROOT,
        env=_child_env(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], _remaining(deadline))
        if not ready:  # select timed out at the deadline
            _remaining(deadline)
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        if line != b"ready\n":
            raise BenchError(f"child exited before it was ready (got {line!r})")
    except BaseException:
        _stop(proc)
        raise
    return proc, seconds


def _stop(proc) -> None:
    proc.kill()
    proc.communicate()


def _run_child_job(job: dict, setup_launches: int, deadline: float) -> tuple:
    """Set-up times of ``setup_launches`` children, and the job's answer
    from one more."""
    setup = []
    for i in range(setup_launches + 1):
        proc, seconds = _launch(deadline)
        setup.append(seconds)
        last = i == setup_launches
        try:
            out, _ = proc.communicate(
                (json.dumps(job) + "\n").encode() if last else b"\n",
                timeout=_remaining(deadline),
            )
        except BaseException:
            _stop(proc)
            raise
        if proc.returncode != 0:
            raise BenchError(f"child exited with code {proc.returncode}")
    return setup, json.loads(out)


def _environment(versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        **versions,
        "blas_thread_vars": BLAS_THREAD_VARS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _check_sweeps(wl, seed: int, result: dict) -> tuple:
    """Output checks on every sweep; returns (reference entry, sweep entries)
    with their digests and problems filled in."""
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)[wl.name]
    if reference["realizations"] != wl.realizations:
        raise BenchError(f"reference.json was recorded for another {wl.name} size")

    def judge(sweep: dict, want_seed: int, ref) -> dict:
        entry = {k: sweep[k] for k in ("seed", "seconds", "error")}
        problems = [sweep["error"]] if sweep["error"] else []
        if not problems:
            with open(sweep["csv"], "rb") as fh:
                data = fh.read()
            entry["sha256"] = checks.sha256(data)
            problems += checks.check_sweep(data.decode(), wl, want_seed, ref)
        entry["problems"] = problems
        return entry

    ref_entry = judge(result["reference"], REFERENCE_SEED, reference["pooled_errors"])
    # Informational: floating-point changes may legitimately alter the bytes.
    ref_entry["sha256_as_recorded"] = ref_entry.get("sha256") == reference["sha256"]
    entries = [judge(s, seed, None) for s in result["sweeps"]]
    # Same code, same seed: every sweep's CSV must be byte-identical.
    digests = [e.get("sha256") for e in entries if "sha256" in e]
    for e in entries:
        if "sha256" in e and e["sha256"] != digests[0]:
            e["problems"].append(f"CSV digest {e['sha256']} != first sweep's {digests[0]}")
    return ref_entry, entries


def _end_to_end(wl, setup: list, result: dict, entries: list) -> dict:
    good = [e for e in entries if not e["problems"]]
    rates = [wl.trials_per_sweep / e["seconds"] for e in good] or [0.0]
    trials_per_s = statistics.median(rates)
    return {
        "trials_per_s": (trials_per_s, "trial/s"),
        "sim_bits_per_s": (trials_per_s * wl.bits_per_trial, "bit/s"),
        "setup_s": (statistics.median(setup[1:]), "s"),
        "peak_rss_mb": (result["peak_rss_kib"] / 1024.0, "MiB"),
    }


def _per_layer(wl, result: dict, entries: list) -> tuple:
    """Per-layer metrics from the traced sweeps, plus the exact counts."""
    traced = [
        (s, e) for s, e in zip(result["sweeps"], entries) if "trace" in s
    ]
    for s, e in traced:
        if s["trace"]["exact"] != traced[0][0]["trace"]["exact"]:
            e["problems"].append("exact counts differ from the first traced sweep")
        frac = s["trace"]["accounted_frac"]
        if wl.threads == 1 and abs(frac - 1.0) > 1e-9:
            e["problems"].append(f"span self times cover {frac!r} of run_sweep")
    traces = [s["trace"] for s, e in traced if not e["problems"]]
    untraced = [e["seconds"] for s, e in zip(result["sweeps"], entries)
                if "trace" not in s and not e["problems"]]
    if not traces or not untraced:
        return {}, {}
    exact = traces[0]["exact"]
    n = exact["harness.trials"]
    metrics = {}
    for name in NAMES:
        metrics[f"{name}.calls"] = (exact[f"{name}.calls_total"] / n, "call/trial")
        metrics[f"{name}.self_ms"] = (
            statistics.median(t["self_ms"][name] for t in traces), "ms/trial"
        )
    metrics["linalg.posdef_inverse_apply.order_max"] = (
        exact["linalg.posdef_inverse_apply.order_max"], "rows"
    )
    metrics["linalg.posdef_inverse_apply.gflop"] = (
        exact["linalg.posdef_inverse_apply.flop_total"] / n / 1e9, "calc.GFLOP/trial"
    )
    trial_ms = [ms for t in traces for ms in t["trial_ms"]]
    metrics["harness.trial_ms_p50"] = (percentile(trial_ms, 50), "ms")
    metrics["harness.trial_ms_p99"] = (percentile(trial_ms, 99), "ms")
    metrics["harness.trial_ms_samples"] = (len(trial_ms), "count")
    metrics["harness.busy_frac"] = (statistics.median(t["busy_frac"] for t in traces), "fraction")
    traced_s = [e["seconds"] for s, e in traced if not e["problems"]]
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_s) / statistics.median(untraced) - 1.0, "fraction"
    )
    return metrics, exact


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    wl = WORKLOADS[name]
    outdir = os.path.join(ROOT, ".bench_out", f"{name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    job = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "outdir": outdir}
    setup, result = _run_child_job(job, 0 if trace else SETUP_LAUNCHES - 1, deadline)
    ref_entry, entries = _check_sweeps(wl, seed, result)
    exact = None
    if trace:
        metrics, exact = _per_layer(wl, result, entries)
    else:
        metrics = _end_to_end(wl, setup, result, entries)
    attempted = 1 + len(entries)
    failed = sum(1 for e in [ref_entry, *entries] if e["problems"])
    report = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "environment": _environment(result["environment"]),
        "setup_s": setup,
        "reference_sweep": ref_entry,
        "sweeps": entries,
        "exact_counts": exact,
        "failed_frac": failed / attempted,
        "metrics": metrics,
    }
    with open(os.path.join(outdir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": report,
    }


def _print_summary(name: str, res: dict) -> None:
    rep = res["report"]
    env = rep["environment"]
    print(
        f"== {name} seed={rep['seed']} trace={int(rep['trace'])} | python {env['python']} "
        f"numpy {env['numpy']} scipy {env['scipy']} blas {env['blas']} "
        f"blas_threads={env['blas_thread_vars']['OPENBLAS_NUM_THREADS']} "
        f"nproc={env['nproc']} cpu={env['cpu']}"
    )
    for metric, (value, unit) in res["metrics"].items():
        print(f"{name:12s} {metric:44s} {value:.6g} {unit}")
    print(f"{name:12s} {'failed_frac':44s} {rep['failed_frac']:.6g} fraction")
    digests = sorted({e.get("sha256", "-") for e in rep["sweeps"]})
    print(f"{name:12s} {'csv_sha256':44s} {' '.join(digests)}")
    for e in [rep["reference_sweep"], *rep["sweeps"]]:
        for problem in e["problems"]:
            print(f"{name:12s} FAILED seed={e['seed']}: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "hdrmimo", "__init__.py")):
        print(f"no hdrmimo sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            _print_summary(name, results[name])
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
