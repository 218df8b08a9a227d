"""Span tracing of hdrmimo's public functions, installed from outside.

``Tracer.install`` replaces each function in ``WRAPPED`` by a timing
wrapper under every name a loaded ``hdrmimo`` module binds it to, so calls
are caught where callers import them (``harness.realize_channel``,
``equalizer.posdef_inverse_apply``, ...). Nothing inside the package
changes, and ``uninstall`` restores the originals.

Spans stay in memory until the run ends. Each thread keeps its own stack
of open spans; a span opened on a thread with an empty stack (a sweep
worker) takes as parent the innermost span open on the installing thread,
which is ``run_sweep`` waiting on its pool.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
from dataclasses import dataclass
from time import perf_counter_ns

WRAPPED = {
    "channel": ("realize_channel", "noise_variance_from_msnr", "observe"),
    "training": (
        "generate_pilots", "simulate_training", "estimate_from_training",
        "ls_channel_estimate", "sample_covariance",
    ),
    "frontend": (
        "design_hr_iso", "design_hr_max", "identity_transform",
        "design_quantizer", "compute_agc", "apply_transform", "adc",
    ),
    "equalizer": (
        "build_lmmse", "build_unquantized_lmmse", "modulate", "equalize",
        "hard_slice", "count_bit_errors",
    ),
    "linalg": ("householder_apply", "dominant_eigenpair", "posdef_inverse_apply"),
    "harness": ("run_trial", "run_sweep"),
    "cli": ("main",),
}

NAMES = tuple(f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns)


def _solve_shape(a, bmat, *_, **__):
    # Order of the Hermitian system and number of right-hand sides.
    return (len(a), 1 if getattr(bmat, "ndim", 1) == 1 else bmat.shape[1])


# Wrapped functions whose operand shapes are recorded on the span.
_SHAPE_PROBES = {"linalg.posdef_inverse_apply": _solve_shape}


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    thread: int
    shape: tuple | None = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack: list = []
        self._patched: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        probe = _SHAPE_PROBES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                root = tracer._root_stack
                parent = root[-1] if root else None
            with tracer._lock:
                sid = next(tracer._ids)
            shape = probe(*args, **kwargs) if probe else None
            stack.append(sid)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                span = Span(sid, parent, name, start, end, threading.get_ident(), shape)
                with tracer._lock:
                    tracer.spans.append(span)

        return traced

    def install(self) -> None:
        """Wrap every function in WRAPPED wherever hdrmimo binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._root_stack
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "hdrmimo" or key.startswith("hdrmimo.")
        ]
        for mod_name, fns in WRAPPED.items():
            home = sys.modules[f"hdrmimo.{mod_name}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self.wrap(f"{mod_name}.{fn}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def _union_ns(intervals: list) -> int:
    total = 0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times_ns(spans: list) -> dict:
    """Span id -> duration minus the part of it covered by child spans.

    Children on the parent's own thread never overlap; pool workers'
    children of ``run_sweep`` do, so the covered part is an interval union.
    """
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [
            (max(k.start_ns, s.start_ns), min(k.end_ns, s.end_ns))
            for k in children.get(s.id, ())
        ]
        out[s.id] = s.duration_ns - _union_ns([iv for iv in kids if iv[1] > iv[0]])
    return out


def solve_flops(order: int, rhs: int) -> float:
    """Real flops of a complex Cholesky solve, computed from the shapes.

    Factorization n^3/6 complex multiply-adds, two triangular solves
    n^2 * m; a complex multiply-add is 8 real flops.
    """
    return 8.0 * (order**3 / 6.0 + order**2 * rhs)


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = math.ceil(p / 100.0 * len(ordered)) - 1
    return ordered[max(0, min(len(ordered) - 1, k))]


def summarize(spans: list, threads: int) -> dict:
    """Per-layer figures of one traced sweep.

    ``exact`` holds counts and solve-shape figures, which repeat bit for bit
    for a given seed; ``self_ms`` is per trial.
    """
    trials = [s for s in spans if s.name == "harness.run_trial"]
    sweeps = [s for s in spans if s.name == "harness.run_sweep"]
    if not trials or len(sweeps) != 1:
        raise ValueError(
            f"expected one run_sweep and at least one run_trial span, got "
            f"{len(sweeps)} and {len(trials)}"
        )
    n = len(trials)
    sweep = sweeps[0]
    selfs = self_times_ns(spans)
    calls = dict.fromkeys(NAMES, 0)
    self_ns = dict.fromkeys(NAMES, 0)
    for s in spans:
        calls[s.name] += 1
        self_ns[s.name] += selfs[s.id]
    solves = [s.shape for s in spans if s.shape is not None]
    exact = {f"{name}.calls_total": calls[name] for name in NAMES}
    exact["linalg.posdef_inverse_apply.order_max"] = max((o for o, _ in solves), default=0)
    # Summed in a fixed order so the float total repeats exactly.
    exact["linalg.posdef_inverse_apply.flop_total"] = sum(
        solve_flops(o, m) for o, m in sorted(solves)
    )
    exact["harness.trials"] = n
    under_sweep = _descendants(spans, sweep.id)
    return {
        "exact": exact,
        "self_ms": {name: self_ns[name] / 1e6 / n for name in NAMES},
        "trial_ms": [s.duration_ns / 1e6 for s in trials],
        "busy_frac": sum(s.duration_ns for s in trials) / (threads * sweep.duration_ns),
        # Self times of run_sweep and everything under it, over its wall
        # time: exactly 1 when spans nest on one thread.
        "accounted_frac": sum(selfs[i] for i in under_sweep) / sweep.duration_ns,
        "sweep_ms": sweep.duration_ns / 1e6,
    }


def _descendants(spans: list, root: int) -> set:
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s.id)
    out, todo = set(), [root]
    while todo:
        sid = todo.pop()
        out.add(sid)
        todo.extend(children.get(sid, ()))
    return out
