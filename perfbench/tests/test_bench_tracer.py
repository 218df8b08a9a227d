"""Span accounting, thread safety and repeatability of the tracer."""

import contextlib
import io
import sys
import threading

import pytest

import tracer
from tracer import Span, Tracer, self_times_ns, summarize


def test_self_time_subtracts_nested_children():
    spans = [
        Span(0, None, "a", 0, 100, 1),
        Span(1, 0, "b", 10, 40, 1),
        Span(2, 0, "b", 50, 60, 1),
        Span(3, 1, "c", 20, 25, 1),
    ]
    assert self_times_ns(spans) == {0: 60, 1: 25, 2: 10, 3: 5}


def test_self_time_uses_union_of_overlapping_worker_children():
    spans = [
        Span(0, None, "sweep", 0, 100, 1),
        Span(1, 0, "trial", 10, 60, 2),
        Span(2, 0, "trial", 30, 80, 3),
    ]
    assert self_times_ns(spans)[0] == 30


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert tracer.percentile(values, 50) == 50
    assert tracer.percentile(values, 99) == 99
    assert tracer.percentile([3.0], 99) == 3.0


def test_solve_flops_from_shapes():
    # n = 3, m = 2: 8 * (27/6 + 18)
    assert tracer.solve_flops(3, 2) == pytest.approx(180.0)


def test_spans_nest_per_thread_under_stress():
    t = Tracer()
    inner = t.wrap("inner", lambda: None)

    def body():
        for _ in range(200):
            inner()

    outer = t.wrap("outer", body)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=outer) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(old)
    by_id = {s.id: s for s in t.spans}
    assert len(by_id) == len(t.spans) == 8 * 201
    outers = [s for s in t.spans if s.name == "outer"]
    assert all(s.parent is None for s in outers)
    for s in t.spans:
        if s.name == "inner":
            parent = by_id[s.parent]
            assert parent.name == "outer" and parent.thread == s.thread
            assert parent.start_ns <= s.start_ns <= s.end_ns <= parent.end_ns
    selfs = self_times_ns(t.spans)
    for o in outers:
        kids = sum(s.duration_ns for s in t.spans if s.parent == o.id)
        assert selfs[o.id] == o.duration_ns - kids


def _traced_sweep(tmp_path, threads):
    import hdrmimo.cli
    from hdrmimo import harness

    original = harness.run_trial
    t = Tracer()
    t.install()
    try:
        assert harness.run_trial is not original
        with contextlib.redirect_stdout(io.StringIO()):
            hdrmimo.cli.main([
                "--bs-antennas", "16", "--ues", "4", "--clusters", "4",
                "--msnr-start", "10", "--msnr-stop", "12", "--msnr-step", "2",
                "--realizations", "2", "--symbols", "20", "--seed", "3",
                "--threads", str(threads), "--out", str(tmp_path / "out.csv"),
            ])
    finally:
        t.uninstall()
    assert harness.run_trial is original
    return summarize(t.spans, threads)


@pytest.mark.parametrize("threads", [1, 2])
def test_two_traced_runs_give_identical_counts(tmp_path, threads):
    first = _traced_sweep(tmp_path, threads)
    second = _traced_sweep(tmp_path, threads)
    assert first["exact"] == second["exact"]
    exact = first["exact"]
    assert exact["harness.trials"] == 5 * 2 * 2
    assert exact["cli.main.calls_total"] == 1
    assert exact["linalg.posdef_inverse_apply.order_max"] == 16
    for name in tracer.NAMES:
        assert exact[f"{name}.calls_total"] > 0, name
    assert 0.0 < first["busy_frac"] <= 1.0


def test_self_times_account_for_single_threaded_sweep(tmp_path):
    assert _traced_sweep(tmp_path, 1)["accounted_frac"] == pytest.approx(1.0, abs=1e-12)
