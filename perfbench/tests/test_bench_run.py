"""The benchmark refuses to run without sources and stops its children."""

import os
import shutil
import subprocess
import sys

import pytest

import run

BENCH = os.path.dirname(run.__file__)


def test_benchmark_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_run_past_deadline_stops_its_children(monkeypatch):
    started = []

    class Recording(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(run.subprocess, "Popen", Recording)
    monkeypatch.setattr(run, "RUN_DEADLINE_S", 2.0)
    with pytest.raises(run.BenchError, match="did not finish"):
        run.run_workload("long-block", 1, 30.0, False)
    assert started
    assert all(p.returncode is not None for p in started)
