"""Smoke run of the benchmark: every workload at toy size, traced."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_quick_traced():
    """The benchmark's set-up timer hooks ``stepping.step`` and its tracer
    wraps melab names by module attribute; a quick traced run checks that
    ``integrate`` still steps through that name and every wrapped name
    exists, with all correctness checks passing."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--quick", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    assert sorted(r["workload"] for r in results) == ["archive32", "ensemble12", "orbit24"]
    for r in results:
        assert r["correct"] and r["failed"] == 0, r
