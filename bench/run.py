"""melab benchmark: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload orbit24 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --quick              # every workload at toy size

A run repeats whole rounds of its workload until ``--seconds`` have passed
(at least one round).  Each round is a fresh interpreter running
``bench/workloads.py``, started only after the previous one has ended, with
BLAS pinned to one thread.  Round k of seed s gets its inputs from (s, k).
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (medians over the rounds); with ``--trace 1`` the
rounds run with span tracing and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("orbit24", "ensemble12", "archive32")
BLAS_THREADS = "1"
# a run must end within 180 s of its start, whatever its rounds do
DEADLINE_S = 170.0
T_START = time.monotonic()

END_TO_END = {"setup_s": "s", "run_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}


def round_seed(seed: int, k: int) -> int:
    """Input seed of round k of a run with the given seed."""
    return (seed * 7919 + k * 104729) % (2**31 - 1)


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    env.pop("MELAB_OUTPUT", None)
    return env


def run_round(workload: str, seed: int, k: int, size: str, trace: int) -> dict:
    tag = f"{workload}-{size}-s{seed}-r{k}-p{os.getpid()}"
    result = OUT / f"{tag}.json"
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(round_seed(seed, k)),
        "--size", size, "--trace", str(trace),
        "--workdir", str(OUT / tag), "--result", str(result),
    ]
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], cwd=ROOT, env=_child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=max(1.0, DEADLINE_S - (t0 - T_START)),
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} round {k} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    doc = json.loads(result.read_text())
    result.unlink()
    return doc


def run(workload: str, seed: int, seconds: float, trace: int, size: str = "full") -> dict:
    OUT.mkdir(exist_ok=True)
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        rounds.append(run_round(workload, seed, len(rounds), size, trace))
    summary = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
    }
    if trace:
        units = rounds[0]["layer_units"]
        metrics = {
            n: {"value": statistics.median(r["layers"][n] for r in rounds), "unit": units[n]}
            for n in units
        }
    else:
        per_round = {
            "setup_s": [r["setup_s"] for r in rounds],
            "run_s": [r["run_s"] for r in rounds],
            "steps_per_s": [r["steps"] / r["run_s"] for r in rounds],
            "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
        }
        metrics = {
            n: {"value": statistics.median(v), "unit": END_TO_END[n]}
            for n, v in per_round.items()
        }
    summary["metrics"] = metrics
    record = dict(summary, workload=workload, seed=seed, size=size, trace=trace,
                  rounds=rounds)
    (OUT / f"result-{workload}-{size}-s{seed}-t{trace}.json").write_text(
        json.dumps(record, indent=1, default=float)
    )
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="one round of each workload (or of --workload) at toy size")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "melab" / "__init__.py").is_file():
        print(f"melab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.quick:
        ok = True
        for w in [args.workload] if args.workload else WORKLOADS:
            res = run(w, args.seed, 0.0, args.trace, size="quick")
            ok = ok and res["correct"] and res["failed"] == 0
            print(json.dumps({"workload": w, **res}))
        return 0 if ok else 1

    if args.workload is None:
        p.error("--workload is required unless --quick is given")
    res = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
