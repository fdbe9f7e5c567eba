"""trifrac benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload scan-sweep --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; trifrac is imported
from its ``src/`` directory.  Each round is one pass of the workload in a
fresh worker process (``worker.py``); rounds run one after another until
``--seconds`` is used up, with at least three.  The untraced run
(``--trace 0``) reports the end-to-end metrics as medians over rounds.  The
traced run (``--trace 1``) alternates untraced and traced rounds and reports
the per-layer metrics of the traced ones.  Every line but the last is for
people; the last is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 120
RUN_LIMIT_S = 150  # no new round after this, so a run ends within 180 s


def environment() -> dict[str, str]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": str(len(os.sched_getaffinity(0))),
        "cpu": cpu,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest()[:16],
    }


def git_sha() -> str:
    """HEAD of the checkout, read without running git; the measured tree may
    be an export with no .git, in which case src_sha256 identifies it."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def run_round(args, traced: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced))]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pass_calls(rounds: list[dict]) -> list[float]:
    """Each call's median over the rounds, at the reference speed (every
    round makes the same calls)."""
    return [statistics.median(times) for times in zip(*(r["scaled_latencies"] for r in rounds))]


def end_to_end(rounds: list[dict]) -> dict[str, tuple[float, str]]:
    """Times are at the reference speed (see spec.py).  A pass's time is the
    sum of its calls' times, and the latency percentiles are over calls."""
    calls = pass_calls(rounds)
    wall = math.fsum(calls)
    return {
        "wall_s": (wall, "s"),
        "items_per_s": (rounds[0]["items"] / wall, "1/s"),
        "latency_p50_ms": (1000 * percentile(calls, 50), "ms"),
        "latency_p90_ms": (1000 * percentile(calls, 90), "ms"),
        "setup_s": (statistics.median(r["setup_scaled_s"] for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, tuple[float, str]]:
    """Medians over the traced rounds, in measured seconds; counts repeat
    exactly from round to round.  The overhead compares measured pass times,
    because untraced rounds also time the kernel inside calls and traced
    rounds do not, so their scaled times are not comparable."""
    out = {name: (statistics.median(r["layers"][name][0] for r in traced), unit)
           for name, (_, unit) in traced[0]["layers"].items()}
    overhead = (statistics.median(math.fsum(r["latencies"]) for r in traced)
                - statistics.median(math.fsum(r["latencies"]) for r in plain))
    out["trace_overhead_s"] = (overhead, "s")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test size")
    args = parser.parse_args()
    if not (ROOT / "src" / "trifrac" / "__init__.py").is_file():
        print(f"error: no trifrac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    for key, value in environment().items():
        print(f"env {key} = {value}")
    plain: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    start = time.monotonic()
    try:
        while True:
            trace_this = bool(args.trace) and len(traced) < len(plain)
            (traced if trace_this else plain).append(run_round(args, trace_this))
            elapsed = time.monotonic() - start
            durations.append(elapsed - sum(durations))
            done = len(plain) >= MIN_ROUNDS and (not args.trace or len(traced) >= MIN_ROUNDS)
            if elapsed > RUN_LIMIT_S or (done and elapsed + statistics.median(durations) > args.seconds):
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {args.workload} round failed: {exc}", file=sys.stderr)
        return 1

    rounds = plain + traced
    attempted = sum(r["items"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for note in dict.fromkeys(n for r in rounds for n in r["notes"]):
        print(f"failure: {note}")
    samples = len(plain[0]["latencies"])
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced rounds of {plain[0]['items']} items and {samples} timed calls")
    print(f"error_rate = {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    print("measured wall_s per round (t: traced): "
          + " ".join(f"{math.fsum(r['latencies']):.3f}{'t' if 'layers' in r else ''}" for r in rounds))
    print("host speed per round (reference = 1): "
          + " ".join(f"{math.fsum(r['scaled_latencies']) / math.fsum(r['latencies']):.3f}" for r in rounds))

    correct = failed == 0
    if args.trace:
        metrics = per_layer(plain, traced)
        for name in traced[0]["absent"]:
            print(f"layer {name}: absent from this tree")
        uncovered = sorted({n for r in traced for n in r["uncovered"]})
        for name in uncovered:
            print(f"coverage failure: {name} was never called on {args.workload}")
        correct = correct and not uncovered
        for caller, callee, seconds in traced[-1]["edges"]:
            print(f"span {caller} -> {callee}: {seconds:.6f} s")
    else:
        metrics = end_to_end(plain)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (median of {len(traced if args.trace else plain)} rounds)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
