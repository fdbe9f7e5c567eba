"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that
each prints every metric named in BENCHMARK.json with its unit and counts no
failure.  Then corrupts one coefficient of a returned solution, and
separately one expected status, and checks that the failure is counted.
Takes about 15 seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def last_json(args: list[str]) -> dict:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    definition = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in definition["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = last_json([str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
                                "--seconds", "1", "--trace", str(trace), "--tiny"])
            want = {m["name"]: m["unit"] for m in definition[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace {trace}: metrics {sorted(set(got) ^ set(want))} "
                                f"or their units differ from BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: {result['failed']} failed")
        for corrupt in ("coefficient", "status"):
            result = last_json([str(BENCH / "worker.py"), "--workload", workload, "--seed", "1",
                                "--tiny", "--corrupt", corrupt])
            if not result["corrupted"] or not result["failed"]:
                problems.append(f"{workload}: corrupted {corrupt} was not counted as a failure")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
