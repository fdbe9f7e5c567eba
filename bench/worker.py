"""One pass of one workload, in a fresh process.

    python3 bench/worker.py --workload scan-sweep --seed 1 --trace 0

Imports trifrac from ``src/``, draws the workload's inputs from the seed,
runs them once as a single closed-loop client, checks every answer against
``reference.json`` with the stdlib oracle, and prints one JSON line.
``bench/run.py`` starts one worker per round, so trifrac's caches and
imports never carry over from one pass to the next.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import signal
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import oracle
import spec
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


class Checker:
    """Judges answers; optionally corrupts the first answer or expectation
    it sees, so the self-test can show that a wrong answer is counted."""

    def __init__(self, corrupt: str | None) -> None:
        self.corrupt = corrupt
        self.fired = False
        self.notes: list[str] = []

    def solution_ok(self, m: int, n0: int, n1: int, sol: dict) -> bool:
        if self.corrupt == "coefficient" and not self.fired:
            self.fired = True
            sol = dict(sol, x=[str(int(sol["x"][0]) + 1)] + list(sol["x"][1:]))
        return oracle.solution_ok(m, n0, n1, sol)

    def expect(self, params: list) -> list[tuple[int, int, int, int]]:
        expected = sorted(tuple(p) for p in params)
        if self.corrupt == "status" and not self.fired:
            self.fired = True
            return [] if expected else [(1, 1, 1, 1)]
        return expected

    def note(self, text: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(text)

    def holds(self, where: str, check, *args) -> bool:
        """Run one check; output of the wrong shape fails it instead of
        stopping the benchmark."""
        try:
            return check(*args)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            self.note(f"{where}: malformed output ({exc!r})")
            return False


def kernel() -> None:
    """A fixed slice of pure-Python work whose time tracks the host's speed.

    It allocates no container, so its time does not depend on the state of
    trifrac's heap, and the garbage collector never runs inside it."""
    acc = 0
    for i in range(spec.KERNEL_ITERATIONS):
        acc = (acc * 31 + i * i) % 1_000_003


def kernel_seconds() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


class Client:
    """The single closed-loop client: one call at a time, each timed.

    It times ``kernel()`` every KERNEL_EVERY_S: between calls, and inside a
    long call from an interval timer (in untraced rounds only, so that spans
    never absorb the kernel's time).  The kernel's time inside a call is taken
    out of the call's time.  Each call's time is also reported at the
    reference speed (``kernel()`` taking KERNEL_REFERENCE_S), scaled by the
    mean host speed over the kernel timings from just before to just after it.
    """

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.calls: list[tuple[float, int, int]] = []  # (seconds, first and last kernel timing)
        self.kernel_s: list[float] = []
        self.last_kernel = -math.inf
        self.paused = 0.0
        self.cli_module = sys.modules["trifrac.cli"]
        signal.signal(signal.SIGALRM, self._on_alarm)

    def time_kernel(self) -> float:
        seconds = kernel_seconds()
        self.kernel_s.append(seconds)
        self.last_kernel = perf_counter()
        return seconds

    def _on_alarm(self, signum, frame) -> None:
        self.paused += self.time_kernel()

    def timed(self, fn, *args):
        if perf_counter() - self.last_kernel > spec.KERNEL_EVERY_S:
            self.time_kernel()
        first = len(self.kernel_s) - 1
        self.paused = 0.0
        sample_inside = self.tracer is None
        if sample_inside:
            signal.setitimer(signal.ITIMER_REAL, spec.KERNEL_EVERY_S, spec.KERNEL_EVERY_S)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            if sample_inside:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = perf_counter() - start
            if perf_counter() - self.last_kernel > spec.KERNEL_EVERY_S:
                self.time_kernel()
            self.calls.append((elapsed - self.paused, first, len(self.kernel_s)))

    def latencies(self) -> tuple[list[float], list[float]]:
        """Each call's measured seconds, and its seconds at the reference speed."""
        raw, scaled = [], []
        for seconds, first, last in self.calls:
            around = self.kernel_s[first:max(last, first + 2)]
            speed = math.fsum(spec.KERNEL_REFERENCE_S / k for k in around) / len(around)
            raw.append(seconds)
            scaled.append(seconds * speed)
        return raw, scaled

    def cli(self, argv: list[str], timed: bool = True) -> tuple[int | None, str]:
        code, text = self.timed(self._cli, argv) if timed else self._cli(argv)
        if self.tracer is not None:
            self.tracer.record_stdout(len(text.encode()))
        return code, text

    def _cli(self, argv: list[str]) -> tuple[int | None, str]:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli_module.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed item, not a failed benchmark
            traceback.print_exc()
            code = None
        return code, out.getvalue()


def parse(text: str) -> dict | None:
    try:
        payload = json.loads(text)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


def index(payload: dict | None, field: str, key: str) -> dict:
    """``payload[field]`` as {item[key]: item}; empty for malformed output."""
    items = payload.get(field) if payload else None
    if not isinstance(items, list):
        return {}
    return {item.get(key): item for item in items if isinstance(item, dict)}


def str_params(items) -> list[tuple[int, int, int, int]]:
    return sorted(oracle.params_of(sol) for sol in items)


def outcome_ok(checker: Checker, m: int, n0: int, n1: int, payload: dict, expected) -> bool:
    """A CLI outcome object matches the expected parameter sets and every
    solution it carries verifies."""
    want = checker.expect(expected)
    sols = payload.get("solutions", [])
    status = "solvable" if want else "unsolvable"
    if payload.get("status") != status or str_params(sols) != want:
        checker.note(f"({m}, {n0}, {n1}): got {payload.get('status')} {str_params(sols)}, want {want}")
        return False
    if not all(checker.solution_ok(m, n0, n1, sol) for sol in sols):
        checker.note(f"({m}, {n0}, {n1}): a solution fails independent verification")
        return False
    return True


# ---------------------------------------------------------------- scan-sweep

def scan_setup(rng: random.Random, ref: dict, tiny: bool):
    calls = []
    for m, (lo, hi) in spec.SCAN_MODULI.items():
        candidates = sorted(p for p in map(int, ref["scan"][str(m)]) if lo <= p <= hi)
        calls.append((m, spec.SCAN_TINY[m] if tiny else rng.choice(candidates)))
    rng.shuffle(calls)
    return calls


def scan_run(calls, client: Client):
    return [(m, p, *client.cli(["scan", "--format", "json", "--m", str(m), "--n1", str(p)]))
            for m, p in calls]


def scan_check(calls, outputs, ref: dict, checker: Checker) -> tuple[int, int]:
    items = failed = 0
    for m, p, code, text in outputs:
        expected = ref["scan"][str(m)][str(p)]
        payload = parse(text) if code == 0 else None
        rows = index(payload, "rows", "n0")
        if payload is None or len(rows) != p - 1:
            checker.note(f"scan m={m} n1={p}: exit {code}, {len(rows)} rows")
        for n0 in range(1, p):
            items += 1
            row = rows.get(str(n0))
            if row is None or not checker.holds(f"scan m={m} n1={p}", outcome_ok, checker, m, n0, p,
                                                row, expected.get(str(n0), [])):
                failed += 1
    return items, failed


# ---------------------------------------------------------------- audit-reuse

def audit_setup(rng: random.Random, ref: dict, tiny: bool):
    calls = []
    for corollary, conf in (("3", spec.AUDIT_C3), ("i", spec.AUDIT_CI)):
        bound = conf["tiny"] if tiny else rng.randint(*conf["bound"])
        calls.append((corollary, conf["m"], bound))
    return calls


def audit_run(calls, client: Client):
    return [(c, m, b, *client.cli(["audit", "--corollary", c, "--m", str(m), "--bound", str(b),
                                   "--format", "json"]))
            for c, m, b in calls]


def decides_needed(corollary: str, inst: dict) -> int:
    """Residue classes the audit must decide for one prime: every residue of
    a corollary-3 prime that admits (k, l); for condition i, residues up to
    the first solvable one."""
    p = inst["p"]
    if corollary == "3":
        return p - 1 if inst["kl"] else 0
    return int(next(iter(inst["witnesses"]))) if inst["witnesses"] else p - 1


def audit_check(calls, outputs, ref: dict, checker: Checker) -> tuple[int, int]:
    items = failed = 0
    for corollary, m, bound, code, text in outputs:
        key = "c3" if corollary == "3" else "ci"
        expected = [inst for inst in ref["audit"][key] if inst["p"] <= bound]
        want_code = 3 if any(inst["verdict"] == "discrepancy" for inst in expected) else 0
        payload = parse(text) if code == want_code else None
        got = index(payload, "instances", "p")
        if payload is None or set(got) != {str(inst["p"]) for inst in expected}:
            checker.note(f"audit {corollary} m={m} bound={bound}: exit {code} (want {want_code}), "
                         f"{len(got)} instances (want {len(expected)})")
        for inst in expected:
            n = decides_needed(corollary, inst)
            items += n
            if not checker.holds(f"audit p={inst['p']}", audit_instance_ok, checker, m, inst,
                                 got.get(str(inst["p"]))):
                failed += max(n, 1)
    return items, failed


def audit_instance_ok(checker: Checker, m: int, want: dict, got: dict | None) -> bool:
    if got is None:
        return False
    kl = sorted((int(pair["k"]), int(pair["l"])) for pair in got.get("kl_pairs", []))
    if got.get("verdict") != want["verdict"] or kl != sorted(tuple(pair) for pair in want["kl"]):
        checker.note(f"audit p={want['p']}: verdict/kl {got.get('verdict')} {kl}")
        return False
    witnesses = index(got, "witnesses", "n0")
    if sorted(witnesses) != sorted(want["witnesses"]):
        checker.note(f"audit p={want['p']}: witnesses {sorted(witnesses)}")
        return False
    p = want["p"]
    return all(outcome_ok(checker, m, int(n0), p, witnesses[n0], params)
               for n0, params in want["witnesses"].items())


# ---------------------------------------------------------------- decide-requests

def decide_setup(rng: random.Random, ref: dict, tiny: bool):
    strata = ref["decide"]["strata"][: spec.DECIDE_TINY_STRATA] if tiny else ref["decide"]["strata"]
    requests = [rng.choice(entries) for entries in strata] + ref["decide"]["golden"]
    rng.shuffle(requests)
    return requests


def decide_run(requests, client: Client):
    return [client.cli(["decide", "--format", "json", "--m", str(m), "--n0", str(n0),
                        "--n1", str(n1)])
            for m, n0, n1, _ in requests]


def decide_check(requests, outputs, ref: dict, checker: Checker) -> tuple[int, int]:
    failed = 0
    for (m, n0, n1, expected), (code, text) in zip(requests, outputs):
        payload = parse(text) if code == 0 else None
        if payload is None:
            checker.note(f"decide ({m}, {n0}, {n1}): exit {code}")
        if payload is None or not checker.holds(f"decide ({m}, {n0}, {n1})", outcome_ok, checker,
                                                m, n0, n1, payload, expected):
            failed += 1
    return len(requests), failed


# ---------------------------------------------------------------- family-verify

def family_setup(rng: random.Random, ref: dict, tiny: bool):
    n1_max = spec.FAMILY_TINY_N1_MAX if tiny else spec.FAMILY_N1_MAX
    classes = []
    roles = {}
    for m in range(spec.FAMILY_M[0], spec.FAMILY_M[1] + 1):
        for n0 in range(1, n1_max):
            moduli = [n1 for n1 in range(n0 + 1, n1_max + 1)
                      if math.gcd(n1, n0) == 1 and math.gcd(n1, m) == 1]
            if not moduli:
                continue
            chosen = rng.sample(moduli, -(-len(moduli) // spec.FAMILY_SHARE))
            classes += [(m, n0, n1) for n1 in sorted(chosen)]
            roles[m, n0] = [r for t in oracle.base_triples(m, n0) for r in oracle.role_assignments(t)]
    classes.sort(key=lambda c: (c[2], c[0], c[1]))
    return {"classes": classes, "roles": roles}


def family_run(inputs, client: Client):
    with tempfile.TemporaryDirectory(prefix=".verify-", dir=BENCH) as workdir:
        return family_sweep(inputs, client, Path(workdir))


def family_sweep(inputs, client: Client, workdir: Path):
    import trifrac

    counter = {"family": 0, "solution": 0}
    return [client.timed(family_class, trifrac, m, n0, n1, inputs["roles"][m, n0], client,
                         workdir, counter)
            for m, n0, n1 in inputs["classes"]]


def family_class(trifrac, m, n0, n1, roles, client: Client, workdir: Path, counter: dict) -> dict:
    record = {"solutions": [], "verify_cli": [], "integral": [], "sampled": [],
              "minus_integral": 0, "error": None}
    try:
        rc = trifrac.ResidueClass(m, n0, n1)
        for ps, pt in trifrac.decide(rc).solutions:
            ok = trifrac.verify_identity(rc, pt)
            degrees = trifrac.analyze_degrees(rc, pt).degrees
            record["solutions"].append(((ps.k, ps.l, ps.s, ps.r), pt, ok, degrees))
            if counter["solution"] % spec.FAMILY_VERIFY_EVERY == 0:
                path = workdir / f"{m}-{n0}-{n1}-{ps.k}-{ps.s}-{ps.r}.json"
                path.write_text(json.dumps(coeff_strings(pt)), encoding="utf-8")
                record["verify_cli"].append(client.cli(
                    ["verify", "--format", "json", "--m", str(m), "--n0", str(n0),
                     "--n1", str(n1), "--file", str(path)], timed=False))
            counter["solution"] += 1
        for triple in roles:
            rt = trifrac.RoleTriple(*triple)
            plus = trifrac.plus_family(rc, rt)
            minus = trifrac.minus_family(rc, rt)
            if plus.integral:
                record["integral"].append(plus)
            record["minus_integral"] += bool(minus.integral)
            if counter["family"] % spec.FAMILY_RECHECK_EVERY == 0:
                record["sampled"] += [plus, minus]
            counter["family"] += 1
    except Exception:  # a crash fails this class's items, not the benchmark
        record["error"] = traceback.format_exc()
    return record


def coeff_strings(fam_or_triple) -> dict:
    triple = getattr(fam_or_triple, "triple", fam_or_triple)
    return {name: getattr(triple, name).to_coeff_strings() for name in ("x", "y", "z")}


def family_check(inputs, outputs, ref: dict, checker: Checker) -> tuple[int, int]:
    items = failed = 0
    for (m, n0, n1), record in zip(inputs["classes"], outputs):
        n = 2 * len(inputs["roles"][m, n0])
        items += n
        if not checker.holds(f"family ({m}, {n0}, {n1})", family_class_ok, checker, m, n0, n1,
                             record, ref["family"]["solutions"].get(f"{m},{n0},{n1}", [])):
            failed += n
    return items, failed


def family_class_ok(checker: Checker, m: int, n0: int, n1: int, record: dict, expected) -> bool:
    where = f"family ({m}, {n0}, {n1})"
    if record["error"]:
        checker.note(f"{where}: {record['error'].strip().splitlines()[-1]}")
        return False
    want = checker.expect(expected)
    got = sorted(params for params, *_ in record["solutions"])
    if got != want:
        checker.note(f"{where}: solutions {got}, want {want}")
        return False
    for _, pt, ok, degrees in record["solutions"]:
        if not ok or tuple(degrees) != (1, 1, 2) or not checker.solution_ok(m, n0, n1, coeff_strings(pt)):
            checker.note(f"{where}: solution rejected (verify {ok}, degrees {degrees})")
            return False
    for code, text in record["verify_cli"]:
        if code != 0 or not (parse(text) or {}).get("verified"):
            checker.note(f"{where}: CLI verify exit {code}")
            return False
    # integral plus families correspond one-to-one to solutions; minus never integral
    if len(record["integral"]) != len(want) or record["minus_integral"]:
        checker.note(f"{where}: {len(record['integral'])} integral plus, "
                     f"{record['minus_integral']} integral minus families")
        return False
    for fam in record["integral"] + record["sampled"]:
        polys = [[Fraction(c) for c in cs] for cs in coeff_strings(fam).values()]
        if not oracle.identity_holds(m, n0, n1, *polys):
            checker.note(f"{where}: {fam.branch} family fails the identity")
            return False
        if all(oracle.positive_integral(p) for p in polys) != fam.integral:
            checker.note(f"{where}: {fam.branch} family integral flag is wrong")
            return False
    return True


WORKLOADS = {
    "scan-sweep": (scan_setup, scan_run, scan_check),
    "audit-reuse": (audit_setup, audit_run, audit_check),
    "decide-requests": (decide_setup, decide_run, decide_check),
    "family-verify": (family_setup, family_run, family_check),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test size")
    parser.add_argument("--corrupt", choices=("coefficient", "status"),
                        help="self-test: corrupt the first answer or expectation checked")
    args = parser.parse_args()
    setup, run, check = WORKLOADS[args.workload]
    ref = json.loads((BENCH / spec.REFERENCE_FILE).read_text(encoding="utf-8"))

    kernel()  # warm up the interpreter's specializations before timing it
    kernel_before = kernel_seconds()
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import trifrac  # noqa: F401
    import trifrac.cli  # noqa: F401

    inputs = setup(random.Random(f"{args.workload}/{args.seed}"), ref, args.tiny)
    setup_s = perf_counter() - start
    setup_speed = 2 * spec.KERNEL_REFERENCE_S / (kernel_before + kernel_seconds())

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    client = Client(tracer)
    outputs = run(inputs, client)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies, scaled = client.latencies()

    checker = Checker(args.corrupt)
    items, failed = check(inputs, outputs, ref, checker)
    result = {
        "setup_scaled_s": setup_s * setup_speed,
        "items": items, "failed": failed, "latencies": latencies,
        "scaled_latencies": scaled, "peak_rss_mb": peak_rss_mb, "notes": checker.notes,
        "corrupted": checker.fired,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["absent"] = tracer.absent
        result["uncovered"] = tracer.uncovered(args.workload)
        result["edges"] = tracer.edge_table()[:12]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
