"""Per-layer tracing from outside the program.

Wraps trifrac's public layer functions in spans and aggregates them in
memory: calls and self time per layer, and time per (caller, callee)
edge.  A layer's self time is its span's duration minus the part covered by
its child spans.

trifrac modules bind each other's functions with ``from .x import y``, so a
wrapper placed only on the defining module would miss calls made through
the importing modules.  ``Tracer.install`` therefore rebinds the name in
every loaded trifrac module that holds the original object.  A layer whose
module or name no longer exists is reported as absent.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

# metric prefix -> (module, attribute path, workloads that must call it)
LAYERS = {
    "intmath.divisors": ("trifrac.intmath", "divisors", ("decide-requests",)),
    "base_solutions.enumerate_base_solutions": (
        "trifrac.base_solutions", "enumerate_base_solutions", ("scan-sweep", "audit-reuse")),
    "theorem.decide": ("trifrac.theorem", "decide", ("scan-sweep", "audit-reuse")),
    "theorem.enumerate_kl": ("trifrac.theorem", "enumerate_kl", ("decide-requests",)),
    "theorem.search_condition_iii": (
        "trifrac.theorem", "search_condition_iii", ("decide-requests",)),
    "theorem.construct_solution": ("trifrac.theorem", "construct_solution", ("family-verify",)),
    "theorem.verify_identity": ("trifrac.theorem", "verify_identity", ("family-verify",)),
    "theorem.identity_holds": ("trifrac.theorem", "identity_holds", ("family-verify",)),
    "qpoly.RationalPoly.mul": ("trifrac.qpoly", "RationalPoly.__mul__", ("family-verify",)),
    "families.plus_family": ("trifrac.families", "plus_family", ("family-verify",)),
    "families.minus_family": ("trifrac.families", "minus_family", ("family-verify",)),
    "scan_audit.scan_residues": ("trifrac.scan_audit", "scan_residues", ("scan-sweep",)),
    "scan_audit.audit_corollary3": ("trifrac.scan_audit", "audit_corollary3", ("audit-reuse",)),
    "scan_audit.audit_condition_i": ("trifrac.scan_audit", "audit_condition_i", ("audit-reuse",)),
    "cli.main": ("trifrac.cli", "main", ("decide-requests", "scan-sweep")),
}


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct_base_args: set = set()
        self.absent: list[str] = []
        self._stack: list[list] = []  # [name, seconds covered by children]

    def current(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def wrap(self, name: str, fn, after=None):
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                self.edges[(parent[0] if parent else "bench", name)] += elapsed
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self) -> None:
        for name, (module_name, path, _) in LAYERS.items():
            try:
                owner = importlib.import_module(module_name)
            except ModuleNotFoundError:
                self.absent.append(name)
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapped = self.wrap(name, original, getattr(self, "_after_" + name.replace(".", "_"), None))
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").partition(".")[0] != "trifrac":
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    # ---- counters recorded at the layer boundaries

    def _after_base_solutions_enumerate_base_solutions(self, args, result) -> None:
        self.distinct_base_args.add(args)
        self.counts["base.triples_out"] += len(result)
        if self.current() == "theorem.decide":
            self.counts["decide.examined"] += len(result)

    def _after_theorem_decide(self, args, result) -> None:
        self.counts["decide.accepted"] += len(result.solutions)

    def _after_theorem_search_condition_iii(self, args, result) -> None:
        fam, t_max = args[0], args[1]
        self.counts["search.steps"] += t_max + 1 if result is None else (result.s - fam.s0) // fam.step[0] + 1

    def _after_families_plus_family(self, args, result) -> None:
        self.counts["families.built"] += 1
        self.counts["families.integral"] += bool(result.integral)

    _after_families_minus_family = _after_families_plus_family

    def record_stdout(self, nbytes: int) -> None:
        self.counts["cli.stdout_bytes"] += nbytes

    # ---- results

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metric name -> (value, unit) for one traced pass."""
        out: dict[str, tuple[float, str]] = {}

        def calls_and_self(name: str, with_calls: bool = True) -> None:
            if with_calls:
                out[name + ".calls"] = (self.calls[name], "count")
            out[name + ".self_s"] = (self.self_s[name], "s")

        def ratio(num: int, den: int) -> float:
            return num / den if den else 0.0

        calls_and_self("intmath.divisors")
        base = "base_solutions.enumerate_base_solutions"
        calls_and_self(base)
        out[base + ".distinct_args"] = (len(self.distinct_base_args), "count")
        out[base + ".triples_out"] = (self.counts["base.triples_out"], "count")
        calls_and_self("theorem.decide")
        out["theorem.decide.accept_ratio"] = (
            ratio(self.counts["decide.accepted"], self.counts["decide.examined"]), "ratio")
        calls_and_self("theorem.enumerate_kl")
        calls_and_self("theorem.search_condition_iii")
        out["theorem.search_condition_iii.steps"] = (self.counts["search.steps"], "count")
        for name in ("theorem.construct_solution", "theorem.verify_identity",
                     "theorem.identity_holds", "qpoly.RationalPoly.mul",
                     "families.plus_family", "families.minus_family"):
            calls_and_self(name)
        out["families.integral_ratio"] = (
            ratio(self.counts["families.integral"], self.counts["families.built"]), "ratio")
        calls_and_self("scan_audit.scan_residues")
        calls_and_self("scan_audit.audit_corollary3", with_calls=False)
        calls_and_self("scan_audit.audit_condition_i", with_calls=False)
        calls_and_self("cli.main")
        out["cli.main.stdout_bytes"] = (self.counts["cli.stdout_bytes"], "bytes")
        return out

    def uncovered(self, workload: str) -> list[str]:
        """Present layers that should be stressed by ``workload`` yet were never called."""
        return [name for name, (_, _, stressed_by) in LAYERS.items()
                if workload in stressed_by and name not in self.absent and not self.calls[name]]

    def edge_table(self) -> list[tuple[str, str, float]]:
        return sorted(((a, b, s) for (a, b), s in self.edges.items()), key=lambda e: -e[2])
