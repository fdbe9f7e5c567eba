"""Workload sizes, shared by the workloads and the reference generator.

Each workload's cost is kept nearly independent of the seed, so that runs
with different seeds can be compared: the seed changes which inputs are
drawn, not how much work they take.
"""

WORKLOADS = ("scan-sweep", "audit-reuse", "decide-requests", "family-verify")

# scan-sweep: one full scan of a prime modulus for m = 4 and one for m = 5.
# A prime modulus p with p = -1 (mod m) has exactly one (k, l) pair and p - 1
# residues.  A cold scan costs about p^3, so the candidate ranges are narrow:
# each scan's cost varies by at most 7% with the seed's choice.
SCAN_MODULI = {4: (436, 445), 5: (435, 450)}
SCAN_TINY = {4: 43, 5: 29}

# audit-reuse: corollary 3 for m = 5 and condition i for m = 4.  The cost of
# an audit is a step function of its bound: it jumps when the bound passes a
# prime whose residues must be decided.  Corollary 3 with m = 5 scans the
# primes p = 9 (mod 20); the largest below 709 is 569, so every bound in
# [600, 708] does the same scans (2,968 cache hits, 568 misses).  Condition i
# with m = 4 reaches n0 = 212 at p = 283 and nothing new until p = 293.
AUDIT_C3 = {"m": 5, "bound": (600, 708), "tiny": 60}
AUDIT_CI = {"m": 4, "bound": (283, 292), "tiny": 40}

# decide-requests: n1 log-uniform over [10^8, 10^12), stratified so that the
# latency percentiles do not depend on the luck of the draw: the seed picks
# one of DECIDE_PER_STRATUM stored classes in each of DECIDE_STRATA strata,
# and the stored classes of a stratum have nearly the same modelled cost.
DECIDE_LOG10_N1 = (8.0, 12.0)
DECIDE_STRATA = 100
DECIDE_PER_STRATUM = 3
DECIDE_DRAWS = 12
DECIDE_N0_MAX = 400
DECIDE_M = (4, 11)
DECIDE_GOLDEN = ((5, 7, 9), (5, 7, 19))
DECIDE_TINY_STRATA = 5

# family-verify: the grid m in FAMILY_M, 1 <= n0 < n1 <= FAMILY_N1_MAX.  The
# cost of a class is set by the base triples of m/n0, so for each (m, n0) the
# seed picks the same number of moduli n1 (a third, rounded up); the work per
# pass is then fixed and only the moduli change.
FAMILY_M = (4, 8)
FAMILY_N1_MAX = 40
FAMILY_TINY_N1_MAX = 12
FAMILY_SHARE = 3
FAMILY_VERIFY_EVERY = 4      # CLI verify on every 4th solution
FAMILY_RECHECK_EVERY = 64    # independent identity check on every 64th family

REFERENCE_FILE = "reference.json"

# The host's speed is tracked by timing a fixed pure-Python kernel every
# KERNEL_EVERY_S, between calls and inside them.  On a shared host,
# throughput swings by up to 1.9x in bursts that last from seconds to
# minutes, and those bursts slow the kernel and trifrac alike; the end-to-end
# times are reported at the reference speed, where the kernel takes
# KERNEL_REFERENCE_S (about its best time on a 2-core Xeon VM).
KERNEL_ITERATIONS = 20_000
KERNEL_REFERENCE_S = 0.0019
KERNEL_EVERY_S = 0.05
