"""Check ``decide`` against ``oracles.degree_oracle`` on every class with
m in 4..7, n1 < 60 and n0 < n1 (3,130 classes): same status and the same
set of solution triples, members in any order.

Run from the repository root: ``PYTHONPATH=src python tests/degree_grid.py``.
Exits 1 at the first class where the two disagree.  It takes minutes, so it
runs as its own CI step rather than in the tier-1 suite, which checks the
smaller m in 4..5, n1 < 30 grid.
"""

from __future__ import annotations

import sys

from conftest import build_grid
from oracles import degree_oracle

from trifrac.theorem import decide


def main() -> int:
    grid = build_grid(range(4, 8), n1_max=59)
    assert len(grid) == 3130, len(grid)
    solvable = 0
    for rc in grid:
        out = decide(rc)
        triples = {tuple(sorted(tuple(p.nums) for p in pt)) for _, pt in out.solutions}
        expected = degree_oracle(rc)
        if len(triples) != len(out.solutions) or out.is_solvable() != bool(triples) or triples != expected:
            print(f"{tuple(rc)}: decide {out.status} with {sorted(triples)}, oracle {sorted(expected)}")
            return 1
        solvable += out.is_solvable()
    print(f"{len(grid)} classes agree with the degree oracle, {solvable} solvable")
    return 0


if __name__ == "__main__":
    sys.exit(main())
