"""L3 benchmark of the exhaustive witness walk, before and after a change.

Times ``steinset.haight.exhaustive_search`` at one modulus per case with
two copies of the library in one interpreter: the source of a given git
revision (the base of the change) and ``src/`` of the working tree.
Calls alternate between the two copies, and the side that goes first
alternates per round, so drift in machine speed hits both alike.  For
every case it checks that both copies return the same classes and
records their number and the median wall time over REPS calls a side:

    python tools/bench_gap_cut.py REV [--out FILE]

Standard library only.  A full run takes a few minutes on a 2-vCPU
machine; the base's k=3 n=36 scan dominates.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import tempfile
import time
from pathlib import Path

from bench_sumset import ROOT, _git, _load, _load_revision

CASES = [(2, 20), (2, 22), (2, 24), (3, 24), (3, 30), (3, 36), (4, 36), (4, 40)]
REPS = 3  # timed calls per case and side


def _timed(haight, k: int, n: int) -> tuple[list[int], float]:
    """Canonical class masks of one exhaustive search at modulus n, and its wall time."""
    cfg = haight.SearchConfig(k=k, n_range=(n, n))
    start = time.perf_counter()
    found = haight.exhaustive_search(cfg)
    return [w.subset.mask for w in found], time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision measured as 'before'")
    parser.add_argument("--out", default=str(ROOT / "BENCH_gap_cut.json"))
    args = parser.parse_args()

    before_sha = _git("rev-parse", args.rev).decode().strip()
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        _load_revision(before_sha, tmp, "steinset_before")
        _load(ROOT / "src", "steinset_after")
        sides = [importlib.import_module(f"steinset_{side}.haight") for side in ("before", "after")]
        for k, n in CASES:
            times: tuple[list[float], list[float]] = ([], [])
            results = set()
            for rep in range(REPS):
                for i in ((0, 1) if rep % 2 == 0 else (1, 0)):
                    masks, t = _timed(sides[i], k, n)
                    times[i].append(t)
                    results.add(tuple(masks))
            if len(results) != 1:
                raise SystemExit(f"k={k} n={n}: classes differ before and after")
            before_s, after_s = (statistics.median(t) for t in times)
            case = {
                "k": k,
                "n": n,
                "classes": len(results.pop()),
                "seconds_before": round(before_s, 4),
                "seconds_after": round(after_s, 4),
                "speedup": round(before_s / after_s, 2),
            }
            cases.append(case)
            print(f"k={k} n={n:>2} {case['classes']:>6} classes  {before_s:8.3f} -> "
                  f"{after_s:8.3f} s  x{case['speedup']}", flush=True)

    record = {
        "label": "gap_cut",
        "layer": "L3 haight.exhaustive_search",
        "git_sha_before": before_sha,
        "git_sha_after": _git("rev-parse", "HEAD").decode().strip(),
        "worktree_dirty": bool(_git("status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "reps": REPS,
        "method": f"median of {REPS} calls a side, alternating before/after in one interpreter",
        "cases": cases,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
