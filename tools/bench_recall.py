"""L3 benchmark of stochastic witness search: classes found at equal wall time.

Runs ``steinset.haight.stochastic_search`` from two copies of the library
in one interpreter: the source of a given git revision (the base of the
change) and ``src/`` of the working tree.  For every (k, n, seed) the
base runs at a fixed budget (BASE_BUDGET[k]).  Each budget tried for the
working tree is timed in REPS pairs of calls, one call of each copy per
pair, the side that goes first alternating per pair, so drift in machine
speed hits both alike, and the two medians are compared.  The budget is
raised from START_BUDGET until the working tree's median exceeds the
base's, then bisected to within 5%; the largest budget tried that took
no longer than the base is reported.  A budget of 2^(n-1) or more covers
the whole walk and ends the search.
Writes one JSON file with the classes found and the median seconds on
each side, and the classes the working tree finds at the base's budget:

    python tools/bench_recall.py REV [--out FILE]

The record's label is the output file's name without ``BENCH_``.

Standard library only.  A full run takes several minutes on a 2-vCPU
machine.
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

from bench_sumset import ROOT, _extract_revision, _git, _load

POINTS = [(2, n) for n in (20, 22, 24, 28, 32, 36, 48, 64)] + [(3, n) for n in (24, 30, 36, 48, 60)]
SEEDS = (11, 12, 13, 14)
BASE_BUDGET = {2: 3000, 3: 60000}  # per-modulus budget of the base side
START_BUDGET = 100  # the working tree's first budget
MAX_STEPS = 16  # budgets tried per (k, n, seed)
REPS = 3  # timed calls a side per budget tried


def _timed(haight, k: int, n: int, seed: int, budget: int) -> tuple[int, float]:
    """Classes found by one stochastic search at modulus n, and its wall time."""
    cfg = haight.SearchConfig(k=k, n_range=(n, n), mode="stochastic", budget=budget, seed=seed)
    start = time.perf_counter()
    found = haight.stochastic_search(cfg)
    return len(found), time.perf_counter() - start


def _point(before, after, k: int, n: int, seed: int) -> dict:
    """Raise the working tree's budget until it takes longer than the base,
    then bisect; report the largest budget tried that took no longer."""
    trials = []  # (budget, classes, seconds, base seconds) per budget tried
    fit, over = 0, None  # the largest budget within time, the least one over it
    budget = START_BUDGET
    for _ in range(MAX_STEPS):
        runs = ((before, BASE_BUDGET[k]), (after, budget))
        found, times = [0, 0], ([], [])
        for rep in range(REPS):
            for i in ((0, 1) if rep % 2 == 0 else (1, 0)):
                found[i], t = _timed(runs[i][0], k, n, seed, runs[i][1])
                times[i].append(t)
        base_classes, classes = found
        target, seconds = (statistics.median(t) for t in times)
        trials.append((budget, classes, seconds, target))
        if seconds <= target:
            fit = budget
            if budget >= 1 << (n - 1):
                break  # the whole walk fits
        else:
            over = budget
        if over is None:
            budget = int(budget * max(1.25, min(4.0, target / seconds))) + 1
        elif over - fit <= fit // 20:
            break
        else:
            budget = (fit + over) // 2
    budget, classes, seconds, target = max(
        [t for t in trials if t[2] <= t[3]] or trials[:1], key=lambda t: t[0]
    )
    return {
        "k": k,
        "n": n,
        "seed": seed,
        "budget_before": BASE_BUDGET[k],
        "classes_before": base_classes,
        "seconds_before": round(target, 4),
        "budget_after": budget,
        "classes_after": classes,
        "seconds_after": round(seconds, 4),
        "classes_after_same_budget": _timed(after, k, n, seed, BASE_BUDGET[k])[0],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision measured as 'before'")
    parser.add_argument("--out", default=str(ROOT / "BENCH_stochastic_recall.json"))
    args = parser.parse_args()

    before_sha = _git("rev-parse", args.rev).decode().strip()
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        _load(_extract_revision(before_sha, Path(tmp)), "steinset_before")
        _load(ROOT / "src", "steinset_after")
        before, after = (importlib.import_module(f"steinset_{side}.haight")
                         for side in ("before", "after"))
        for k, n in POINTS:
            for seed in SEEDS:
                case = _point(before, after, k, n, seed)
                cases.append(case)
                print(f"k={k} n={n:>2} seed={seed}  before {case['classes_before']:>5} classes "
                      f"in {case['seconds_before']:.3f} s  after {case['classes_after']:>5} "
                      f"in {case['seconds_after']:.3f} s (budget {case['budget_after']}), "
                      f"{case['classes_after_same_budget']} at the same budget",
                      flush=True)

    totals = []
    for k, n in POINTS:
        mine = [c for c in cases if (c["k"], c["n"]) == (k, n)]
        before_sum = sum(c["classes_before"] for c in mine)
        after_sum = sum(c["classes_after"] for c in mine)
        totals.append({"k": k, "n": n, "classes_before": before_sum, "classes_after": after_sum,
                       "after_at_least_before": after_sum >= before_sum,
                       "classes_after_same_budget": sum(c["classes_after_same_budget"] for c in mine)})
    record = {
        "label": Path(args.out).stem.removeprefix("BENCH_"),
        "layer": "L3 haight.stochastic_search",
        "git_sha_before": before_sha,
        "git_sha_after": _git("rev-parse", "HEAD").decode().strip(),
        "worktree_dirty": bool(_git("status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seeds": list(SEEDS),
        "budget_before": {str(k): b for k, b in BASE_BUDGET.items()},
        "method": "before runs at budget_before; each budget tried for after is timed in "
                  f"{REPS} pairs of calls, the side that goes first alternating per pair; "
                  "after's budget is raised until its median time exceeds before's median in "
                  "the same pairs, then bisected; the largest budget tried that took no longer "
                  "is reported (or the whole walk, if it fits)",
        "totals": totals,
        "cases": cases,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
