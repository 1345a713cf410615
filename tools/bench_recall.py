"""L3 benchmark of stochastic witness search: classes found at equal wall time.

Runs ``steinset.haight.stochastic_search`` from two copies of the library
in one interpreter: the source of a given git revision (the base of the
change) and ``src/`` of the working tree.  For every (k, n, seed) the
base runs at a fixed budget (BASE_BUDGET[k]).  Each budget tried for the
working tree is timed against it in REPS alternated rounds
(``bench_common.alternate``), and the two medians of
``bench_common.summary`` are compared.  The budget is
raised from START_BUDGET until the working tree's median exceeds the
base's, then bisected to within 5%; the largest budget tried that took
no longer than the base is reported.  A budget of 2^(n-1) or more covers
the whole walk and ends the search.
Writes one JSON file with the classes found and the median seconds on
each side, and the classes the working tree finds at the base's budget:

    python tools/bench_recall.py REV [--out FILE]

Standard library only.  A full run takes several minutes on a 2-vCPU
machine.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from bench_common import alternate, arguments, load_copies, summary, write_record

POINTS = [(2, n) for n in (20, 22, 24, 28, 32, 36, 48, 64)] + [(3, n) for n in (24, 30, 36, 48, 60)]
SEEDS = (11, 12, 13, 14)
BASE_BUDGET = {2: 3000, 3: 60000}  # per-modulus budget of the base side
START_BUDGET = 100  # the working tree's first budget
MAX_STEPS = 16  # budgets tried per (k, n, seed)
REPS = 3  # alternated rounds per budget tried


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
        found = [0, 0]  # classes per side: the budgets differ, so may the classes

        def run(i: int, rnd: int) -> tuple[None, float]:
            found[i], seconds = _timed(runs[i][0], k, n, seed, runs[i][1])
            return None, seconds

        medians = summary(alternate(run, REPS)[1], 1, 6)
        base_classes, classes = found
        target, seconds = medians["median_before"], medians["median_after"]
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
        "seconds_before": target,
        "budget_after": budget,
        "classes_after": classes,
        "seconds_after": seconds,
        "classes_after_same_budget": _timed(after, k, n, seed, BASE_BUDGET[k])[0],
    }


def main() -> None:
    before_sha, out = arguments(__doc__, "BENCH_stochastic_recall.json")
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        [(before, after)] = load_copies(before_sha, Path(tmp), "haight")
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
    write_record(
        out, before_sha, "L3 haight.stochastic_search",
        seeds=list(SEEDS),
        budget_before={str(k): b for k, b in BASE_BUDGET.items()},
        method="before runs at budget_before; each budget tried for after is timed in "
               f"{REPS} alternated rounds against it (bench_common.summary medians); "
               "after's budget is raised until its median time exceeds before's median in "
               "the same rounds, then bisected; the largest budget tried that took no longer "
               "is reported (or the whole walk, if it fits)",
        totals=totals,
        cases=cases,
    )


if __name__ == "__main__":
    main()
