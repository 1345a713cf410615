"""L0/L3 benchmark of canonical forms and the witness walk, before and after a change.

Times ``steinset.haight.exhaustive_search`` at one modulus per case,
``steinset.haight.stochastic_search`` on the ``search`` workload's two
seeded configurations (k=3 n=24 budget 2500; k=2 n=22..24 budget 700)
over WALK_SEEDS, and ``CyclicSet.canonical_form`` on a fixed seeded grid
of random sets (n = 24, 48, 128, 512, sizes from 8 to n/2), with two
copies of the library in one interpreter: the source of a given git
revision (the base of the change) and ``src/`` of the working tree.
Calls alternate between the two copies, and the side that goes first
alternates per round, so drift in machine speed hits both alike.  For
every case it checks that both copies return the same results, and
records the median wall time over the rounds and its spread (largest
minus smallest) on each side:

    python tools/bench_gap_cut.py REV [--out FILE]

The record's label is the output file's name without ``BENCH_``.
Standard library only.  A full run takes a few minutes on a 2-vCPU
machine; the base's k=3 n=36 scan dominates.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import statistics
import tempfile
import time
from pathlib import Path

from bench_sumset import ROOT, _extract_revision, _git, _load

CASES = [(2, 20), (2, 22), (2, 24), (3, 24), (3, 30), (3, 36), (4, 36), (4, 40)]
REPS = 3  # timed calls per scan case and side
CANONICAL_MODULI = (24, 48, 128, 512)
CANONICAL_SETS = 50  # random sets per (n, size) case, each reduced once per round
CANONICAL_REPS = 7  # timed rounds per canonical_form case and side
WALK_CASES = [(3, (24, 24), 2500), (2, (22, 24), 700)]  # (k, n_range, budget)
WALK_SEEDS = range(1, 21)  # seeds per seeded walk case, all in one timed call
WALK_REPS = 7  # timed calls per seeded walk case and side


def _alternate(run, reps: int) -> tuple[object, list[list[float]]]:
    """Call run(0) and run(1), each returning (result, seconds), ``reps``
    times a side, the side that goes first alternating per round; the one
    result both sides gave, and each side's times."""
    times: list[list[float]] = [[], []]
    results = set()
    for rep in range(reps):
        for i in ((0, 1) if rep % 2 == 0 else (1, 0)):
            result, t = run(i)
            times[i].append(t)
            results.add(result)
    if len(results) != 1:
        raise SystemExit("results differ before and after")
    return results.pop(), times


def _summary(times: list[list[float]], unit: str, scale: float, digits: int) -> dict:
    """Median and spread of each side's times, in ``unit`` (seconds times ``scale``)."""
    before, after = ([t * scale for t in side] for side in times)
    before_m, after_m = statistics.median(before), statistics.median(after)
    return {
        f"{unit}_before": round(before_m, digits),
        f"{unit}_after": round(after_m, digits),
        f"{unit}_spread_before": round(max(before) - min(before), digits),
        f"{unit}_spread_after": round(max(after) - min(after), digits),
        "speedup": round(before_m / after_m, 2),
    }


def _scan(haight, k: int, n: int) -> tuple[tuple[int, ...], float]:
    """Canonical class masks of one exhaustive search at modulus n, and its wall time."""
    cfg = haight.SearchConfig(k=k, n_range=(n, n))
    start = time.perf_counter()
    found = haight.exhaustive_search(cfg)
    return tuple(w.subset.mask for w in found), time.perf_counter() - start


def _walk(haight, k: int, n_range: tuple[int, int], budget: int) -> tuple[tuple, float]:
    """(modulus, canonical mask) of every class the seeded searches find
    over WALK_SEEDS, and their total wall time."""
    cfgs = [haight.SearchConfig(k=k, n_range=n_range, mode="stochastic", budget=budget, seed=s)
            for s in WALK_SEEDS]
    start = time.perf_counter()
    found = [haight.stochastic_search(cfg) for cfg in cfgs]
    seconds = time.perf_counter() - start
    return tuple((w.modulus, w.subset.mask) for ws in found for w in ws), seconds


def _canonical(sets: list) -> tuple[tuple[int, ...], float]:
    """Canonical masks of ``sets``, and the wall time per set."""
    start = time.perf_counter()
    forms = [s.canonical_form() for s in sets]
    return tuple(f.mask for f in forms), (time.perf_counter() - start) / len(sets)


def _canonical_grid() -> list[tuple[int, int]]:
    """(n, size) per canonical_form case: sizes double from 8, and n/2 ends each row."""
    return [
        (n, size)
        for n in CANONICAL_MODULI
        for size in [s for s in (8, 16, 32, 64, 128) if s < n // 2] + [n // 2]
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision measured as 'before'")
    parser.add_argument("--out", default=str(ROOT / "BENCH_gap_cut.json"))
    args = parser.parse_args()

    before_sha = _git("rev-parse", args.rev).decode().strip()
    cases, walk_cases, canonical_cases = [], [], []
    with tempfile.TemporaryDirectory() as tmp:
        _load(_extract_revision(before_sha, Path(tmp)), "steinset_before")
        _load(ROOT / "src", "steinset_after")
        sides = ("before", "after")
        haights = [importlib.import_module(f"steinset_{s}.haight") for s in sides]
        groups = [importlib.import_module(f"steinset_{s}.groups") for s in sides]

        for n, size in _canonical_grid():
            rng = random.Random(f"canonical:{n}:{size}")
            members = [rng.sample(range(n), size) for _ in range(CANONICAL_SETS)]
            sets = [[g.CyclicSet.from_members(n, m) for m in members] for g in groups]
            _, times = _alternate(lambda i: _canonical(sets[i]), CANONICAL_REPS)
            case = {"n": n, "size": size, **_summary(times, "us", 1e6, 1)}
            canonical_cases.append(case)
            print(f"canonical_form n={n:>3} size={size:>3}  {case['us_before']:8.1f} -> "
                  f"{case['us_after']:8.1f} us  x{case['speedup']}", flush=True)

        for k, n_range, budget in WALK_CASES:
            found, times = _alternate(lambda i: _walk(haights[i], k, n_range, budget), WALK_REPS)
            lo, hi = n_range
            case = {"k": k, "n_range": [lo, hi], "budget": budget, "seeds": len(WALK_SEEDS),
                    "classes": len(found), **_summary(times, "ms", 1e3, 2)}
            walk_cases.append(case)
            print(f"seeded k={k} n={lo}..{hi} budget={budget} {case['classes']:>6} classes  "
                  f"{case['ms_before']:8.2f} -> {case['ms_after']:8.2f} ms  x{case['speedup']}",
                  flush=True)

        for k, n in CASES:
            masks, times = _alternate(lambda i: _scan(haights[i], k, n), REPS)
            case = {"k": k, "n": n, "classes": len(masks), **_summary(times, "seconds", 1, 4)}
            cases.append(case)
            print(f"k={k} n={n:>2} {case['classes']:>6} classes  {case['seconds_before']:8.3f} -> "
                  f"{case['seconds_after']:8.3f} s  x{case['speedup']}", flush=True)

    record = {
        "label": Path(args.out).stem.removeprefix("BENCH_"),
        "layer": "L0 CyclicSet.canonical_form, L3 haight.exhaustive_search and stochastic_search",
        "git_sha_before": before_sha,
        "git_sha_after": _git("rev-parse", "HEAD").decode().strip(),
        "worktree_dirty": bool(_git("status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "method": (
            f"median and spread (max - min) of {REPS} scans, {WALK_REPS} calls of "
            f"{len(WALK_SEEDS)} seeded searches, or {CANONICAL_REPS} rounds of "
            f"{CANONICAL_SETS} canonical_form calls a side, alternating before/after in one "
            "interpreter; canonical_form times per call, seeded searches per "
            f"{len(WALK_SEEDS)} seeds"
        ),
        "canonical_form": canonical_cases,
        "seeded_walk": walk_cases,
        "cases": cases,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
