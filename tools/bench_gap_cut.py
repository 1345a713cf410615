"""L0/L3 benchmark of canonical labelling and the witness walk, before and after a change.

Runs two copies of the library in one interpreter: the source of a given
git revision (the base of the change) and ``src/`` of the working tree.
Every case runs ROUNDS alternated rounds (SCAN_ROUNDS for the k=2 scans,
``bench_common.alternate``), checks that both copies give the same
results, and is judged by ``bench_common.summary``.  Five parts:

* ``CyclicSet.canonical_form`` per call on a fixed seeded grid of random
  sets (n = 24, 48, 64, 128, 512, sizes from 8 to n/2): warm, the median
  over rounds of 50 sets, and cold, the first call at a modulus, timed
  alone after every cache that canonical labelling fills has been emptied;
* ``haight.stochastic_search`` on the ``search`` workload's two seeded
  configurations (k=3 n=24 budget 2500; k=2 n=22..24 budget 700), over
  WALK_SEEDS in one timed call;
* ``groups.canonical_mask`` per node of the exhaustive witness walk
  (_walk_nodes) at (k, n) = (3, 24), (3, 30), (4, 36), (4, 40), every
  node labelled once per round;
* ``groups.largest_gap_images`` (the walk's orbit marks) per call, on the
  first witness mask of each class that the k=2 exhaustive walk meets at
  n = 10..17, the calls of the ``search`` workload's k=2 scans: per modulus
  and all together, each call MARK_REPEATS times per round;
* ``haight.exhaustive_search`` at one modulus per case, over SCAN_ROUNDS
  rounds at k=2, whose scans vary the most against their gains.

    python tools/bench_gap_cut.py REV [--out FILE]

Standard library only.  A full run takes several minutes on a 2-vCPU
machine; the base's k=3 n=36 scans and labelling the 154,445 nodes at
k=4 n=40 dominate.
"""

from __future__ import annotations

import random
import tempfile
import time
from pathlib import Path

from bench_common import alternate, arguments, load_copies, summary, write_record

ROUNDS = 10  # alternated rounds per case, as many as summary's 9-in-10 rule counts
SCAN_ROUNDS = 20  # for the k=2 scans, where 10 rounds did not resolve a 5-15% change
CANONICAL_MODULI = (24, 48, 64, 128, 512)
CANONICAL_SETS = 50  # random sets per (n, size) case, each reduced once per round
FIRST_CALLS = 41  # cold first calls per canonical_form case and side
WALK_CASES = [(3, (24, 24), 2500), (2, (22, 24), 700)]  # (k, n_range, budget)
WALK_SEEDS = range(1, 21)  # seeds per seeded walk case, all in one timed call
NODE_CASES = ((3, 24), (3, 30), (4, 36), (4, 40))
MARK_RANGE = (10, 17)  # k=2 moduli whose first witness mask per class is marked
MARK_REPEATS = 20
CASES = [(2, 20), (2, 22), (2, 24), (3, 24), (3, 30), (3, 36), (4, 36), (4, 40)]


def _canonical(sets: list) -> tuple[tuple[int, ...], float]:
    """Canonical masks of ``sets``, and the wall time per set."""
    start = time.perf_counter()
    forms = [s.canonical_form() for s in sets]
    return tuple(f.mask for f in forms), (time.perf_counter() - start) / len(sets)


def _first_call(groups, s) -> tuple[int, float]:
    """Canonical mask of s after emptying the per-modulus caches that
    canonical labelling fills (those the copy has), and the call's wall time."""
    groups.units.cache_clear()
    getattr(groups, "_STACKS", {}).clear()
    start = time.perf_counter()
    mask = s.canonical_form().mask
    return mask, time.perf_counter() - start


def _canonical_grid() -> list[tuple[int, int]]:
    """(n, size) per canonical_form case: sizes double from 8, and n/2 ends each row."""
    return [
        (n, size)
        for n in CANONICAL_MODULI
        for size in [s for s in (8, 16, 32, 64, 128) if s < n // 2] + [n // 2]
    ]


def _walk(haight, k: int, n_range: tuple[int, int], budget: int) -> tuple[tuple, float]:
    """(modulus, canonical mask) of every class the seeded searches find
    over WALK_SEEDS, and their total wall time."""
    cfgs = [haight.SearchConfig(k=k, n_range=n_range, mode="stochastic", budget=budget, seed=s)
            for s in WALK_SEEDS]
    start = time.perf_counter()
    found = [haight.stochastic_search(cfg) for cfg in cfgs]
    seconds = time.perf_counter() - start
    return tuple((w.modulus, w.subset.mask) for ws in found for w in ws), seconds


def _walk_nodes(n: int, k: int) -> list[int]:
    """Every mask that the exhaustive witness walk at modulus n pushes.

    The walk of ``haight._scan_modulus`` without its witness tests: from
    {0}, children x with last < x <= min(n - gap, (n + last) // 2), and a
    child cut once its k-fold sumset is full.
    """
    full = (1 << n) - 1
    nodes = [1]
    stack = [(1, (1,) * k, 0, 0)]
    while stack:
        a, levels, last, gap = stack.pop()
        for x in range(last + 1, min(n - gap, (n + last) // 2) + 1):
            prev = 1
            grown = []
            for level in levels:
                prev = level | (((prev << x) | (prev >> (n - x))) & full)
                grown.append(prev)
            if prev == full:
                continue
            b = a | (1 << x)
            nodes.append(b)
            stack.append((b, tuple(grown), x, max(gap, x - last)))
    return nodes


def _label(groups, nodes: list[int], n: int) -> tuple[int, float]:
    """A hash of the canonical masks of ``nodes``, and the wall time per node."""
    canonical_mask = groups.canonical_mask
    start = time.perf_counter()
    labels = [canonical_mask(m, n) for m in nodes]
    return hash(tuple(labels)), (time.perf_counter() - start) / len(nodes)


def _mark_calls(haight) -> list[tuple[int, int]]:
    """(mask, n) of every groups.largest_gap_images call of a k=2 exhaustive
    search over MARK_RANGE: the first witness mask of each class it meets."""
    calls = []
    marks = haight.largest_gap_images

    def recorded(mask: int, n: int) -> list[int]:
        calls.append((mask, n))
        return marks(mask, n)

    haight.largest_gap_images = recorded
    try:
        haight.exhaustive_search(haight.SearchConfig(k=2, n_range=MARK_RANGE))
    finally:
        haight.largest_gap_images = marks
    return calls


def _marks(groups, calls: list[tuple[int, int]]) -> tuple[int, float]:
    """A hash of the mark sets of ``calls``, and the wall time per call over MARK_REPEATS passes."""
    largest_gap_images = groups.largest_gap_images
    start = time.perf_counter()
    for _ in range(MARK_REPEATS):
        images = [largest_gap_images(mask, n) for mask, n in calls]
    seconds = (time.perf_counter() - start) / (MARK_REPEATS * len(calls))
    return hash(tuple(map(frozenset, images))), seconds


def _scan(haight, k: int, n: int) -> tuple[tuple[int, ...], float]:
    """Canonical class masks of one exhaustive search at modulus n, and its wall time."""
    cfg = haight.SearchConfig(k=k, n_range=(n, n))
    start = time.perf_counter()
    found = haight.exhaustive_search(cfg)
    return tuple(w.subset.mask for w in found), time.perf_counter() - start


def _report(what: str, case: dict, unit: str) -> None:
    print(f"{what}  {case['median_before']:10.4g} -> {case['median_after']:10.4g} {unit}  "
          f"x{case['speedup']}  won {case['won_before']}:{case['won_after']}  {case['verdict']}",
          flush=True)


def main() -> None:
    before_sha, out = arguments(__doc__, "BENCH_gap_cut.json")
    canonical_cases, walk_cases, node_cases, mark_cases, cases = [], [], [], [], []
    with tempfile.TemporaryDirectory() as tmp:
        haights, groups = load_copies(before_sha, Path(tmp), "haight", "groups")

        for n, size in _canonical_grid():
            rng = random.Random(f"canonical:{n}:{size}")
            members = [rng.sample(range(n), size) for _ in range(CANONICAL_SETS)]
            sets = [[g.CyclicSet.from_members(n, m) for m in members] for g in groups]
            # round r's first call labels the r-th set
            _, first = alternate(lambda i, rnd: _first_call(groups[i], sets[i][rnd]), FIRST_CALLS)
            _, times = alternate(lambda i, rnd: _canonical(sets[i]), ROUNDS)
            case = {"n": n, "size": size, **summary(times, 1e6, 1),
                    "first_call": summary(first, 1e6, 1)}
            canonical_cases.append(case)
            _report(f"canonical_form n={n:>3} size={size:>3}", case, "us")
            _report("    first call", case["first_call"], "us")

        for k, n_range, budget in WALK_CASES:
            (found, *_), times = alternate(lambda i, rnd: _walk(haights[i], k, n_range, budget), ROUNDS)
            lo, hi = n_range
            case = {"k": k, "n_range": [lo, hi], "budget": budget, "seeds": len(WALK_SEEDS),
                    "classes": len(found), **summary(times, 1e3, 2)}
            walk_cases.append(case)
            _report(f"seeded k={k} n={lo}..{hi} budget={budget} {len(found):>6} classes", case, "ms")

        for k, n in NODE_CASES:
            nodes = _walk_nodes(n, k)
            _, times = alternate(lambda i, rnd: _label(groups[i], nodes, n), ROUNDS)
            case = {"k": k, "n": n, "nodes": len(nodes), **summary(times, 1e6, 1)}
            node_cases.append(case)
            _report(f"labelling k={k} n={n} {len(nodes):>7} nodes", case, "us/node")

        calls = _mark_calls(haights[1])
        for lo, hi in [(n, n) for n in range(MARK_RANGE[0], MARK_RANGE[1] + 1)] + [MARK_RANGE]:
            part = [(mask, n) for mask, n in calls if lo <= n <= hi]
            _, times = alternate(lambda i, rnd: _marks(groups[i], part), ROUNDS)
            case = {"n_range": [lo, hi], "calls": len(part), **summary(times, 1e6, 1)}
            mark_cases.append(case)
            _report(f"orbit marks n={lo}..{hi} {len(part):>4} calls", case, "us/call")

        for k, n in CASES:
            rounds = SCAN_ROUNDS if k == 2 else ROUNDS
            (masks, *_), times = alternate(lambda i, rnd: _scan(haights[i], k, n), rounds)
            case = {"k": k, "n": n, "classes": len(masks), "rounds": rounds, **summary(times, 1, 4)}
            cases.append(case)
            _report(f"k={k} n={n:>2} {len(masks):>6} classes", case, "s")

    write_record(
        out, before_sha,
        "L0 CyclicSet.canonical_form, groups.canonical_mask and largest_gap_images, "
        "L3 haight.stochastic_search and exhaustive_search",
        method=(
            f"bench_common.summary of {ROUNDS} alternated rounds in one interpreter: "
            f"{CANONICAL_SETS} canonical_form calls (times per call), and apart from them "
            f"{FIRST_CALLS} first calls with emptied caches, one per set, per grid case; one call "
            f"of {len(WALK_SEEDS)} seeded searches per seeded walk case; every walk node labelled "
            f"once per labelling case; every orbit-mark call {MARK_REPEATS} times per marks case; "
            f"one scan per exhaustive case, over {SCAN_ROUNDS} rounds at k=2"
        ),
        units={"canonical_form": "us per call", "seeded_walk": "ms per call",
               "labelling": "us per node", "orbit_marks": "us per call", "cases": "s per scan"},
        canonical_form=canonical_cases,
        seeded_walk=walk_cases,
        labelling=node_cases,
        orbit_marks=mark_cases,
        cases=cases,
    )


if __name__ == "__main__":
    main()
