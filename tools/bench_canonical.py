"""L0/L3 benchmark of canonical labelling, before and after a change.

Runs two copies of the library in one interpreter: the source of a given
git revision (the base of the change) and ``src/`` of the working tree.
Calls alternate between the two copies, and the side that goes first
alternates per round, so drift in machine speed hits both alike.  Every
case checks that both copies give the same results.  Three parts:

* ``canonical_form`` per call on the grid of ``tools/bench_gap_cut.py``
  (n = 24, 48, 128, 512, sizes from 8 to n/2): the median over rounds of
  50 seeded sets, and the first call at a modulus, timed alone after
  every cache that canonical labelling fills has been emptied;
* the two stochastic searches of the ``search`` workload
  (``perfbench/workloads.py``), with seeds drawn as that workload draws
  them;
* ``canonical_mask`` per node of the exhaustive witness walk at
  (k, n) = (3, 24), (3, 30), (4, 36), (4, 40), every node labelled once
  per round.

Each record holds the median and spread (largest minus smallest) per side:

    python tools/bench_canonical.py REV [--out FILE]

Standard library only.  A full run takes a few minutes on a 2-vCPU
machine; labelling the 154,445 nodes at k=4 n=40 dominates.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import tempfile
import time
from pathlib import Path

from bench_gap_cut import CANONICAL_SETS, _alternate, _canonical, _canonical_grid, _summary
from bench_sumset import ROOT, _extract_revision, _git, _load

ROUNDS = 7  # timed rounds per canonical_form and search case and side
FIRST_CALLS = 41  # cold first calls per canonical_form case and side
SEARCH_SEED = 1  # perfbench seed whose stochastic search configs are timed
STOCHASTIC = ((3, (24, 24), 2500), (2, (22, 24), 700))  # search's (k, n_range, budget)
NODE_CASES = ((3, 24), (3, 30), (4, 36), (4, 40))
NODE_ROUNDS = 3


def _clear_caches(groups) -> None:
    """Empty the per-modulus caches that canonical labelling fills (those the copy has)."""
    groups.units.cache_clear()
    getattr(groups, "_STACKS", {}).clear()


def _first_call(groups, s) -> tuple[int, float]:
    """Canonical mask of s after emptying the caches, and the call's wall time."""
    _clear_caches(groups)
    start = time.perf_counter()
    mask = s.canonical_form().mask
    return mask, time.perf_counter() - start


def _first_calls(groups, sets) -> tuple[list[float], list[float]]:
    """Cold first-call times of both sides, one set per round, the side going first alternating."""
    times: tuple[list[float], list[float]] = ([], [])
    for rep in range(FIRST_CALLS):
        masks = set()
        for i in ((0, 1) if rep % 2 == 0 else (1, 0)):
            mask, t = _first_call(groups[i], sets[i][rep])
            masks.add(mask)
            times[i].append(t)
        if len(masks) != 1:
            raise SystemExit("first-call results differ before and after")
    return list(times)


def _search(haight, cfg) -> tuple[tuple[int, ...], float]:
    """Class masks of one stochastic search, and its wall time."""
    start = time.perf_counter()
    found = haight.stochastic_search(cfg)
    return tuple(w.subset.mask for w in found), time.perf_counter() - start


def _search_configs(haight) -> list:
    """The search workload's stochastic configs for SEARCH_SEED, seeded as it seeds them."""
    rng = random.Random(f"search:{SEARCH_SEED}")
    return [
        haight.SearchConfig(k=k, n_range=n_range, mode="stochastic", budget=budget,
                            seed=rng.getrandbits(64))
        for k, n_range, budget in STOCHASTIC
    ]


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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision measured as 'before'")
    parser.add_argument("--out", default=str(ROOT / "BENCH_canonical_stack.json"))
    args = parser.parse_args()

    before_sha = _git("rev-parse", args.rev).decode().strip()
    canonical_cases, search_cases, node_cases = [], [], []
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
            first = _first_calls(groups, sets)
            _, times = _alternate(lambda i: _canonical(sets[i]), ROUNDS)
            case = {"n": n, "size": size, **_summary(times, "us", 1e6, 1),
                    "first_call": _summary(first, "us", 1e6, 1)}
            canonical_cases.append(case)
            print(f"canonical_form n={n:>3} size={size:>3}  {case['us_before']:8.1f} -> "
                  f"{case['us_after']:8.1f} us  x{case['speedup']}  first call "
                  f"{case['first_call']['us_before']:8.1f} -> "
                  f"{case['first_call']['us_after']:8.1f} us", flush=True)

        configs = [_search_configs(h) for h in haights]
        for j, (k, n_range, budget) in enumerate(STOCHASTIC):
            # the first call of each side interns its witnesses; keep them alive
            kept = [haights[i].stochastic_search(configs[i][j]) for i in (0, 1)]
            masks, times = _alternate(lambda i: _search(haights[i], configs[i][j]), ROUNDS)
            case = {"k": k, "n_range": list(n_range), "budget": budget, "classes": len(masks),
                    **_summary(times, "ms", 1e3, 2)}
            search_cases.append(case)
            print(f"stochastic k={k} n={n_range[0]}..{n_range[1]} budget={budget}  "
                  f"{case['ms_before']:8.2f} -> {case['ms_after']:8.2f} ms  x{case['speedup']}",
                  flush=True)
            del kept

        for k, n in NODE_CASES:
            nodes = _walk_nodes(n, k)
            _, times = _alternate(lambda i: _label(groups[i], nodes, n), NODE_ROUNDS)
            case = {"k": k, "n": n, "nodes": len(nodes), **_summary(times, "us_per_node", 1e6, 1)}
            node_cases.append(case)
            print(f"labelling k={k} n={n} {len(nodes):>7} nodes  "
                  f"{case['us_per_node_before']:6.1f} -> {case['us_per_node_after']:6.1f} "
                  f"us/node  x{case['speedup']}", flush=True)

    record = {
        "label": Path(args.out).stem.removeprefix("BENCH_"),
        "layer": "L0 CyclicSet.canonical_form and groups.canonical_mask, "
                 "L3 haight.stochastic_search",
        "git_sha_before": before_sha,
        "git_sha_after": _git("rev-parse", "HEAD").decode().strip(),
        "worktree_dirty": bool(_git("status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "method": (
            f"median and spread (max - min) per side, alternating before/after in one "
            f"interpreter: {ROUNDS} rounds of {CANONICAL_SETS} canonical_form calls (times "
            f"per call) and {FIRST_CALLS} first calls with emptied caches per grid case; "
            f"{ROUNDS} calls per stochastic search (perfbench search seed {SEARCH_SEED}, "
            f"witnesses kept alive); {NODE_ROUNDS} rounds labelling every walk node"
        ),
        "canonical_form": canonical_cases,
        "stochastic_search": search_cases,
        "labelling": node_cases,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
