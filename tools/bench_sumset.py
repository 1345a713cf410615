"""L1 benchmark of ``sumset`` around the saturation probe, before and after a change.

Times ``steinset.sumsets.sumset`` on a fixed grid of moduli and operand
families with two copies of the library in one interpreter: the source
of a given git revision (the base of the change) and ``src/`` of the
working tree.  Calls alternate between the two copies, so drift in machine speed
hits both alike.  For every case it records which kernel each copy ran
and the median wall time over REPS calls a side, and writes one JSON file:

    python tools/bench_sumset.py REV [--out FILE]

Standard library only.  The largest modulus (262144) dominates the run
time; a full run takes a few minutes on a 2-vCPU machine.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULI = (1000, 4096, 16384, 65536, 262144)
FAMILIES = ("random half-density pair", "interval self-sum", "2Z_n self-sum", "near miss")
REPS = 9  # timed calls per case and side


def _operands(family: str, n: int) -> tuple[int, int]:
    """Seeded operand masks for an even modulus n, each with 3n/8 members or more."""
    if family == "random half-density pair":  # each residue in each set with probability 1/2
        rng = random.Random(n)
        return rng.getrandbits(n), rng.getrandbits(n)
    if family == "interval self-sum":  # [0, 3n/8): the sum misses n/4 residues
        a = (1 << (3 * n // 8)) - 1
    elif family == "2Z_n self-sum":  # binary 0101...01, the even residues
        a = ((1 << n) - 1) // 3
    else:  # A = B = [0, (n-1)/2]: the sum misses exactly n - 1 for even n
        a = (1 << ((n - 1) // 2 + 1)) - 1
    return a, a


def _load(src: Path, name: str):
    """Import the ``steinset`` package under ``src`` as top-level package ``name``."""
    init = src / "steinset" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


class _Side:
    """One copy of the library, with its kernel calls recorded."""

    def __init__(self, package):
        self.sumsets = sys.modules[package.__name__ + ".sumsets"]
        self.CyclicSet = sys.modules[package.__name__ + ".groups"].CyclicSet
        self.ran: list[str] = []
        for name in ("sumset_shift_or", "sumset_convolution"):
            kernel = getattr(self.sumsets, name)
            setattr(self.sumsets, name,
                    lambda a, b, k=kernel, tag=name[7:]: self.ran.append(tag) or k(a, b))

    def first_call(self, a, b):
        """Result mask and the kernel that ran ('none' if the dispatcher answered alone)."""
        self.ran.clear()
        mask = self.sumsets.sumset(a, b).mask
        return mask, self.ran[0] if self.ran else "none"

    def time_call(self, a, b) -> float:
        start = time.perf_counter()
        self.sumsets.sumset(a, b)
        return time.perf_counter() - start


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def _extract_revision(sha: str, dest: Path) -> Path:
    """Extract ``src/`` of git revision ``sha`` under ``dest``; the extracted ``src``."""
    dest.mkdir(parents=True, exist_ok=True)
    archive = dest / "src.tar"
    archive.write_bytes(_git("archive", sha, "src"))
    with tarfile.open(archive) as tar:
        tar.extractall(dest)
    return dest / "src"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision measured as 'before'")
    parser.add_argument("--out", default=str(ROOT / "BENCH_saturating_sumset.json"))
    args = parser.parse_args()

    before_sha = _git("rev-parse", args.rev).decode().strip()
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        sides = (_Side(_load(_extract_revision(before_sha, Path(tmp)), "steinset_before")),
                 _Side(_load(ROOT / "src", "steinset_after")))
        for n in MODULI:
            for family in FAMILIES:
                masks = _operands(family, n)
                operands = [tuple(s.CyclicSet(n, m) for m in masks) for s in sides]
                (old, old_kernel), (new, new_kernel) = (
                    s.first_call(*ops) for s, ops in zip(sides, operands)
                )
                if old != new:
                    raise SystemExit(f"n={n} {family}: results differ before and after")
                times: tuple[list[float], list[float]] = ([], [])
                for rep in range(REPS):
                    order = (0, 1) if rep % 2 == 0 else (1, 0)
                    for i in order:
                        times[i].append(sides[i].time_call(*operands[i]))
                before_ms, after_ms = (round(statistics.median(t) * 1e3, 4) for t in times)
                case = {
                    "n": n,
                    "family": family,
                    "full": new == (1 << n) - 1,
                    "kernel_before": old_kernel,
                    "kernel_after": new_kernel,
                    "median_ms_before": before_ms,
                    "median_ms_after": after_ms,
                    "speedup": round(before_ms / after_ms, 2),
                }
                cases.append(case)
                print(f"{n:>7} {family:<26} {old_kernel:>12} -> {new_kernel:<12} "
                      f"{before_ms:>10.3f} -> {after_ms:>10.3f} ms  x{case['speedup']}", flush=True)

    record = {
        "label": "saturating_sumset",
        "layer": "L1 sumsets.sumset",
        "git_sha_before": before_sha,
        "git_sha_after": _git("rev-parse", "HEAD").decode().strip(),
        "worktree_dirty": bool(_git("status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "reps": REPS,
        "kernel": "kernel that sumset ran: shift_or, convolution, or none "
                  "(answered by the saturation probe or a full operand)",
        "cases": cases,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
