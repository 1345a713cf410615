"""L1 benchmark of ``sumset`` around the saturation probe, before and after a change.

Times ``steinset.sumsets.sumset`` on a fixed grid of moduli and operand
families with two copies of the library in one interpreter: the source
of a given git revision (the base of the change) and ``src/`` of the
working tree.  For every case it records which kernel each copy ran, by
wrapping the raw-mask kernels ``_shift_or`` and ``_convolution`` that
every sumset path ends in, and times REPS alternated rounds of one call a
side, judged by ``bench_common.summary`` in milliseconds; it writes one
JSON file:

    python tools/bench_sumset.py REV [--out FILE]

Standard library only.  The largest modulus (262144) dominates the run
time; a full run takes a few minutes on a 2-vCPU machine.
"""

from __future__ import annotations

import random
import tempfile
import time
from pathlib import Path

from bench_common import alternate, arguments, load_copies, summary, write_record

MODULI = (1000, 4096, 16384, 65536, 262144)
FAMILIES = ("random half-density pair", "interval self-sum", "2Z_n self-sum", "near miss")
REPS = 10  # alternated rounds per case


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


class _Side:
    """One copy of the library, with its raw-mask kernel calls recorded."""

    def __init__(self, sumsets, groups):
        self.sumsets = sumsets
        self.CyclicSet = groups.CyclicSet
        self.ran: list[str] = []
        for name in ("_shift_or", "_convolution"):
            kernel = getattr(self.sumsets, name)
            setattr(self.sumsets, name,
                    lambda a, b, n, k=kernel, tag=name[1:]: self.ran.append(tag) or k(a, b, n))

    def kernel(self, a, b) -> str:
        """The kernel that sumset runs ('none' if the dispatcher answers alone)."""
        self.ran.clear()
        self.sumsets.sumset(a, b)
        return self.ran[0] if self.ran else "none"

    def time_call(self, a, b) -> tuple[int, float]:
        """Result mask and the call's wall time."""
        start = time.perf_counter()
        mask = self.sumsets.sumset(a, b).mask
        return mask, time.perf_counter() - start


def main() -> None:
    before_sha, out = arguments(__doc__, "BENCH_saturating_sumset.json")
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        sides = [_Side(*copy) for copy in zip(*load_copies(before_sha, Path(tmp), "sumsets", "groups"))]
        for n in MODULI:
            for family in FAMILIES:
                masks = _operands(family, n)
                operands = [tuple(s.CyclicSet(n, m) for m in masks) for s in sides]
                old_kernel, new_kernel = (s.kernel(*ops) for s, ops in zip(sides, operands))
                (mask, *_), times = alternate(lambda i, rnd: sides[i].time_call(*operands[i]), REPS)
                case = {
                    "n": n,
                    "family": family,
                    "full": mask == (1 << n) - 1,
                    "kernel_before": old_kernel,
                    "kernel_after": new_kernel,
                    **summary(times, 1e3, 4),
                }
                cases.append(case)
                print(f"{n:>7} {family:<26} {old_kernel:>12} -> {new_kernel:<12} "
                      f"{case['median_before']:>10.3f} -> {case['median_after']:>10.3f} ms  "
                      f"x{case['speedup']}  {case['verdict']}", flush=True)

    write_record(
        out, before_sha, "L1 sumsets.sumset",
        reps=REPS,
        unit="ms per call",
        kernel="kernel that sumset ran: shift_or, convolution, or none "
               "(answered by the saturation probe or a full operand)",
        cases=cases,
    )


if __name__ == "__main__":
    main()
