"""L5 benchmark of the CLI as a process, before and after a change.

Spawns every command of the ``session`` workload's script (perfbench,
full scale, seed SEED) as its own ``python -B -m steinset.cli`` process,
once with the source of a given git revision (the base of the change) and
once with ``src/`` of the working tree.  Each side runs the script in
order against its own copy of the pre-filled store; the two sides
alternate command by command, so drift in machine speed hits both alike.
``-B`` keeps children from writing bytecode, so every process compiles the
modules it imports, as when the package runs from a fresh checkout.

For every command it records the median wall time over REPS spawns a side,
from spawn to exit, and the ``steinset`` modules (and ``dataclasses``, if
imported) that the command loaded on each side (``steinset.cli`` itself
runs as ``__main__`` and is not listed), and checks that both sides print
the same bytes.  One JSON file is written:

    python tools/bench_cli.py REV [--out FILE]

Standard library only; a run takes about two minutes on a 2-vCPU machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_sumset import ROOT, _extract_revision, _git

SEED = 11  # session script and pre-fill seed
REPS = 7  # timed spawns per command and side


class _Side:
    """One copy of the library and the store its commands run against."""

    def __init__(self, src: Path, store_dir: Path, session):
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.store_dir = store_dir
        self.session = session

    def reset_store(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)
        self.store_dir.mkdir(parents=True)
        shutil.copyfile(self.session.template, self.store_dir / self.session.template.name)

    def run(self, i: int, *flags: str) -> tuple[float, bytes, bytes]:
        """Command ``i`` against this side's store: (wall seconds, stdout, stderr)."""
        argv = self.session.argv(i)
        argv[argv.index("--store-dir") + 1] = str(self.store_dir)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-B", *flags, "-m", "steinset.cli", *argv],
            capture_output=True, stdin=subprocess.DEVNULL, cwd=self.session.workdir, env=self.env,
        )
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise SystemExit(f"{self.session.ops[i]}: exit code {proc.returncode}: "
                             f"{proc.stderr.decode()[-300:]}")
        return elapsed, proc.stdout, proc.stderr

    def modules(self, i: int) -> list[str]:
        """The steinset modules, and dataclasses, that command ``i`` imports."""
        _, _, err = self.run(i, "-X", "importtime")
        names = {line.rsplit("|", 1)[-1].strip() for line in err.decode().splitlines()
                 if line.startswith("import time:")}
        return sorted(n for n in names if n.startswith("steinset") or n == "dataclasses")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision measured as 'before'")
    parser.add_argument("--out", default=str(ROOT / "BENCH_cli_startup.json"))
    args = parser.parse_args()

    before_sha = _git("rev-parse", args.rev).decode().strip()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        session = workloads.Session(SEED, "full", tmp / "session")
        sides = (_Side(_extract_revision(before_sha, tmp / "before"), tmp / "store-before", session),
                 _Side(ROOT / "src", tmp / "store-after", session))
        count = len(session.ops)

        modules: tuple[list, list] = ([], [])
        for k, side in enumerate(sides):
            side.reset_store()
            modules[k].extend(side.modules(i) for i in range(count))
        times: list[tuple[list[float], list[float]]] = [([], []) for _ in range(count)]
        for rep in range(REPS):
            for side in sides:
                side.reset_store()
            for i in range(count):
                order = (0, 1) if (rep + i) % 2 == 0 else (1, 0)
                out = [b"", b""]
                for k in order:
                    elapsed, out[k], _ = sides[k].run(i)
                    times[i][k].append(elapsed)
                if out[0] != out[1]:
                    raise SystemExit(f"{session.ops[i]}: output differs before and after")
        bare = []
        for _ in range(REPS):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-B", "-c", "pass"], check=True)
            bare.append(time.perf_counter() - start)

    commands = []
    for i, label in enumerate(session.ops):
        before_ms, after_ms = (round(statistics.median(t) * 1e3, 1) for t in times[i])
        commands.append({
            "command": label,
            "median_ms_before": before_ms,
            "median_ms_after": after_ms,
            "ratio": round(after_ms / before_ms, 3),
            "modules_before": modules[0][i],
            "modules_after": modules[1][i],
        })
        print(f"{label:<28} {before_ms:>8.1f} -> {after_ms:>8.1f} ms  "
              f"{len(modules[0][i])} -> {len(modules[1][i])} modules", flush=True)
    total_before = round(sum(c["median_ms_before"] for c in commands), 1)
    total_after = round(sum(c["median_ms_after"] for c in commands), 1)
    print(f"{'sum of medians':<28} {total_before:>8.1f} -> {total_after:>8.1f} ms")

    record = {
        "label": "cli_startup",
        "layer": "L5 the CLI as a process: spawn to exit",
        "git_sha_before": before_sha,
        "git_sha_after": _git("rev-parse", "HEAD").decode().strip(),
        "worktree_dirty": bool(_git("status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seed": SEED,
        "reps": REPS,
        "bare_interpreter_ms": round(statistics.median(bare) * 1e3, 1),
        "sum_median_ms_before": total_before,
        "sum_median_ms_after": total_after,
        "commands": commands,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
