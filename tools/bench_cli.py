"""L5 benchmark of the CLI as a process, before and after a change.

Spawns every command of the ``session`` workload's script (perfbench,
full scale, seed SEED) as its own ``python -B -m steinset.cli`` process,
once with the source of a given git revision (the base of the change) and
once with ``src/`` of the working tree.  Each side runs the script in
order against its own copy of the pre-filled store, followed by one usage
error, ERROR_ARGV, that must exit 2; the two sides alternate command by
command, so drift in machine speed hits both alike.  ``-B`` keeps children
from writing bytecode, so every process compiles the modules it imports,
as when the package runs from a fresh checkout.

For every command it records the median wall time over REPS spawns a side,
from spawn to exit, and the ``steinset`` modules (and ``dataclasses``, if
imported) that the command loaded on each side (``steinset.cli`` itself
runs as ``__main__`` and is not listed), and checks that both sides print
the same bytes to stdout and stderr.  The session commands go to one JSON
file, the usage error to ``BENCH_error_path.json`` in the same directory:

    python tools/bench_cli.py REV [--out FILE]

Standard library only; a run takes about 35 s on a 2-vCPU machine.
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
ERROR_ARGV = ["sumset", "7:{0,1,3}", "nonsense"]  # a usage error: exit status 2


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

    def argv(self, i: int) -> list[str]:
        """Command ``i`` of the session script, against this side's store; past its end, ERROR_ARGV."""
        if i == len(self.session.ops):
            return list(ERROR_ARGV)
        argv = self.session.argv(i)
        argv[argv.index("--store-dir") + 1] = str(self.store_dir)
        return argv

    def run(self, i: int, *flags: str) -> tuple[float, bytes, bytes]:
        """Command ``i``, which must exit 0 (2 for ERROR_ARGV): (wall seconds, stdout, stderr)."""
        argv = self.argv(i)
        status = 2 if i == len(self.session.ops) else 0
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-B", *flags, "-m", "steinset.cli", *argv],
            capture_output=True, stdin=subprocess.DEVNULL, cwd=self.session.workdir, env=self.env,
        )
        elapsed = time.perf_counter() - start
        if proc.returncode != status:
            raise SystemExit(f"{argv}: exit code {proc.returncode}, expected {status}: "
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
        count = len(session.ops) + 1  # the session script, then ERROR_ARGV
        labels = [*session.ops, " ".join(ERROR_ARGV)]

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
                out = [(b"", b""), (b"", b"")]
                for k in order:
                    elapsed, *out[k] = sides[k].run(i)
                    times[i][k].append(elapsed)
                if out[0] != out[1]:
                    raise SystemExit(f"{labels[i]}: output differs before and after")
        error_stderr = out[0][1]  # of the last command, ERROR_ARGV
        bare = []
        for _ in range(REPS):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-B", "-c", "pass"], check=True)
            bare.append(time.perf_counter() - start)

    commands = []
    for i, label in enumerate(labels):
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
    error = commands.pop()
    total_before = round(sum(c["median_ms_before"] for c in commands), 1)
    total_after = round(sum(c["median_ms_after"] for c in commands), 1)
    print(f"{'sum of medians':<28} {total_before:>8.1f} -> {total_after:>8.1f} ms")

    header = {
        "git_sha_before": before_sha,
        "git_sha_after": _git("rev-parse", "HEAD").decode().strip(),
        "worktree_dirty": bool(_git("status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "reps": REPS,
    }
    record = {
        "label": "cli_startup",
        "layer": "L5 the CLI as a process: spawn to exit",
        **header,
        "seed": SEED,
        "bare_interpreter_ms": round(statistics.median(bare) * 1e3, 1),
        "sum_median_ms_before": total_before,
        "sum_median_ms_after": total_after,
        "commands": commands,
    }
    error_record = {
        "label": "error_path",
        "layer": "L5 the CLI as a process: a usage error, spawn to exit 2",
        **header,
        "argv": ERROR_ARGV,
        "stderr": error_stderr.decode(),
        **{key: value for key, value in error.items() if key != "command"},
    }
    out = Path(args.out)
    out.write_text(json.dumps(record, indent=2) + "\n")
    out.with_name("BENCH_error_path.json").write_text(json.dumps(error_record, indent=2) + "\n")


if __name__ == "__main__":
    main()
