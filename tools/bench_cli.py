"""L5 benchmark of the CLI as a process, before and after a change.

Spawns every command of the ``session`` workload's script (perfbench,
full scale, seed SEED) as its own ``python -B`` process that runs
``steinset.cli`` as ``-m`` would, once with the source of a given git
revision (the base of the change) and once with ``src/`` of the working
tree.  In each of REPS rounds, each side runs the script in order on a
fresh copy of the pre-filled store, then one usage error, ERROR_ARGV,
that must exit 2; the two sides alternate command by command, so drift
in machine speed hits both alike.  ``-B`` keeps children from writing
bytecode, so every process compiles the modules it imports, as when the
package runs from a fresh checkout.

For every command it records, judged by ``bench_common.summary``:

* ``ms``: the wall time, from spawn to exit;
* ``peak_rss_mb``: the process's own peak resident memory, ``VmHWM`` from
  ``/proc/self/status``, which the child's bootstrap BOOT writes to a file
  at exit (its verdict "faster" reads "lower").  ``ru_maxrss`` from
  ``wait4`` would not do: ``subprocess`` starts children with vfork, so a
  child's ``ru_maxrss`` includes the peak of this tool, its parent;
* the ``steinset`` modules (and ``dataclasses``, if imported) that the
  command loaded (``steinset.cli`` itself runs as ``__main__`` and is not
  listed).

It checks that both sides print the same bytes to stdout and stderr.  A
run writes one JSON file: the session commands under ``commands``, the
usage error under ``error_path``:

    python tools/bench_cli.py REV [--out FILE]

Standard library only; a run takes about a minute on a 2-vCPU machine.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_common import ROOT, arguments, extract_revision, summary, write_record

SEED = 11  # session script and pre-fill seed
REPS = 10  # rounds: timed spawns per command and side
ERROR_ARGV = ["sumset", "7:{0,1,3}", "nonsense"]  # a usage error: exit status 2

# Runs the CLI as ``-m steinset.cli`` would, then, at exit, writes the
# process's own peak RSS in KiB to the file named by its first argument.
BOOT = """
import atexit, runpy, sys

def write_peak(path):
    with open("/proc/self/status") as status:
        kib = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(path, "w") as out:
        out.write(kib)

atexit.register(write_peak, sys.argv.pop(1))
runpy.run_module("steinset.cli", run_name="__main__", alter_sys=True)
"""


class _Side:
    """One copy of the library and the store its commands run against."""

    def __init__(self, src: Path, store_dir: Path, session):
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.store_dir = store_dir
        self.peak_file = store_dir.with_name(store_dir.name + ".peak")
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

    def run(self, i: int, *flags: str) -> tuple[float, float, bytes, bytes]:
        """Command ``i``, which must exit 0 (2 for ERROR_ARGV): (wall seconds,
        its own peak RSS in MB, stdout, stderr)."""
        argv = self.argv(i)
        status = 2 if i == len(self.session.ops) else 0
        self.peak_file.unlink(missing_ok=True)  # a child that writes none fails below
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-B", *flags, "-c", BOOT, str(self.peak_file), *argv],
            capture_output=True, stdin=subprocess.DEVNULL, cwd=self.session.workdir, env=self.env,
        )
        elapsed = time.perf_counter() - start
        if proc.returncode != status:
            raise SystemExit(f"{argv}: exit code {proc.returncode}, expected {status}: "
                             f"{proc.stderr.decode()[-300:]}")
        peak_mb = int(self.peak_file.read_text()) / 1024
        return elapsed, peak_mb, proc.stdout, proc.stderr

    def modules(self, i: int) -> list[str]:
        """The steinset modules, and dataclasses, that command ``i`` imports."""
        *_, err = self.run(i, "-X", "importtime")
        names = {line.rsplit("|", 1)[-1].strip() for line in err.decode().splitlines()
                 if line.startswith("import time:")}
        return sorted(n for n in names if n.startswith("steinset") or n == "dataclasses")


def main() -> None:
    before_sha, out = arguments(__doc__, "BENCH_cli_startup.json")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        session = workloads.Session(SEED, "full", tmp / "session")
        sides = (_Side(extract_revision(before_sha, tmp / "before"), tmp / "store-before", session),
                 _Side(ROOT / "src", tmp / "store-after", session))
        count = len(session.ops) + 1  # the session script, then ERROR_ARGV
        labels = [*session.ops, " ".join(ERROR_ARGV)]

        modules: tuple[list, list] = ([], [])
        for k, side in enumerate(sides):
            side.reset_store()
            modules[k].extend(side.modules(i) for i in range(count))
        # per command, each side's wall times and peaks
        times, peaks = ([([], []) for _ in range(count)] for _ in range(2))
        for rep in range(REPS):
            for side in sides:
                side.reset_store()
            for i in range(count):
                order = (0, 1) if (rep + i) % 2 == 0 else (1, 0)
                printed = [(b"", b""), (b"", b"")]
                for k in order:
                    elapsed, peak, *printed[k] = sides[k].run(i)
                    times[i][k].append(elapsed)
                    peaks[i][k].append(peak)
                if printed[0] != printed[1]:
                    raise SystemExit(f"{labels[i]}: output differs before and after")
        error_stderr = printed[0][1]  # of the last command, ERROR_ARGV
        bare = []
        for _ in range(REPS):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-B", "-c", "pass"], check=True)
            bare.append(time.perf_counter() - start)

    write(out, before_sha, labels, times, peaks, modules, bare, error_stderr)


def write(out: Path, before_sha: str, labels: list[str], times, peaks, modules,
          bare: list[float], error_stderr: bytes) -> None:
    """Judge and print each command's times and peaks, then write the record
    to ``out``, the only file a run writes; the last command is ERROR_ARGV."""
    commands = []
    for i, label in enumerate(labels):
        ms, mb = summary(times[i], 1e3, 1), summary(peaks[i], 1, 2)
        commands.append({"command": label, "ms": ms, "peak_rss_mb": mb,
                         "modules_before": modules[0][i], "modules_after": modules[1][i]})
        print(f"{label:<28} {ms['median_before']:>8.1f} -> {ms['median_after']:>8.1f} ms "
              f"{ms['verdict']:<10}  {mb['median_before']:>6.2f} -> {mb['median_after']:>6.2f} MB "
              f"{mb['verdict']:<10}  {len(modules[0][i])} -> {len(modules[1][i])} modules", flush=True)
    error = commands.pop()
    total_before, total_after = (round(sum(c["ms"][f"median_{side}"] for c in commands), 1)
                                 for side in ("before", "after"))
    print(f"{'sum of medians':<28} {total_before:>8.1f} -> {total_after:>8.1f} ms")

    write_record(
        out, before_sha, "L5 the CLI as a process: spawn to exit",
        reps=REPS,
        seed=SEED,
        bare_interpreter_ms=round(statistics.median(bare) * 1e3, 1),
        sum_median_ms_before=total_before,
        sum_median_ms_after=total_after,
        commands=commands,
        error_path={"argv": ERROR_ARGV, "stderr": error_stderr.decode(),
                    **{key: value for key, value in error.items() if key != "command"}},
    )


if __name__ == "__main__":
    main()
