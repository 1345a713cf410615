"""Benchmark of the steinset package: time to an exact, checked answer.

    python3 perfbench/run.py --workload {search,algebra,session,all} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
Workloads are closed loop with one client, in one process (``session`` spawns
one CLI process at a time).  A run:

1. times the set-up ``SETUP_REPEATS`` times, each in a fresh interpreter
   (import ``steinset``, generate the seeded inputs, pre-fill the session
   store), and reports the median as ``setup_s``;
2. runs passes of the workload's fixed job until the next one would likely
   end after ``--seconds`` (at least one pass; two with ``--trace 1``, where
   every second pass is traced);
3. checks every answer outside the timed passes;
4. prints every metric by name, unit and sample count, then, as the last
   line, one JSON object: ``correct``, ``attempted``, ``failed`` and
   ``metrics`` (the ``BOUNDED`` end-to-end metrics with ``--trace 0``, the
   per-layer metrics of ``tracing.PER_LAYER`` with ``--trace 1``).

Passes take turns on the CPUs the run may use (see ``Runner.run``).

Work files go to ``.perfbench-work/`` and are removed at exit; the full
result record (run metadata, sample counts, failures) and the span dump of a
traced run go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 3
CLI_PROBE_REPEATS = 3
WORKLOAD_NAMES = ("search", "algebra", "session")
# The end-to-end metrics of the JSON line, which BENCHMARK.json bounds.  The op
# latencies are printed and recorded as well, but on a shared machine their
# run-to-run spread is too wide for a 0.25 bound.
BOUNDED = ("setup_s", "solve_s", "peak_rss_mb")


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "git_sha": git_sha(),
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
    }


def timed_process(argv: list[str], cwd: Path) -> float:
    """Seconds from spawn to exit of one process; raises if it fails."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=cwd, env=workloads.child_env(), stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: {proc.stderr.decode()[-2000:]}")
    return elapsed


def time_setups(args, workdir: Path) -> list[float]:
    """Set-up times; the session store the last one pre-fills stays in ``workdir``."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--scale", args.scale, "--setup-child", str(workdir)]
    return [timed_process(argv, ROOT) for _ in range(SETUP_REPEATS)]


def cli_probes(workdir: Path) -> dict[str, float]:
    """The CLI's fixed per-process cost, timed from outside (medians, in ms)."""
    py = sys.executable
    bare, imported, version = [], [], []
    for _ in range(CLI_PROBE_REPEATS):
        bare.append(timed_process([py, "-c", "pass"], workdir))
        imported.append(timed_process([py, "-c", "import steinset.cli"], workdir))
        version.append(timed_process([py, "-m", "steinset.cli", "--version"], workdir))
    med = statistics.median
    return {
        "cli.process_start_ms": 1000 * med(version),
        "cli.import_ms": 1000 * (med(imported) - med(bare)),
    }


class Runner:
    """Passes of one workload's job, their timings and their checked answers."""

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.session = isinstance(wl, workloads.Session)
        self.tracer = tracer
        # a traced run compares traced with untraced passes of the same kind:
        # session commands then run in process, through steinset.cli.main
        self.in_process = not self.session or tracer is not None
        self.untraced_s: list[float] = []
        self.traced_s: list[float] = []
        self.op_s: list[list[float]] = []  # per untraced pass
        self.pass_stats: list[dict] = []
        self.child_rss_kib = 0
        self.first: list | None = None
        self.first_verdicts: list[str | None] = []
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, seconds: float) -> None:
        """Passes until ``seconds`` have passed, then the checks of every answer.

        Passes take turns on the CPUs the run may use: on a shared machine the
        neighbours' load differs per CPU, and one CPU should not set a whole
        run's figures.
        """
        cpus = sorted(os.sched_getaffinity(0))
        start = time.perf_counter()
        passes, walls = [], []
        try:
            while True:
                traced = self.tracer is not None and len(passes) % 2 == 1
                os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
                t = time.perf_counter()
                passes.append(self._pass(len(passes), traced))
                walls.append(time.perf_counter() - t)
                # stop before a pass that would likely end after the deadline
                left = seconds - (time.perf_counter() - start)
                if left < statistics.median(walls) and (self.tracer is None or len(passes) >= 2):
                    break
        finally:
            os.sched_setaffinity(0, cpus)
        checks = time.perf_counter()
        for values in passes:
            self._judge(values)
        self.phase_s = (checks - start, time.perf_counter() - checks)

    def _pass(self, pass_id: int, traced: bool) -> list:
        wl, tracer = self.wl, self.tracer
        if self.session:
            wl.begin_pass()
        if traced:
            tracer.begin_pass(pass_id)
            tracer.install()
        values, op_s = [], []
        try:
            t0 = time.perf_counter()
            for i in range(len(wl.ops)):
                s = time.perf_counter()
                values.append(self._op(i, traced))
                op_s.append(time.perf_counter() - s)
            elapsed = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            if self.session:
                tracer.count("cli.commands", len(values))
                tracer.count("cli.failed", sum(1 for v in values if not isinstance(v, tuple) or v[0] != 0))
                tracer.count("store.file_bytes", wl.store_bytes())
            self.pass_stats.append(tracer.end_pass())
            self.traced_s.append(elapsed)
        else:
            self.untraced_s.append(elapsed)
            self.op_s.append(op_s)
        return values

    def _op(self, i: int, traced: bool):
        try:
            if not self.session:
                return self.wl.ops[i]()
            if self.in_process:
                return self.wl.in_process(i)
            code, out, rss = self.wl.spawn(i)
            self.child_rss_kib = max(self.child_rss_kib, rss)
            return code, out
        except Exception as exc:  # an op that raises is a failed op, not a crash
            return exc

    def _judge(self, values: list) -> None:
        """Check one pass; a value equal to the first pass's shares its verdict."""
        first_pass = self.first is None
        if first_pass:
            self.first = values
        for i, value in enumerate(values):
            self.attempted += 1
            if isinstance(value, Exception):
                reason = f"{self.label(i)}: raised {type(value).__name__}: {value}"
            elif not first_pass and value == self.first[i]:
                reason = self.first_verdicts[i]
            else:
                reason = self._check(i, value)
            if first_pass:
                self.first_verdicts.append(reason)
            if reason is not None:
                self.failures.append(reason)

    def _check(self, i: int, value) -> str | None:
        try:
            return self.wl.check(i, value)
        except Exception as exc:
            return f"{self.label(i)}: check raised {type(exc).__name__}: {exc}"

    def label(self, i: int) -> str:
        op = self.wl.ops[i]
        return op if isinstance(op, str) else op.label


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(runner: Runner, setup_times: list[float]) -> dict[str, tuple[float, str, int]]:
    ops = [1000 * s for op_s in runner.op_s for s in op_s]
    if runner.session:
        rss_kib = runner.child_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "solve_s": (statistics.median(runner.untraced_s), "s", len(runner.untraced_s)),
        "op_p50_ms": (percentile(ops, 50), "ms", len(ops)),
        "op_p90_ms": (percentile(ops, 90), "ms", len(ops)),
        "peak_rss_mb": (rss_kib / 1024, "MB", 1),
    }


def run_workload(args) -> int:
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        meta = run_metadata(args)
        phases = meta["phase_s"] = {}
        t = time.perf_counter()
        setup_times = time_setups(args, workdir)
        reuse = {"prefill": False} if args.workload == "session" else {}
        wl = workloads.WORKLOADS[args.workload](args.seed, args.scale, workdir, **reuse)
        tracer = tracing.Tracer() if args.trace else None
        runner = Runner(wl, tracer)
        phases["setup"] = time.perf_counter() - t
        runner.run(args.seconds)
        phases["passes"], phases["checks"] = runner.phase_s
        if args.trace:
            t = time.perf_counter()
            probes = cli_probes(workdir)
            phases["cli_probes"] = time.perf_counter() - t
            values = tracing.layer_metrics(runner.pass_stats, runner.traced_s,
                                           runner.untraced_s, probes)
            samples = len(runner.traced_s)
            metrics = {k: (v, tracing.UNITS[k], samples) for k, v in values.items()}
            for k in probes:
                metrics[k] = (probes[k], tracing.UNITS[k], CLI_PROBE_REPEATS)
        else:
            metrics = end_to_end(runner, setup_times)
        meta["loadavg_after"] = os.getloadavg()
        meta["passes"] = {"untraced": len(runner.untraced_s), "traced": len(runner.traced_s)}
        meta["pass_s"] = {"untraced": runner.untraced_s, "traced": runner.traced_s}
        meta["setup_s"] = setup_times
        meta["op_s"] = runner.op_s
        if tracer is not None:
            tracer_path = OUT / f"spans-{args.workload}.bin"
            tracer.write_spans(tracer_path)
            meta["spans"] = str(tracer_path.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    report(meta, metrics, runner, list(metrics) if args.trace else BOUNDED)
    return 0


def report(meta: dict, metrics: dict, runner: Runner, json_names) -> None:
    failed = len(runner.failures)
    print(f"perfbench workload={meta['workload']} seed={meta['seed']} trace={meta['trace']}"
          f" scale={meta['scale']} passes={meta['passes']}")
    print(f"  git={meta['git_sha']} python={meta['python']} cpu_count={meta['cpu_count']}"
          f" affinity={meta['cpu_affinity']} loadavg before={meta['loadavg_before']}"
          f" after={meta['loadavg_after']}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<40} {value:>16.6f} {unit:<6} samples={samples}")
    print(f"  {'fail_frac':<40} {failed / runner.attempted:>16.6f} {'frac':<6}"
          f" samples={runner.attempted} (failed {failed})")
    for reason in runner.failures[:20]:
        print(f"  FAILED {reason}")
    record = {
        "meta": meta,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "fail_frac": failed / runner.attempted,
        "failures": runner.failures,
    }
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in json_names},
    }))


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="job size; tiny is for the benchmark's own tests")
    p.add_argument("--setup-child", type=Path, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "steinset" / "__init__.py").is_file():
        print(f"error: no steinset package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_child is not None:
        args.setup_child.mkdir(parents=True, exist_ok=True)
        workloads.WORKLOADS[args.workload](args.seed, args.scale, args.setup_child)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
