"""What the benchmark tools share: their command line, the two library
copies, the A/B rule and the record.

Every tool compares the source of a given git revision (the base of a
change) with ``src/`` of the working tree, and writes one JSON record:

    python tools/bench_<name>.py REV [--out FILE]

Side 0 is REV ("before"), side 1 the working tree ("after").  Each tool
times both sides in alternated rounds and judges them by ``summary``:
quartiles per side, the rounds each side won, and a verdict by the rule
that perfbench pairs follow.  A record's label is its output file's name
without ``BENCH_``.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def arguments(doc: str, default_out: str) -> tuple[str, Path]:
    """Parse ``REV [--out FILE]``: (the full sha of REV, the output file).

    An ``--out`` in a missing directory is a usage error (exit 2).
    """
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("rev", help="git revision measured as 'before'")
    parser.add_argument("--out", default=str(ROOT / default_out))
    args = parser.parse_args()
    out = Path(args.out)
    if not out.parent.is_dir():  # the record is written only after every case has run
        parser.error(f"--out: directory {str(out.parent)!r} does not exist")
    return git("rev-parse", args.rev).decode().strip(), out


def extract_revision(sha: str, dest: Path) -> Path:
    """Extract ``src/`` of git revision ``sha`` under ``dest``; the extracted ``src``."""
    dest.mkdir(parents=True, exist_ok=True)
    archive = dest / "src.tar"
    archive.write_bytes(git("archive", sha, "src"))
    with tarfile.open(archive) as tar:
        tar.extractall(dest)
    return dest / "src"


def _load(src: Path, name: str) -> None:
    """Import the ``steinset`` package under ``src`` as top-level package ``name``."""
    init = src / "steinset" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)


def load_copies(sha: str, dest: Path, *modules: str) -> list[list]:
    """Import ``src/`` of revision ``sha`` (extracted under ``dest``) as package
    ``steinset_before`` and the working tree's ``src/`` as ``steinset_after``;
    per name in ``modules``, [its module in before, in after]."""
    _load(extract_revision(sha, dest), "steinset_before")
    _load(ROOT / "src", "steinset_after")
    return [[importlib.import_module(f"steinset_{side}.{name}") for side in ("before", "after")]
            for name in modules]


def alternate(run, rounds: int) -> tuple[list, list[list[float]]]:
    """Call ``run(side, rnd) -> (result, seconds)`` for both sides in each of
    ``rounds`` rounds, the side that goes first alternating by round; the
    result of each round, which both sides must agree on, and each side's
    times."""
    times: list[list[float]] = [[], []]
    results = []
    for rnd in range(rounds):
        got = set()
        for side in ((0, 1) if rnd % 2 == 0 else (1, 0)):
            result, seconds = run(side, rnd)
            times[side].append(seconds)
            got.add(result)
        if len(got) != 1:
            raise SystemExit(f"round {rnd}: results differ before and after")
        results.append(got.pop())
    return results, times


def summary(times: list[list[float]], scale: float, digits: int) -> dict:
    """Judge two sides' times from alternated rounds, both scaled by ``scale``.

    Per side: the median and the first and third quartiles, and the rounds
    it won (lower time; a tie counts for neither).  ``speedup`` is
    before/after.  ``verdict`` is "faster" (or "slower") when the working
    tree won (or lost) at least 9 in 10 rounds and the medians differ by
    more than REV's interquartile range; otherwise "unresolved".
    """
    before, after = ([t * scale for t in side] for side in times)
    (q1, median, q3), (q1_after, median_after, q3_after) = (
        statistics.quantiles(side, n=4, method="inclusive") for side in (before, after))
    won = sum(a < b for b, a in zip(before, after))
    lost = sum(b < a for b, a in zip(before, after))
    verdict = "unresolved"
    if 10 * won >= 9 * len(before) and median - median_after > q3 - q1:
        verdict = "faster"
    elif 10 * lost >= 9 * len(before) and median_after - median > q3 - q1:
        verdict = "slower"
    r = lambda x: round(x, digits)
    return {
        "median_before": r(median), "q1_before": r(q1), "q3_before": r(q3),
        "median_after": r(median_after), "q1_after": r(q1_after), "q3_after": r(q3_after),
        "won_before": lost, "won_after": won,
        "speedup": round(median / median_after, 2),
        "verdict": verdict,
    }


def write_record(out: Path, before_sha: str, layer: str, **fields) -> None:
    """Write one record to ``out``: its label, ``layer``, the revisions and
    machine compared, then ``fields``."""
    record = {
        "label": out.stem.removeprefix("BENCH_"),
        "layer": layer,
        "git_sha_before": before_sha,
        "git_sha_after": git("rev-parse", "HEAD").decode().strip(),
        "worktree_dirty": bool(git("status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        **fields,
    }
    out.write_text(json.dumps(record, indent=2) + "\n")
