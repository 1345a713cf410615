"""What the benchmark tools share: their command line, the two library copies, the record.

Every tool compares the source of a given git revision (the base of a
change) with ``src/`` of the working tree, and writes one JSON record:

    python tools/bench_<name>.py REV [--out FILE]

A record's label is its output file's name without ``BENCH_``.
Standard library only.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def arguments(doc: str, default_out: str) -> tuple[str, Path]:
    """Parse ``REV [--out FILE]``: (the full sha of REV, the output file)."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("rev", help="git revision measured as 'before'")
    parser.add_argument("--out", default=str(ROOT / default_out))
    args = parser.parse_args()
    return git("rev-parse", args.rev).decode().strip(), Path(args.out)


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
