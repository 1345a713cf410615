"""The benchmark tools under tools/: their shared A/B rule, that each one starts,
the kernel labels of bench_sumset and the one record of bench_cli."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
BENCH_TOOLS = sorted(p.name for p in TOOLS.glob("bench_*.py") if p.name != "bench_common.py")
BEFORE = [0.010 + 0.001 * i for i in range(10)]  # REV's times: quartiles 12.25, 14.5, 16.75 ms


@pytest.fixture
def bench_common(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import bench_common

    return bench_common


def _shifted(by_ms, losses=0, ties=0):
    """BEFORE moved by ``by_ms``, except that the first ``losses`` rounds
    go the other way by 1 ms and the next ``ties`` rounds tie."""
    after = [t + by_ms / 1e3 for t in BEFORE]
    for r in range(losses):
        after[r] = BEFORE[r] + (0.001 if by_ms < 0 else -0.001)
    for r in range(losses, losses + ties):
        after[r] = BEFORE[r]
    return after


def test_summary_reports_quartiles_and_rounds_won(bench_common):
    got = bench_common.summary([BEFORE, _shifted(-5)], 1e3, 2)
    assert got == {
        "median_before": 14.5, "q1_before": 12.25, "q3_before": 16.75,
        "median_after": 9.5, "q1_after": 7.25, "q3_after": 11.75,
        "won_before": 0, "won_after": 10, "speedup": 1.53, "verdict": "faster",
    }
    tied = bench_common.summary([BEFORE, _shifted(-10, ties=1)], 1e3, 2)
    assert (tied["won_before"], tied["won_after"], tied["verdict"]) == (0, 9, "faster")


@pytest.mark.parametrize("direction, verdict", [(-1, "faster"), (1, "slower")])
def test_summary_verdict_needs_nine_in_ten_rounds_and_a_gap_over_the_iqr(
    bench_common, direction, verdict
):
    def judged(by_ms, losses=0):
        return bench_common.summary([BEFORE, _shifted(direction * by_ms, losses)], 1e3, 2)["verdict"]

    # REV's interquartile range is 4.5 ms; every round goes one way
    assert judged(5) == verdict
    assert judged(4) == "unresolved"
    # medians 8-9 ms apart: 9 rounds in 10 decide, 8 do not
    assert judged(10, losses=1) == verdict
    assert judged(10, losses=2) == "unresolved"


def test_alternate_swaps_the_first_side_each_round(bench_common):
    calls = []

    def run(side, rnd):
        calls.append((side, rnd))
        return rnd * 10, 0.5 + side

    results, times = bench_common.alternate(run, 4)
    assert calls == [(0, 0), (1, 0), (1, 1), (0, 1), (0, 2), (1, 2), (1, 3), (0, 3)]
    assert results == [0, 10, 20, 30]
    assert times == [[0.5] * 4, [1.5] * 4]


def test_alternate_stops_when_the_sides_differ(bench_common):
    calls = []

    def run(side, rnd):
        calls.append(rnd)
        return (side if rnd == 2 else "same"), 1.0

    with pytest.raises(SystemExit, match="round 2"):
        bench_common.alternate(run, 5)
    assert calls == [0, 0, 1, 1, 2, 2]


@pytest.mark.parametrize("tool", BENCH_TOOLS)
def test_tool_starts_and_prints_its_usage(tool):
    # in a fresh interpreter, so that a tool importing a helper that is gone fails here
    proc = subprocess.run([sys.executable, str(TOOLS / tool), "--help"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


@pytest.mark.parametrize("tool", BENCH_TOOLS)
def test_tool_refuses_an_out_file_in_a_missing_directory(tool, tmp_path):
    # the record is written after every case has run, so the check comes first,
    # before git resolves the revision (which does not exist here either)
    out = tmp_path / "missing" / "x.json"
    proc = subprocess.run([sys.executable, str(TOOLS / tool), "no-such-revision", "--out", str(out)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("usage:")
    assert "does not exist" in proc.stderr
    assert not out.parent.exists()


def test_bench_cli_writes_only_its_out_file(bench_common, tmp_path):
    # the record of a session command and of the usage error, from made-up
    # times: no CLI process is spawned
    import bench_cli

    out = tmp_path / "BENCH_x.json"
    labels = ["sumset 7:{0,1,3} 7:{0,1,3}", " ".join(bench_cli.ERROR_ARGV)]
    times = [[BEFORE, _shifted(-5)]] * 2
    peaks = [[[20.0] * 10, [20.5] * 10]] * 2
    modules = ([["steinset.groups"]] * 2, [["steinset.groups"]] * 2)
    error = b"error: malformed set literal: 'nonsense'\n"
    bench_cli.write(out, "0" * 40, labels, times, peaks, modules, BEFORE, error)
    assert list(tmp_path.iterdir()) == [out]
    record = json.loads(out.read_text())
    assert [c["command"] for c in record["commands"]] == labels[:1]
    assert record["error_path"]["argv"] == bench_cli.ERROR_ARGV
    assert record["error_path"]["stderr"] == error.decode()
    assert record["error_path"]["ms"]["verdict"] == "faster"


@pytest.fixture
def working_tree_copy(bench_common):
    """``sumsets`` and ``groups`` of ``src/``, imported as a package of their own."""
    name = "steinset_tools_test"
    bench_common._load(bench_common.ROOT / "src", name)
    yield [importlib.import_module(f"{name}.{module}") for module in ("sumsets", "groups")]
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]


def test_bench_sumset_labels_the_kernel_that_sumset_ran(working_tree_copy):
    import bench_sumset

    side = bench_sumset._Side(*working_tree_copy)
    sparse = [side.CyclicSet(1000, mask) for mask in (0b100011, 1 | 1 << 10)]
    assert side.kernel(*sparse) == "shift_or"
    interval = [side.CyclicSet(4096, mask) for mask in bench_sumset._operands("interval self-sum", 4096)]
    assert side.kernel(*interval) == "convolution"
    assert side.kernel(side.CyclicSet.full(1000), sparse[0]) == "none"
