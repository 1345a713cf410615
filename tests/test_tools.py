"""The benchmark tools under tools/: their shared A/B rule, and that each one starts."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
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


@pytest.mark.parametrize(
    "tool", sorted(p.name for p in TOOLS.glob("bench_*.py") if p.name != "bench_common.py")
)
def test_tool_starts_and_prints_its_usage(tool):
    # in a fresh interpreter, so that a tool importing a helper that is gone fails here
    proc = subprocess.run([sys.executable, str(TOOLS / tool), "--help"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")
