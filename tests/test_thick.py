import pytest

from oracles import naive_covered_tuples
from steinset import thick
from steinset.thick import (
    MAX_INDEX,
    BigInterval,
    BudgetExceededError,
    ThickFamilySpec,
    contains_run,
    independence_check,
    power_tower,
    tail_certificate_holds,
    thick_intervals,
    xi_sequence,
)


def test_power_tower_against_builtin_pow():
    for a in range(0, 8):
        assert power_tower(a) == 2 ** (2**a)
    with pytest.raises(ValueError):
        power_tower(-1)


def test_xi_sequence_values():
    assert xi_sequence(1) == (2, 18)
    assert xi_sequence(2) == (3, 259)
    assert xi_sequence(3) == (3, 259)
    with pytest.raises(ValueError):
        xi_sequence(0)


def test_xi_defining_inequality_at_xi_and_below():
    for m in range(1, 9):
        xi, big_xi = xi_sequence(m)
        assert big_xi == 2 ** (2**xi) + xi
        lhs = 2 ** (2**xi) - xi
        rhs = m * m * (2 ** (2 ** (xi - 1)) + xi)
        assert lhs > rhs
        assert tail_certificate_holds(m, xi)
        if xi >= 2:
            x = xi - 1
            assert not (
                2 ** (2**x) - x > m * m * (2 ** (2 ** (x - 1)) + x)
                and tail_certificate_holds(m, x)
            )


def test_xi_thresholds_nondecreasing():
    values = [xi_sequence(m) for m in range(1, 11)]
    for (x1, b1), (x2, b2) in zip(values, values[1:]):
        assert x1 <= x2
        assert b1 <= b2


def test_interval_examples():
    assert BigInterval.from_index(1) == BigInterval(3, 5, 1)
    assert BigInterval.from_index(2) == BigInterval(14, 18, 2)
    with pytest.raises(ValueError):
        BigInterval.from_index(0)


def test_interval_endpoints_exact_at_scale():
    for a in (1, 2, 3, 4, 5, 6):
        block = BigInterval.from_index(a)
        assert block.lo == 2 ** (2**a) - a
        assert block.hi == 2 ** (2**a) + a
        assert block.run_length() == 2 * a + 1


def test_spec_validation():
    ThickFamilySpec((frozenset({1, 4}), frozenset({2, 5})), a_max=5)
    with pytest.raises(ValueError):
        ThickFamilySpec((), a_max=5)
    with pytest.raises(ValueError):
        ThickFamilySpec((frozenset(),), a_max=5)
    with pytest.raises(ValueError):
        ThickFamilySpec((frozenset({1}), frozenset({1, 2})), a_max=5)
    with pytest.raises(ValueError):
        ThickFamilySpec((frozenset({6}),), a_max=5)
    with pytest.raises(ValueError):
        ThickFamilySpec((frozenset({0}),), a_max=5)
    # unchecked bypasses the disjointness gate for negative controls
    ThickFamilySpec.unchecked([{1, 4}, {2, 4}], a_max=5)


def test_spec_parse_round_trip():
    spec = ThickFamilySpec.parse("sets=[{1,4},{2,5}] a_max=5")
    assert spec.index_sets == (frozenset({1, 4}), frozenset({2, 5}))
    assert spec.a_max == 5
    assert spec.to_literal() == "sets=[{1,4},{2,5}] a_max=5"
    with pytest.raises(ValueError):
        ThickFamilySpec.parse("sets=[] a_max=3")
    with pytest.raises(ValueError):
        ThickFamilySpec.parse("sets=[{}] a_max=3")
    spaced = ThickFamilySpec.parse("sets=[ {1, 4} , {2,5} ] a_max=5")
    assert spaced.index_sets == spec.index_sets


# text between the set literals, each of which once parsed as two sets
JUNK_SPECS = ["sets=[{1},junk{2}] a_max=2", "sets=[{1}{2}] a_max=2", "sets=[{1},,{2}] a_max=3"]


@pytest.mark.parametrize("text", JUNK_SPECS)
def test_spec_parse_refuses_text_between_sets(text):
    with pytest.raises(ValueError, match="malformed thick family spec"):
        ThickFamilySpec.parse(text)


def test_thick_intervals_disjoint_increasing():
    spec = ThickFamilySpec((frozenset({1, 3}), frozenset({2, 4})), a_max=4)
    per_set = thick_intervals(spec)
    assert [[b.index for b in chunk] for chunk in per_set] == [[1, 3], [2, 4]]
    for chunk in per_set:
        for prev, nxt in zip(chunk, chunk[1:]):
            assert prev.hi < nxt.lo


def test_contains_run():
    assert contains_run({1, 2, 3}, 3) == 1
    assert contains_run({1, 2, 3}, 7) == 3
    assert contains_run({1}, 100) is None
    with pytest.raises(ValueError):
        contains_run({1}, 0)


def test_independence_two_singletons_vacuous_pass():
    spec = ThickFamilySpec((frozenset({1}), frozenset({2})), a_max=2)
    result = independence_check(spec, 2)
    assert result.passed
    # every point is inside [-Xi(2), Xi(2)] = [-259, 259]: nothing to check
    assert result.tuples_checked == 0


def test_independence_checks_real_tuples_beyond_threshold():
    spec = ThickFamilySpec((frozenset({1, 4}), frozenset({2}), frozenset({3})), a_max=4)
    result = independence_check(spec, 3)
    assert result.passed
    assert result.tuples_checked > 0


def test_independence_single_set_trivial():
    spec = ThickFamilySpec((frozenset({4}),), a_max=4)
    result = independence_check(spec, 1)
    assert result.passed
    assert result.tuples_checked == 2 * 9  # lambda in {-1, 1}, 9 points


def test_independence_negative_control_detects_merged_sets():
    overlapping = ThickFamilySpec.unchecked([{1, 4}, {2, 4}], a_max=4)
    result = independence_check(overlapping, 2)
    assert not result.passed
    ce = result.counterexample
    assert ce is not None
    assert sum(l * x for l, x in zip(ce.coefficients, ce.points)) == 0
    assert len(set(ce.set_indices)) == len(ce.set_indices)
    _, big_xi = xi_sequence(2)
    assert any(abs(x) > big_xi for x in ce.points)


def test_independence_budget_refusal():
    spec = ThickFamilySpec((frozenset({1, 4}), frozenset({2}), frozenset({3})), a_max=4)
    with pytest.raises(BudgetExceededError):
        independence_check(spec, 3, tuple_cap=10)


def test_independence_rejects_a_negative_cap_before_any_work(monkeypatch):
    monkeypatch.setattr(thick, "xi_sequence", lambda m: pytest.fail("thresholds computed"))
    spec = ThickFamilySpec((frozenset({1}),), a_max=1)
    with pytest.raises(ValueError, match="tuple cap must be >= 0, got -1"):
        independence_check(spec, 1, tuple_cap=-1)


def test_independence_rejects_bad_m():
    spec = ThickFamilySpec((frozenset({1}),), a_max=1)
    with pytest.raises(ValueError):
        independence_check(spec, 0)


def _families(indices, max_sets):
    """Each family of at most max_sets disjoint non-empty sets drawn from
    indices, once, its sets ordered by least member."""
    families = [[]]
    for a in indices:
        families = [
            grown
            for sets in families
            for grown in (
                [sets]
                + [sets[:i] + [s | {a}] + sets[i + 1:] for i, s in enumerate(sets)]
                + ([sets + [frozenset({a})]] if len(sets) < max_sets else [])
            )
        ]
    return [tuple(f) for f in families if f]


def _counted_total(spec, m):
    """The tuple total that independence_check counts, read from its refusal
    at cap 0; a family it does not refuse must count, and check, no tuple."""
    try:
        result = independence_check(spec, m, tuple_cap=0)
    except BudgetExceededError as exc:
        return int(str(exc).split()[0])
    assert result.passed and result.tuples_checked == 0
    return 0


def test_independence_count_from_blocks_matches_points():
    families = _families(range(1, 8), 4)
    assert len(families) == 3844
    enumerated = 0
    for sets in families:
        spec = ThickFamilySpec(sets, a_max=7)
        for m in range(1, 5):
            want = naive_covered_tuples(spec, m)
            assert _counted_total(spec, m) == want, (spec.to_literal(), m)
            if want <= 1000:
                result = independence_check(spec, m)
                assert result.passed and result.tuples_checked == want
                enumerated += 1
    assert enumerated > 1000


def test_independence_refuses_before_building_towers(monkeypatch):
    monkeypatch.setattr(thick, "power_tower", lambda a: pytest.fail(f"tower {a} built"))
    spec = ThickFamilySpec((frozenset({1, 4}), frozenset({2}), frozenset({3})), a_max=4)
    with pytest.raises(BudgetExceededError):
        independence_check(spec, 3, tuple_cap=10)


def test_spec_refuses_indices_above_max_index():
    top = MAX_INDEX + 1
    ThickFamilySpec((frozenset({MAX_INDEX}),), a_max=top)
    with pytest.raises(ValueError, match=f"index {top}"):
        ThickFamilySpec((frozenset({1, top}),), a_max=top)
    with pytest.raises(ValueError, match=f"index {top}"):
        ThickFamilySpec.parse(f"sets=[{{1}},{{{top}}}] a_max={top}")
    ThickFamilySpec.unchecked([{top}], a_max=top)


def test_independence_builds_no_coefficients_where_no_tuple_is_checked():
    # every block lies inside [-Xi(60), Xi(60)]; the 120^3 coefficient
    # vectors of level 3 alone would take over 100 MB
    import tracemalloc

    spec = ThickFamilySpec.parse("sets=[{1},{2},{3}] a_max=3")
    tracemalloc.start()
    try:
        result = independence_check(spec, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed and result.tuples_checked == 0
    assert peak < 5 << 20
