import gc
import random
from collections import Counter
from math import gcd
from pathlib import Path

import pytest

from steinset import haight
from steinset.groups import (
    CANONICAL_MAX_MODULUS,
    AffineMap,
    CyclicSet,
    canonical_mask,
    largest_gap_images,
    negate_mask,
)
from steinset.haight import (
    EXHAUSTIVE_CAP,
    HaightWitness,
    SearchConfig,
    Xorshift64Star,
    exhaustive_search,
    minimal_modulus,
    modulus_stream_seed,
    stochastic_search,
    verify_witness,
)
from steinset.sumsets import iterated_sumset, signed_product_counts, sumset_mask

from oracles import (
    haight_class_mask,
    members_of,
    naive_haight_class_masks,
    naive_kfold,
    naive_negate,
    naive_orbit,
    naive_sumset,
    random_nonempty_members,
    reference_scan_masks,
    scan_haight_class_masks,
)


def cs(n, members):
    return CyclicSet.from_members(n, members)


def witness(k, n, members, cert):
    return HaightWitness(k=k, subset=cs(n, members), certificate=cert)


def test_verify_witness_examples():
    ok, reason = verify_witness(witness(2, 7, [0, 1, 3], 5))
    assert ok and reason is None
    ok, reason = verify_witness(witness(2, 7, [1, 2, 4], 0))
    assert ok and reason is None
    ok, reason = verify_witness(witness(2, 7, [0, 1, 3], 4))
    assert not ok and "certificate present" in reason
    ok, reason = verify_witness(witness(2, 5, [0, 1], 3))
    assert not ok and "difference set not full" in reason
    ok, reason = verify_witness(HaightWitness(2, CyclicSet.empty(5), 0))
    assert not ok and "empty" in reason
    ok, reason = verify_witness(witness(0, 7, [0, 1, 3], 5))
    assert not ok


def test_verify_witness_matches_naive_sums():
    # random sets mostly fail on kA, so half the payloads take a known
    # witness class instead; k = 10**6 fills kA of every set with full
    # differences, so those payloads fail
    rng = random.Random(12)
    classes = exhaustive_search(SearchConfig(k=2, n_range=(6, 14)))
    outcomes = Counter()
    for _ in range(800):
        if rng.random() < 0.5:
            n = rng.randrange(1, 25)
            members = random_nonempty_members(rng, n)
        else:
            w = rng.choice(classes)
            n, members = w.modulus, frozenset(w.subset.members())
        k = rng.choice([1, 2, 3, 5, 10**6])
        cert = rng.randrange(n)
        differences = naive_sumset(members, naive_negate(members, n), n)
        if len(differences) < n:
            want = (False, f"difference set not full (missing {min(set(range(n)) - differences)})")
        elif cert in naive_kfold(members, k, n):
            want = (False, "certificate present in kA")
        else:
            want = (True, None)
        got = verify_witness(HaightWitness(k=k, subset=cs(n, members), certificate=cert))
        assert got == want, (n, sorted(members), k, cert)
        outcomes[len(differences) < n, want[0]] += 1
    assert len(outcomes) == 3 and min(outcomes.values()) > 50, outcomes


def test_witness_json_round_trip():
    w = witness(2, 7, [0, 1, 3], 5)
    assert HaightWitness.from_json_obj(w.to_json_obj()) == w
    assert w.to_json_obj() == {"k": 2, "n": 7, "set": [0, 1, 3], "cert": 5}


def test_witness_json_rejects_residues_out_of_range():
    # from_members would reduce 7, 8, 10 mod 7 to the witness {0,1,3}
    for members in ([7, 8, 10], [-1, 0, 1]):
        with pytest.raises(ValueError, match="out of range for modulus 7"):
            HaightWitness.from_json_obj({"k": 2, "n": 7, "set": members, "cert": 5})


@pytest.mark.parametrize(
    "field, value",
    [("k", 2.9), ("k", True), ("n", 7.9), ("n", "7"), ("cert", "5"), ("cert", 5.0),
     ("set", [True, 1, 3]), ("set", [0, 1.0, 3]), ("set", "013")],
)
def test_witness_json_requires_integers(field, value):
    # int() would read 2.9 as 2 and "5" as 5, and True passes the range check as 1
    payload = {"k": 2, "n": 7, "set": [0, 1, 3], "cert": 5, field: value}
    with pytest.raises(TypeError):
        HaightWitness.from_json_obj(payload)


def test_exhaustive_search_small_range():
    found = exhaustive_search(SearchConfig(k=2, n_range=(7, 7)))
    assert [w.subset for w in found] == [cs(7, [0, 1, 3])]
    assert found[0].certificate == 5
    assert all(verify_witness(w)[0] for w in found)


def test_exhaustive_search_finds_nothing_below_6():
    assert exhaustive_search(SearchConfig(k=2, n_range=(1, 5))) == []
    assert exhaustive_search(SearchConfig(k=2, n_range=(2, 2))) == []


def test_modulus_6_admits_an_order_2_witness():
    # {0,1,3} mod 6: differences cover Z_6, 2-fold sums miss 5
    found = exhaustive_search(SearchConfig(k=2, n_range=(6, 6)))
    assert [w.subset for w in found] == [cs(6, [0, 1, 3])]
    ok, _ = verify_witness(found[0])
    assert ok


def test_exhaustive_search_cap():
    with pytest.raises(ValueError):
        exhaustive_search(SearchConfig(k=2, n_range=(1, EXHAUSTIVE_CAP + 1)))


def test_exhaustive_matches_brute_oracle():
    for n in range(1, 13):
        for k in (1, 2, 3):
            found = exhaustive_search(SearchConfig(k=k, n_range=(n, n)))
            assert [w.subset.mask for w in found] == naive_haight_class_masks(n, k)


def _class_masks(k, n, max_set_size=None):
    cfg = SearchConfig(k=k, n_range=(n, n), max_set_size=max_set_size)
    return [w.subset.mask for w in exhaustive_search(cfg)]


def test_exhaustive_matches_full_candidate_scan():
    for n in range(1, 15):
        for k in (1, 2, 3, 4):
            assert _class_masks(k, n) == scan_haight_class_masks(n, k), (k, n)
    for n in (15, 16):
        assert _class_masks(2, n) == scan_haight_class_masks(n, 2), n


def test_max_set_size_matches_full_candidate_scan():
    for size in (4, 5, 6):
        for n in range(1, 15):
            for k in (1, 2, 3):
                got = _class_masks(k, n, size)
                assert got == scan_haight_class_masks(n, k, size), (k, n, size)
                assert all(m.bit_count() <= size for m in got)


def test_order_2_class_counts():
    # golden data: scan_haight_class_masks gives the same class lists up to
    # n = 20, but takes about 35 s for n = 17..20, too long to repeat here
    counts = {n: len(_class_masks(2, n)) for n in range(10, 21)}
    assert counts == {
        10: 5, 11: 4, 12: 23, 13: 11, 14: 42, 15: 58,
        16: 113, 17: 89, 18: 497, 19: 271, 20: 1269,
    }


def test_order_3_class_counts():
    # golden data, past the reach of the full candidate scan; an earlier
    # walk rooted at {0, d} for the divisors d of n gave the same lists
    counts = {n: len(_class_masks(3, n)) for n in range(20, 31)}
    assert counts == {n: 0 for n in range(20, 31)} | {24: 1, 28: 2, 29: 2, 30: 18}


def test_no_order_4_witness_up_to_36():
    assert minimal_modulus(4, 36) is None


def _wrap_gap_is_largest(members, n):
    """Whether the gap n - max(A) of a sorted set through 0 is one of its
    largest cyclic gaps: the sets the exhaustive walk visits."""
    return all(y - x <= n - members[-1] for x, y in zip(members, members[1:]))


def test_every_set_has_a_translate_with_largest_wrap_gap():
    # the walk's gap cut keeps every affine class: translate the member
    # after a largest gap to 0
    for n in range(1, 13):
        for mask in range(1, 1 << n):
            a = members_of(mask, n)
            translates = (sorted((x - t) % n for x in a) for t in a)
            assert any(_wrap_gap_is_largest(b, n) for b in translates), (n, sorted(a))


class _WidthRecorder:
    """Stands in for the walk's rng: records each node's child count, draws 0."""

    def __init__(self):
        self.widths = []

    def bits(self, width):
        self.widths.append(width)
        return 0


def test_walk_child_rule_reaches_every_mask_with_largest_wrap_gap():
    # at k=1 only the full mask is cut, so the seeded walk expands every
    # node it reaches and draws one coin per child: 1 + the coins drawn
    # counts the nodes walked, which must be every such mask but Z_n
    for n in range(2, 15):
        rng = _WidthRecorder()
        haight._scan_modulus(n, 1, None, rng=rng, budget=1 << n)
        want = sum(
            _wrap_gap_is_largest(sorted(members_of(mask, n)), n)
            for mask in range(1, (1 << n) - 1, 2)  # through 0, not full
        )
        assert 1 + sum(rng.widths) == want, n


def test_walk_matches_its_reference_form():
    # random walks in both modes against the walk's earlier form: the same
    # classes and the same rng state after the walk, so the same coins
    rng = random.Random(19)
    for _ in range(150):
        k, n = rng.randint(1, 4), rng.randint(1, 30)
        seed, budget = rng.getrandbits(64), rng.randint(0, 3000)
        size = rng.choice([None, 3, 5, 7])
        case = (k, n, seed, budget, size)
        streams = [Xorshift64Star(seed) for _ in range(2)]
        found = haight._scan_modulus(n, k, size, streams[0], budget)
        want = reference_scan_masks(n, k, size, streams[1], budget)
        assert [w.subset.mask for w in found] == want, case
        assert streams[0].state == streams[1].state, case
        if n <= 20:
            found = haight._scan_modulus(n, k, size)
            assert [w.subset.mask for w in found] == reference_scan_masks(n, k, size), case


def test_exhaustive_walk_marks_each_class_once(monkeypatch):
    # the first witness mask of a class marks all its masks the walk can
    # reach, so every later one is a set lookup: one marking per class
    calls = []

    def counted(mask, n):
        calls.append(mask)
        return largest_gap_images(mask, n)

    monkeypatch.setattr(haight, "largest_gap_images", counted)
    for k, n in [(2, n) for n in range(6, 17)] + [(3, 24)]:
        calls.clear()
        found = haight._scan_modulus(n, k, None)
        assert found and len(calls) == len(found), (k, n, len(calls), len(found))


def test_labelling_benchmark_walks_the_walk_it_measures(monkeypatch):
    # tools/bench_gap_cut.py times canonical_mask on its own copy of the
    # walk's nodes; their witness masks must reduce to the searched classes
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "tools"))
    from bench_gap_cut import _walk_nodes

    for k, n in [(2, 12), (2, 13), (2, 14), (3, 24)]:
        full = (1 << n) - 1
        labels = {
            canonical_mask(m, n)
            for m in _walk_nodes(n, k)
            if sumset_mask(m, negate_mask(m, n), n) == full
        }
        classes = [w.subset.mask for w in exhaustive_search(SearchConfig(k=k, n_range=(n, n)))]
        assert classes and sorted(labels) == classes, (k, n)


def test_divisor_pin_and_gap_cut_do_not_combine():
    # each cut alone keeps an image of {0,3,4,5,6,9} mod 14 through 0,
    # but no image has both a divisor of 14 as least nonzero member and
    # its largest gap last
    n = 14
    images = [sorted(b) for b in naive_orbit({0, 3, 4, 5, 6, 9}, n) if 0 in b]
    gap_cut = [b for b in images if _wrap_gap_is_largest(b, n)]
    assert gap_cut
    assert any(n % b[1] == 0 for b in images)
    assert not any(n % b[1] == 0 for b in gap_cut)


def test_least_modulus_of_order_3():
    n, w = minimal_modulus(3, 24)
    assert n == 24
    assert w.subset == CyclicSet.parse("24:{0,2,5,6,12,14,18}")
    assert verify_witness(w) == (True, None)


def test_exhaustive_search_leaves_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        assert exhaustive_search(SearchConfig(k=2, n_range=(17, 17)))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_equal_searches_share_witnesses():
    cfg = SearchConfig(k=2, n_range=(13, 13))
    first = exhaustive_search(cfg)
    keys = [(w.k, w.modulus, w.subset.mask) for w in first]
    for _ in range(2):
        again = exhaustive_search(cfg)
        assert len(again) == len(first)
        assert all(a is b for a, b in zip(again, first))
    del first, again
    assert not any(key in haight._WITNESSES for key in keys)


def test_pruning_bound_never_removes_witnesses():
    # |A|*(|A|-1)+1 >= n is necessary for a full difference set
    for n in range(1, 13):
        for mask in range(1, 1 << n):
            a = CyclicSet(n, mask)
            if a.cardinality * (a.cardinality - 1) + 1 < n:
                assert not signed_product_counts(a, 1, 1).is_full()


def test_minimal_modulus_values():
    assert minimal_modulus(1, 3) == (3, witness(1, 3, [0, 1], 2))
    found = minimal_modulus(2, 10)
    assert found is not None and found[0] == 6
    assert found[1].subset == cs(6, [0, 1, 3])
    assert minimal_modulus(5, 4) is None
    for k in (0, -2):
        with pytest.raises(ValueError, match="k must be >= 1"):
            minimal_modulus(k, 6)


def test_downward_closure_of_witnesses():
    checked = 0
    for n in range(1, 13):
        for w in exhaustive_search(SearchConfig(k=3, n_range=(n, n))):
            for m in (1, 2, 3):
                assert not iterated_sumset(w.subset, m).is_full()
                checked += 1
    for w in exhaustive_search(SearchConfig(k=2, n_range=(1, 12))):
        assert not iterated_sumset(w.subset, 1).is_full()
        checked += 1
    assert checked > 0


def test_affine_images_share_canonical_form():
    rng = random.Random(31)
    base = exhaustive_search(SearchConfig(k=2, n_range=(6, 12)))
    assert base
    for w in base:
        n = w.modulus
        for _ in range(20):
            u = rng.choice([x for x in range(1, n) if gcd(x, n) == 1])
            c = rng.randrange(n)
            image = w.subset.affine_apply(AffineMap(u, c, n))
            moved = HaightWitness(
                k=w.k,
                subset=image,
                certificate=iterated_sumset(image, w.k).deficiency()[0],
            )
            assert verify_witness(moved)[0]
            assert image.canonical_form() == w.subset


def test_xorshift_reference_values():
    # frozen from an independent evaluation of the documented recurrence
    rng = Xorshift64Star(1)
    assert [rng.next_u64() for _ in range(4)] == [
        0x47E4CE4B896CDD1D,
        0xABCFA6A8E079651D,
        0xB9D10D8FEB731F57,
        0x4DB418A0BB1B019D,
    ]
    rng = Xorshift64Star(42)
    assert [rng.next_u64() for _ in range(3)] == [
        0x56CE4AB7719BA3A0,
        0xC841EB53EBBB2DDA,
        0xCA466BE0C9980276,
    ]


def test_xorshift_zero_seed_is_remapped():
    assert Xorshift64Star(0).state == Xorshift64Star.ZERO_SEED_REPLACEMENT
    assert Xorshift64Star(0).next_u64() != 0


def test_xorshift_bits_width():
    rng = Xorshift64Star(7)
    assert 0 <= rng.bits(5) < 32
    assert 0 <= rng.bits(100) < (1 << 100)


def test_modulus_stream_seed_varies():
    seeds = {modulus_stream_seed(5, n) for n in range(1, 20)}
    assert len(seeds) == 19


def _stochastic(k, lo, hi, budget, seed):
    return stochastic_search(
        SearchConfig(k=k, n_range=(lo, hi), mode="stochastic", budget=budget, seed=seed)
    )


def test_stochastic_is_deterministic():
    # the full k=2 walk takes 4515 child evaluations at n = 17 and 9109
    # at 18, so the budget truncates the top of the range
    a = _stochastic(2, 6, 18, budget=3000, seed=42)
    b = _stochastic(2, 6, 18, budget=3000, seed=42)
    assert a == b
    assert all(verify_witness(w)[0] for w in a)


def test_stochastic_covers_tiny_moduli_exhaustively():
    for seed in (0, 1, 99):
        found = _stochastic(2, 7, 7, budget=1 << 7, seed=seed)
        assert [w.subset for w in found] == [cs(7, [0, 1, 3])]


def test_stochastic_zero_budget():
    assert _stochastic(2, 7, 7, budget=0, seed=1) == []


def test_stochastic_finds_witnesses_in_a_truncated_walk():
    # the full k=2 walk at n = 14 takes 914 child evaluations
    found = _stochastic(2, 14, 14, budget=800, seed=3)
    assert found
    for w in found:
        assert w.modulus == 14
        assert verify_witness(w)[0]
        assert w.subset == w.subset.canonical_form()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_stochastic_classes_are_scanned_classes(k):
    # a mask is in scan_haight_class_masks(n, k, size) exactly when
    # haight_class_mask maps it to itself, which tests membership without
    # listing the 2^(n-2) candidates; budget 15 stops within the first
    # few nodes, and 400 truncates every walk from n = 14 on
    ranges = [(1, 20)] + ([(24, 24), (27, 27)] if k == 3 else [])
    checked = 0
    for lo, hi in ranges:
        for budget in (0, 15, 400):
            for size in (None, 6):
                cfg = SearchConfig(
                    k=k, n_range=(lo, hi), mode="stochastic", budget=budget,
                    seed=31 * k + lo, max_set_size=size,
                )
                keys = [(w.modulus, w.subset.mask) for w in stochastic_search(cfg)]
                assert keys == sorted(set(keys)), cfg
                for n, mask in keys:
                    assert haight_class_mask(mask, n, k, size) == mask, (cfg, n, mask)
                checked += len(keys)
    assert checked


def test_stochastic_full_budget_returns_every_class():
    # every evaluated child is a distinct mask through 0, so 2^(n-1)
    # evaluations finish the walk.  Above n = 14 the exhaustive search,
    # pinned to the oracle up to n = 16, stands in for the slow oracle.
    cases = [(2, n) for n in range(1, 17)] + [(3, 14), (3, 20), (3, 24), (3, 27)]
    for k, n in cases:
        want = scan_haight_class_masks(n, k) if n <= 14 else _class_masks(k, n)
        for seed in (0, 1, 99):
            found = _stochastic(k, n, n, budget=1 << max(n - 1, 0), seed=seed)
            assert [w.subset.mask for w in found] == want, (k, n, seed)


def test_stochastic_golden_results():
    # seed 1 on the three benchmark configurations, recorded from the walk
    assert _stochastic(3, 24, 24, budget=2500, seed=1) == []
    found = _stochastic(2, 22, 24, budget=700, seed=1)
    assert Counter(w.modulus for w in found) == {22: 304, 23: 268, 24: 175}
    assert found[0] == witness(2, 22, [0, 1, 3, 5, 7, 9, 11], 13)
    assert found[-1] == witness(2, 24, [0, 1, 6, 7, 8, 11, 12, 13, 14, 16, 19], 10)
    found = _stochastic(2, 20, 21, budget=400, seed=1)
    assert Counter(w.modulus for w in found) == {20: 96, 21: 171}
    assert found[0] == witness(2, 20, [0, 1, 3, 4, 5, 8, 10], 17)
    assert found[-1] == witness(2, 21, [0, 1, 3, 6, 7, 8, 10, 14, 15, 17], 5)
    # a planar difference set: 6 * 5 + 1 = 31 differences cover Z_31
    cfg = SearchConfig(
        k=2, n_range=(30, 32), mode="stochastic", budget=20000, seed=1, max_set_size=6
    )
    assert stochastic_search(cfg) == [witness(2, 31, [0, 1, 4, 10, 12, 17], 6)]


def test_stochastic_finds_order_3_classes_at_30():
    # n = 30 has 18 k=3 classes; the full walk takes 209714 evaluations
    for seed in (11, 12, 13):
        assert _stochastic(3, 30, 30, budget=60000, seed=seed), seed


def test_stochastic_range_beyond_canonical_cap_rejected():
    cap = CANONICAL_MAX_MODULUS
    SearchConfig(k=2, n_range=(cap, cap), mode="stochastic")
    with pytest.raises(ValueError, match="canonical cap"):
        SearchConfig(k=2, n_range=(cap - 1, cap + 1), mode="stochastic")
    # exhaustive mode has its own, lower cap, checked by exhaustive_search
    SearchConfig(k=2, n_range=(cap + 1, cap + 1))


def test_mode_mismatch_rejected():
    with pytest.raises(ValueError):
        exhaustive_search(SearchConfig(k=2, n_range=(2, 3), mode="stochastic"))
    with pytest.raises(ValueError):
        stochastic_search(SearchConfig(k=2, n_range=(2, 3), mode="exhaustive"))
    with pytest.raises(ValueError):
        SearchConfig(k=0, n_range=(1, 2))
    with pytest.raises(ValueError):
        SearchConfig(k=1, n_range=(3, 2))
