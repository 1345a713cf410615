import random

import pytest

from steinset.groups import CyclicSet
from steinset.haight import HaightWitness
from steinset.verdicts import (
    HaightSequenceReport,
    NotSymmetricError,
    SeqSpec,
    Verdict,
    WitnessChainError,
    eps_verdict,
    example_family_c2n1,
    pm_verdict,
    sym_verdict,
    verify_haight_sequence,
)

from oracles import random_symmetric_members


def cs(n, members):
    return CyclicSet.from_members(n, members)


WINDOW7 = cs(7, [6, 0, 1])
SINGER7 = cs(7, [0, 1, 3])


def test_spec_validation_and_indexing():
    spec = SeqSpec(prefix=(cs(4, [0]),), cycle=(cs(2, [0, 1]), cs(3, [0])))
    assert spec.entry(0) == cs(4, [0])
    assert spec.entry(1) == cs(2, [0, 1])
    assert spec.entry(2) == cs(3, [0])
    assert spec.entry(3) == cs(2, [0, 1])
    with pytest.raises(ValueError):
        SeqSpec(prefix=(), cycle=())
    with pytest.raises(ValueError):
        SeqSpec(prefix=(CyclicSet.empty(3),), cycle=(cs(2, [0]),))
    with pytest.raises(ValueError):
        spec.entry(-1)


def test_spec_parse_round_trip():
    text = "prefix=[4:{0};2:{0,1}] cycle=[7:{0,1,6}]"
    spec = SeqSpec.parse(text)
    assert spec.prefix == (cs(4, [0]), cs(2, [0, 1]))
    assert spec.cycle == (WINDOW7,)
    assert spec.to_literal() == text
    assert SeqSpec.parse("cycle=[3:{0}]").prefix == ()
    with pytest.raises(ValueError):
        SeqSpec.parse("prefix=[3:{0}]")
    with pytest.raises(ValueError):
        SeqSpec.parse("cycle=[]")


def test_eps_verdict_examples():
    spec = SeqSpec.constant(WINDOW7)
    assert eps_verdict(spec, (1, 1, 1)) == Verdict(holds=True, k0=0)
    assert eps_verdict(spec, (1, 1)) == Verdict(holds=False, witnesses=(0,))
    mixed = SeqSpec(prefix=(cs(4, [0]),), cycle=(cs(2, [0, 1]),))
    assert eps_verdict(mixed, (1,)) == Verdict(holds=True, k0=1)


def test_pm_verdict_examples():
    assert pm_verdict(SeqSpec.constant(SINGER7), 2) == Verdict(
        holds=True, k0=0, sign_class=(1, 1)
    )
    assert pm_verdict(SeqSpec.constant(WINDOW7), 2) == Verdict(
        holds=False, witnesses=(0,)
    )
    assert pm_verdict(SeqSpec.constant(CyclicSet.full(3)), 1) == Verdict(
        holds=True, k0=0, sign_class=(1, 0)
    )


def test_sym_verdict_examples():
    spec = SeqSpec.constant(WINDOW7)
    assert sym_verdict(spec, 3) == Verdict(holds=True, k0=0)
    assert sym_verdict(spec, 2) == Verdict(holds=False, witnesses=(0,))
    with pytest.raises(NotSymmetricError) as err:
        sym_verdict(SeqSpec(prefix=(WINDOW7,), cycle=(SINGER7,)), 2)
    assert err.value.position == 1
    with pytest.raises(ValueError, match="length must be >= 1, got 0"):
        sym_verdict(spec, 0)


def test_verdict_k0_counts_failing_prefix_tail():
    # prefix entries: full, deficient, full -> k0 = 2 (last failure at index 1)
    spec = SeqSpec(
        prefix=(cs(3, [0, 1, 2]), cs(3, [0]), cs(3, [0, 1, 2])),
        cycle=(cs(2, [0, 1]),),
    )
    assert eps_verdict(spec, (1,)) == Verdict(holds=True, k0=2)


def test_example_family():
    spec = example_family_c2n1(2)
    assert spec.cycle == (cs(5, [4, 0, 1]),)
    assert sym_verdict(spec, 2).holds
    assert not pm_verdict(spec, 1).holds
    spec = example_family_c2n1(3)
    assert spec.cycle == (WINDOW7,)
    assert sym_verdict(spec, 3).holds and not pm_verdict(spec, 2).holds
    spec = example_family_c2n1(10)
    assert sym_verdict(spec, 10).holds and not pm_verdict(spec, 9).holds
    with pytest.raises(ValueError):
        example_family_c2n1(1)


def test_eps_holds_implies_pm_holds():
    rng = random.Random(21)
    for _ in range(120):
        n = rng.randrange(2, 13)
        spec = SeqSpec.constant(cs(n, random_symmetric_members(rng, n)))
        m = rng.randrange(1, 4)
        signs = tuple(rng.choice((1, -1)) for _ in range(m))
        if eps_verdict(spec, signs).holds:
            assert pm_verdict(spec, m).holds


def test_pm_monotone_in_m():
    rng = random.Random(22)
    for _ in range(80):
        n = rng.randrange(2, 16)
        mask = rng.randrange(1, 1 << n)
        spec = SeqSpec.constant(CyclicSet(n, mask))
        for m in (1, 2, 3):
            if pm_verdict(spec, m).holds:
                assert pm_verdict(spec, m + 1).holds


def test_sym_and_pm_agree_on_symmetric_specs():
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randrange(2, 16)
        entries = tuple(
            cs(n, random_symmetric_members(rng, n)) for _ in range(rng.randrange(1, 4))
        )
        spec = SeqSpec(prefix=(), cycle=entries)
        for m in (1, 2, 3, 4):
            assert sym_verdict(spec, m).holds == pm_verdict(spec, m).holds


def test_verdict_kind_invariant_under_cycle_rotation():
    rng = random.Random(24)
    for _ in range(60):
        n = rng.randrange(2, 12)
        entries = [CyclicSet(n, rng.randrange(1, 1 << n)) for _ in range(3)]
        m = rng.randrange(1, 4)
        kinds = set()
        for r in range(3):
            rotated = SeqSpec(prefix=(), cycle=tuple(entries[r:] + entries[:r]))
            kinds.add(pm_verdict(rotated, m).holds)
        assert len(kinds) == 1


def _witness(k, n, members, cert):
    return HaightWitness(k=k, subset=cs(n, members), certificate=cert)


def test_verify_haight_sequence_example():
    chain = [_witness(1, 3, [0, 1], 2), _witness(2, 7, [0, 1, 3], 5)]
    report = verify_haight_sequence(chain)
    assert isinstance(report, HaightSequenceReport)
    assert report.ok
    assert report.diff_full_positions
    assert report.pm2.holds and report.pm2.sign_class == (1, 1)
    assert report.tail_failures[1] == (0, 1)  # neither A_1 nor A_2 is full
    assert report.tail_failures[2] == (1,)  # 2A_1 = Z_3 but 2A_2 misses 5


def test_verify_haight_sequence_errors():
    with pytest.raises(ValueError):
        verify_haight_sequence([])
    with pytest.raises(WitnessChainError):
        verify_haight_sequence([_witness(2, 7, [0, 1, 3], 5)])
    bad = [_witness(1, 3, [0, 1], 2), _witness(2, 7, [0, 1, 3], 4)]
    with pytest.raises(WitnessChainError) as err:
        verify_haight_sequence(bad)
    assert "position 1" in str(err.value)


def _random_spec(rng, max_prefix=3, max_cycle=3, max_n=10):
    prefix = tuple(
        CyclicSet(n, rng.randrange(1, 1 << n))
        for n in (rng.randrange(1, max_n) for _ in range(rng.randrange(0, max_prefix + 1)))
    )
    cycle = tuple(
        CyclicSet(n, rng.randrange(1, 1 << n))
        for n in (rng.randrange(1, max_n) for _ in range(rng.randrange(1, max_cycle + 1)))
    )
    return SeqSpec(prefix, cycle)


def test_eps_verdict_position_semantics_randomized():
    # independent check of the quantifier: holds(k0) means every later
    # position passes and k0 is minimal; witnesses recur once per period
    from oracles import naive_signed

    rng = random.Random(25)
    for _ in range(200):
        spec = _random_spec(rng)
        signs = tuple(rng.choice((1, -1)) for _ in range(rng.randrange(1, 4)))
        v = eps_verdict(spec, signs)

        def passes(k):
            entry = spec.entry(k)
            n = entry.modulus
            return naive_signed(set(entry.members()), signs, n) == set(range(n))

        horizon = len(spec.prefix) + 2 * len(spec.cycle)
        if v.holds:
            assert all(passes(k) for k in range(v.k0, horizon))
            if v.k0 > 0:
                assert not passes(v.k0 - 1)
        else:
            assert v.witnesses
            for i in v.witnesses:
                assert not passes(len(spec.prefix) + i)
                assert not passes(len(spec.prefix) + i + len(spec.cycle))


def test_pm_verdict_matches_naive_class_scan():
    from oracles import naive_signed

    rng = random.Random(26)
    for _ in range(150):
        spec = _random_spec(rng, max_prefix=0)
        m = rng.randrange(1, 5)
        v = pm_verdict(spec, m)

        def class_full_everywhere(p, q):
            signs = (1,) * p + (-1,) * q
            return all(
                naive_signed(set(e.members()), signs, e.modulus)
                == set(range(e.modulus))
                for e in spec.cycle
            )

        naive_holds = any(
            class_full_everywhere(m - q, q) for q in range(m + 1)
        )
        assert v.holds == naive_holds
        if v.holds:
            assert class_full_everywhere(*v.sign_class)


def test_pm_verdict_matches_the_all_classes_reference():
    from oracles import reference_pm_verdict

    rng = random.Random(27)
    for _ in range(400):
        spec = _random_spec(rng, max_cycle=4, max_n=12)
        m = rng.randrange(1, 7)
        assert pm_verdict(spec, m) == reference_pm_verdict(spec, m), (spec.to_literal(), m)


def test_pm_verdict_scans_half_the_classes_to_the_first_failure(monkeypatch):
    import steinset.verdicts as verdicts

    calls = []
    real = verdicts.signed_product_counts

    def counted(a, plus, minus):
        calls.append((a.modulus, plus, minus))
        return real(a, plus, minus)

    monkeypatch.setattr(verdicts, "signed_product_counts", counted)
    # {0,1,3} is no translate of its negation
    assert not pm_verdict(SeqSpec.constant(cs(100, [0, 1, 3])), 7).holds
    assert calls == [(100, 7, 0), (100, 6, 1), (100, 5, 2), (100, 4, 3)]  # 8 classes, 4 scanned
    calls.clear()
    # every entry fails both scanned classes; each stops at entry 0
    spec = SeqSpec(prefix=(), cycle=(cs(13, [0, 1, 3]), cs(15, [0, 1, 3]), cs(17, [0, 1, 3])))
    assert pm_verdict(spec, 2) == Verdict(holds=False, witnesses=(0,))
    assert calls == [(13, 2, 0), (13, 1, 1)]
    calls.clear()
    # {-1,0,1} is its own negation, so every class fails where (m, 0) first
    # does: c2n1 scans one class, not n/2
    assert pm_verdict(example_family_c2n1(8), 7) == Verdict(holds=False, witnesses=(0,))
    assert calls == [(17, 7, 0)]
    calls.clear()
    spec = SeqSpec(prefix=(), cycle=(cs(3, [0, 1]), cs(8, [0, 1, 3])))
    assert pm_verdict(spec, 2) == Verdict(holds=False, witnesses=(1,))
    assert calls == [(3, 2, 0), (8, 2, 0), (3, 1, 1), (8, 1, 1)]  # entry 1 is no translate


def test_pm_verdict_matches_the_reference_on_translates_of_the_negation():
    # -A = A - t for A = H u (t - H); with n even and t odd A has no
    # symmetry center (symmetry_center needs t = 2c), as {0,1} mod 4.  A
    # union of cosets of dZ_n has a period dividing d < n (odd or even), and
    # one or two cosets are always a translate of their negation
    from oracles import (
        naive_negation_shifts,
        periodic_members,
        random_nonempty_members,
        random_reflected_members,
        reference_pm_verdict,
    )

    def reflected(n, odd=False):
        return cs(n, random_reflected_members(rng, n, rng.randrange(n) | odd))

    def cosets(n, count=0):
        d = rng.choice([d for d in range(1, n) if n % d == 0] or [1])
        return cs(n, periodic_members(rng.sample(range(d), count or rng.randint(1, d)), d, n))

    def negations_are_translates(spec):
        return all(naive_negation_shifts(e.members(), e.modulus) for e in spec.cycle)

    kinds = (
        reflected,
        lambda n: reflected(2 * (n // 2 + 1), odd=True),
        lambda n: cs(n, random_nonempty_members(rng, n)),
        lambda n: cosets(n, count=1),
        cosets,
    )
    pinned = SeqSpec.constant(cs(4, [0, 1]))
    assert pinned.cycle[0].symmetry_center() is None
    assert pm_verdict(pinned, 2) == reference_pm_verdict(pinned, 2) == Verdict(False, witnesses=(0,))
    rng = random.Random(30)
    shortcuts = 0
    for _ in range(2000):
        spec = SeqSpec(
            prefix=tuple(rng.choice(kinds)(rng.randrange(1, 10)) for _ in range(rng.randrange(2))),
            cycle=tuple(rng.choice(kinds)(rng.randrange(1, 12)) for _ in range(rng.randrange(1, 4))),
        )
        m = rng.randrange(1, 7)
        v = pm_verdict(spec, m)
        assert v == reference_pm_verdict(spec, m), (spec.to_literal(), m)
        shortcuts += not v.holds and m > 1 and negations_are_translates(spec)
    assert shortcuts > 200


def test_pm_verdict_failure_positions_can_differ_per_class():
    # {0,1,3} mod 7 fails the all-plus classes but has full differences;
    # {0,2} mod 5 has deficient differences; no single position fails
    # every class, so the witness list unions the first failures
    spec = SeqSpec(prefix=(), cycle=(cs(7, [0, 1, 3]), cs(5, [0, 2])))
    v = pm_verdict(spec, 2)
    assert not v.holds
    assert v.witnesses == (0, 1)


def test_pm_verdict_scans_classes_without_listing_them():
    # the first class decides at m = 10**6; a list of all m + 1 classes
    # alone would hold tens of megabytes
    import tracemalloc

    spec = SeqSpec.constant(cs(5, [0, 1]))
    tracemalloc.start()
    try:
        v = pm_verdict(spec, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v == Verdict(holds=True, k0=0, sign_class=(10**6, 0))
    assert peak < 1 << 20
