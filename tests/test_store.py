import json

import pytest

from steinset.groups import AffineMap, CyclicSet
from steinset.haight import HaightWitness
from steinset.store import (
    StoreRecord,
    StoreVerificationError,
    WitnessStore,
    make_haight_record,
    make_verdict_record,
    make_xi_record,
)
from steinset.sumsets import iterated_sumset
from steinset.verdicts import SeqSpec, pm_verdict


def witness_record(created_at=5, members=(0, 1, 3), n=7, cert=5):
    w = HaightWitness(k=2, subset=CyclicSet.from_members(n, members), certificate=cert)
    return make_haight_record(w, producer={"seed": 1}, created_at=created_at)


def test_append_verifies_and_canonicalizes(tmp_path):
    store = WitnessStore(tmp_path)
    # a non-canonical affine image: u=3, c=2 maps {0,1,3} to {2,4,5}
    image = CyclicSet.from_members(7, [0, 1, 3]).affine_apply(AffineMap(3, 2, 7))
    assert image.members() == (2, 4, 5)
    cert = iterated_sumset(image, 2).deficiency()[0]
    record = make_haight_record(HaightWitness(2, image, cert), created_at=9)
    pos = store.append(record)
    assert pos == 0
    stored = store.query("haight")[0]
    assert stored.payload == {"k": 2, "n": 7, "set": [0, 1, 3], "cert": 5}


def test_append_rejects_invalid_witness(tmp_path):
    store = WitnessStore(tmp_path)
    bad = make_haight_record(
        HaightWitness(2, CyclicSet.from_members(7, [0, 1, 3]), 4), created_at=1
    )
    with pytest.raises(StoreVerificationError):
        store.append(bad)
    assert len(store) == 0


def test_append_idempotent_on_canonical_duplicates(tmp_path):
    store = WitnessStore(tmp_path)
    p1 = store.append(witness_record(created_at=5))
    p2 = store.append(witness_record(created_at=99))  # same math, later timestamp
    assert p1 == p2 == 0
    assert len(store) == 1
    assert len(store.path.read_text().splitlines()) == 1


def test_round_trip_across_instances(tmp_path):
    store = WitnessStore(tmp_path)
    store.append(witness_record())
    store.append(make_xi_record(2, created_at=3))
    spec = SeqSpec.parse("cycle=[7:{0,1,3}]")
    store.append(make_verdict_record("pm", spec, 2, pm_verdict(spec, 2), created_at=4))

    reloaded = WitnessStore(tmp_path)
    assert len(reloaded) == 3
    assert reloaded.query("xi")[0].payload == {"m": 2, "xi": 3, "Xi": "259"}
    verdict = reloaded.query("verdict")[0].payload
    assert verdict["holds"] is True and verdict["sign_class"] == [1, 1]
    assert reloaded.query("haight", k=2, n=7)[0].payload["set"] == [0, 1, 3]
    assert reloaded.query("haight", k=3) == []


def test_query_order_independent_of_file_order(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    records = [
        witness_record(),
        make_xi_record(1, created_at=1),
        make_xi_record(3, created_at=1),
    ]
    sa = WitnessStore(a_dir)
    for r in records:
        sa.append(r)
    sb = WitnessStore(b_dir)
    for r in reversed(records):
        sb.append(r)
    pa = [(r.kind, r.payload) for r in WitnessStore(a_dir).query()]
    pb = [(r.kind, r.payload) for r in WitnessStore(b_dir).query()]
    assert pa == pb


def test_verdict_record_rejected_on_outcome_mismatch(tmp_path):
    store = WitnessStore(tmp_path)
    spec = SeqSpec.parse("cycle=[7:{0,1,6}]")
    lying = StoreRecord(
        kind="verdict",
        payload={"op": "pm", "spec": spec.to_literal(), "m": 2, "holds": True},
        created_at=0,
    )
    with pytest.raises(StoreVerificationError):
        store.append(lying)


def test_xi_record_rejected_on_mismatch(tmp_path):
    store = WitnessStore(tmp_path)
    with pytest.raises(StoreVerificationError):
        store.append(
            StoreRecord(kind="xi", payload={"m": 1, "xi": 3, "Xi": "259"}, created_at=0)
        )


def test_unknown_kind_rejected(tmp_path):
    store = WitnessStore(tmp_path)
    with pytest.raises(StoreVerificationError):
        store.append(StoreRecord(kind="mystery", payload={}, created_at=0))


def test_reverify_detects_corruption(tmp_path):
    store = WitnessStore(tmp_path)
    store.append(witness_record())
    store.append(make_xi_record(1, created_at=2))
    assert store.reverify_all().clean

    lines = store.path.read_text().splitlines()
    tampered = json.loads(lines[0])
    tampered["payload"]["cert"] = 4  # 4 = 1 + 3 lies inside the 2-fold sumset
    lines[0] = json.dumps(tampered, sort_keys=True, separators=(",", ":"))
    lines.append("{ this is not json }")
    store.path.write_text("\n".join(lines) + "\n")

    reloaded = WitnessStore(tmp_path)
    report = reloaded.reverify_all()
    assert not report.clean
    assert report.malformed_lines == 1
    assert len(report.failures) == 1
    position, reason = report.failures[0]
    assert "certificate present" in reason


def test_reverify_flags_noncanonical_payload(tmp_path):
    store = WitnessStore(tmp_path)
    store.append(witness_record())
    lines = store.path.read_text().splitlines()
    obj = json.loads(lines[0])
    obj["payload"]["set"] = [0, 2, 6]  # affine image: still a witness, not canonical
    obj["payload"]["cert"] = 3
    store.path.write_text(json.dumps(obj) + "\n")
    report = WitnessStore(tmp_path).reverify_all()
    assert not report.clean
    assert "not canonical" in report.failures[0][1]


def _write_records(store_dir, records):
    store_dir.mkdir(parents=True, exist_ok=True)
    (store_dir / WitnessStore.FILENAME).write_text(
        "".join(r.to_json_line() + "\n" for r in records), encoding="utf-8"
    )


# JSON-valid records whose payloads cannot be recomputed: a missing field
# (KeyError), a wrongly typed field (TypeError) and a bad value (ValueError).
BAD_PAYLOAD_RECORDS = [
    StoreRecord(kind="haight", payload={"k": 2, "n": 7, "set": [0, 1, 3]}, created_at=0),
    StoreRecord(
        kind="verdict", payload={"op": "pm", "spec": 5, "m": 2, "holds": True}, created_at=0
    ),
    StoreRecord(kind="xi", payload={"m": 0, "xi": 1, "Xi": "1"}, created_at=0),
]


def test_reverify_reports_bad_payloads_as_failures(tmp_path):
    _write_records(tmp_path, [witness_record(), *BAD_PAYLOAD_RECORDS])
    report = WitnessStore(tmp_path).reverify_all()
    assert report.total == 4 and report.ok == 1 and report.malformed_lines == 0
    assert [position for position, _ in report.failures] == [1, 2, 3]
    for record in BAD_PAYLOAD_RECORDS:
        with pytest.raises(StoreVerificationError):
            WitnessStore(tmp_path / "fresh").append(record)


def test_append_after_torn_tail_keeps_the_new_record(tmp_path):
    store = WitnessStore(tmp_path)
    store.append(witness_record())
    with store.path.open("a", encoding="utf-8") as fh:
        fh.write('{"kind":"xi","payload":{"m":1')  # a write cut short by a crash
    torn = WitnessStore(tmp_path)
    assert len(torn) == 1 and torn.malformed_lines == 1
    assert torn.append(make_xi_record(2, created_at=3)) == 1

    reloaded = WitnessStore(tmp_path)
    assert len(reloaded) == 2 and reloaded.malformed_lines == 1
    assert reloaded.query("xi")[0].payload == {"m": 2, "xi": 3, "Xi": "259"}
    assert reloaded.path.read_text(encoding="utf-8").endswith("\n")


def test_load_counts_non_object_payload_as_malformed(tmp_path):
    tmp_path.joinpath(WitnessStore.FILENAME).write_text(
        '{"kind":"verdict","payload":[1],"created_at":0}\n', encoding="utf-8"
    )
    store = WitnessStore(tmp_path)
    assert len(store) == 0 and store.malformed_lines == 1
    assert store.query(op="pm") == [] and store.reverify_all().failures == []
