import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

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

from oracles import EagerWitnessStore


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


def test_append_makes_the_directory_only_when_it_is_missing(tmp_path, monkeypatch):
    made = []
    mkdir = Path.mkdir
    monkeypatch.setattr(Path, "mkdir", lambda self, *a, **kw: made.append(self) or mkdir(self, *a, **kw))
    store = WitnessStore(tmp_path / "a" / "b")
    store.append(witness_record())
    assert made[0] == tmp_path / "a" / "b"  # then its missing parent, recursively
    first = len(made)
    store.append(make_xi_record(2, created_at=3))
    WitnessStore(tmp_path / "a" / "b").append(make_xi_record(3, created_at=3))
    assert len(made) == first
    lines = store.path.read_text().splitlines()
    assert lines == [witness_record().to_json_line(), make_xi_record(2, created_at=3).to_json_line(),
                     make_xi_record(3, created_at=3).to_json_line()]


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


def test_query_orders_by_kind_then_key(tmp_path):
    # hand-edited kinds, one a prefix of the other: on the raw key
    # "kind|payload", "xa|..." sorts before "x|..." since "a" < "|"
    _write_records(tmp_path, [
        StoreRecord(kind="xa", payload={"m": 1}, created_at=0),
        StoreRecord(kind="x", payload={"m": 2}, created_at=0),
        StoreRecord(kind="x", payload={"m": 10}, created_at=0),
    ])
    store = WitnessStore(tmp_path)
    assert [(r.kind, r.payload["m"]) for r in store.query()] == [("x", 10), ("x", 2), ("xa", 1)]
    assert [r.payload["m"] for r in store.query("x")] == [10, 2]


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


def test_haight_residues_out_of_range_are_refused(tmp_path):
    # from_members would reduce them mod 7 to the stored witness {0,1,3}
    record = witness_record()
    wrapped = StoreRecord(
        kind="haight", payload={**record.payload, "set": [7, 8, 10]}, created_at=0
    )
    with pytest.raises(StoreVerificationError, match="residue 7 out of range"):
        WitnessStore(tmp_path / "fresh").append(wrapped)
    _write_records(tmp_path, [record, wrapped])
    report = WitnessStore(tmp_path).reverify_all()
    assert report.ok == 1
    assert len(report.failures) == 1 and report.failures[0][0] == 1
    assert "residue 7 out of range for modulus 7" in report.failures[0][1]


def test_haight_payloads_must_hold_json_integers(tmp_path):
    # int() would store this as {"cert":5,"k":2,"n":7,"set":[0,1,3]}
    coerced = StoreRecord(
        kind="haight",
        payload={"k": 2.9, "n": 7.9, "set": [True, False, 3], "cert": "5"},
        created_at=0,
    )
    store = WitnessStore(tmp_path)
    with pytest.raises(StoreVerificationError, match="k must be an integer"):
        store.append(coerced)
    assert len(store) == 0 and len(WitnessStore(tmp_path)) == 0


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


def _reordered(record, indent=None):
    """The record's JSON with every object's keys in reverse order."""
    obj = {
        "producer": dict(reversed(record.producer.items())),
        "payload": dict(reversed(sorted(record.payload.items()))),
        "kind": record.kind,
        "created_at": record.created_at,
    }
    return json.dumps(obj, indent=indent)


def _crafted_store_text():
    spec = SeqSpec.parse("cycle=[7:{0,1,3};13:{0,1,3,9}]")
    cli_producer = {"version": "0.1.0", "seed": 0, "mode": "exhaustive", "budget": 100000, "k": 2}
    canonical = [
        witness_record(),
        make_xi_record(2, created_at=3, producer=cli_producer),
        make_verdict_record("pm", spec, 2, pm_verdict(spec, 2), created_at=4),
        # canonical text, non-canonical payload: reverify must flag it either way
        make_haight_record(HaightWitness(2, CyclicSet.from_members(7, [0, 2, 6]), 3), created_at=0),
    ]
    other = [make_xi_record(m, created_at=1) for m in (1, 3, 4)]
    big = "1" + "0" * 5000  # json.loads refuses ints this long
    lines = [
        canonical[0].to_json_line(),
        _reordered(other[0]),  # reordered keys
        canonical[1].to_json_line(),
        json.dumps(json.loads(other[1].to_json_line())),  # extra whitespace
        "",
        canonical[0].to_json_line(),  # exact duplicate
        _reordered(canonical[1]),  # duplicate, reordered
        other[1].to_json_line(),  # canonical duplicate of a whitespace line
        "{ this is not json }",
        '{"kind":"verdict","payload":[1],"created_at":0}',
        '{"created_at":0,"kind":"xi","payload":{"Xi":"259","m":2,"xi":3,},"producer":{}}',
        '{"created_at":0,"kind":"xi","payload":{"Xi":"259","m":02,"xi":3},"producer":{}}',
        '{"created_at":0,"kind":"xi","payload":{"Xi":"259","m":' + big + ',"xi":3},"producer":{}}',
        '{"created_at":0,"kind":"xi","payload":{"m":5,"xi":3,"Xi":"259"},"producer":{}}',
        '{"created_at":0.5,"kind":"xi","payload":{"Xi":"259","m":6,"xi":3},"producer":{}}',
        '{"created_at":0,"kind":"xi","payload":{"Xi":"\\u00e9","m":7,"xi":3},"producer":{}}',
        '{"created_at":0,"kind":"xi","payload":{"Xi":"259","m":-0,"xi":3},"producer":{}}',
        canonical[2].to_json_line(),
        canonical[3].to_json_line(),
        "   ",
        other[2].to_json_line(),
    ]
    return "\n".join(lines) + "\n"


def _assert_same_store(lazy, eager):
    assert len(lazy) == len(eager)
    assert lazy.malformed_lines == eager.malformed_lines
    assert lazy._positions == eager._positions
    assert lazy.query() == eager.query()
    assert lazy.query("xi", xi=3) == eager.query("xi", xi=3)
    assert lazy._entries == eager._entries
    assert lazy.reverify_all() == eager.reverify_all()


@pytest.mark.parametrize("tail", ["complete", "torn", "none"])
def test_lazy_open_matches_the_eager_loader(tmp_path, tail):
    text = _crafted_store_text()
    if tail == "complete":
        text = text[:-1]  # a whole record without its newline
    elif tail == "torn":
        text += '{"created_at":0,"kind":"xi","payload":{"Xi":"2'
    for name in ("lazy", "eager"):
        (tmp_path / name).mkdir()
        (tmp_path / name / WitnessStore.FILENAME).write_text(text, encoding="utf-8")
    lazy, eager = WitnessStore(tmp_path / "lazy"), EagerWitnessStore(tmp_path / "eager")
    assert len(lazy) == 11 and lazy.malformed_lines == 5 + (tail == "torn")
    # wrong xi for m = 5, 6, 7 and 0 (read from -0), and the non-canonical set
    assert [p for p, _ in lazy.reverify_all().failures] == [4, 5, 6, 7, 9]
    _assert_same_store(lazy, eager)
    # appending after either open gives the same positions and bytes
    for store in (lazy, eager):
        assert store.append(make_xi_record(3, created_at=9)) == 3  # a duplicate
        assert store.append(make_xi_record(9, created_at=9)) == 11
    assert (tmp_path / "lazy" / WitnessStore.FILENAME).read_bytes() == (
        tmp_path / "eager" / WitnessStore.FILENAME
    ).read_bytes()
    _assert_same_store(WitnessStore(tmp_path / "lazy"), EagerWitnessStore(tmp_path / "eager"))


def test_a_line_that_is_not_utf8_is_one_malformed_line(tmp_path):
    lines = [
        make_xi_record(3, created_at=0).to_json_line().encode(),
        # well-formed JSON but for one byte inside a string
        make_xi_record(4, created_at=0, producer={"note": "x"}).to_json_line().encode()
        .replace(b'"x"', b'"\xff"'),
        b"garbage \xff\xfe line",
        "{\"created_at\":0,\"kind\":\"xi\",\"payload\":{\"Xi\":\"18\",\"m\":1,\"xi\":2},"
        "\"producer\":{\"note\":\"\u00e9\"}}".encode(),  # UTF-8 outside ASCII is kept
    ]
    data = b"\n".join(lines) + b"\n"
    for name in ("lazy", "eager"):
        (tmp_path / name).mkdir()
        (tmp_path / name / WitnessStore.FILENAME).write_bytes(data)
    lazy, eager = WitnessStore(tmp_path / "lazy"), EagerWitnessStore(tmp_path / "eager")
    assert len(lazy) == 2 and lazy.malformed_lines == 2
    assert lazy._read == len(data)
    report = lazy.reverify_all()
    assert (report.total, report.ok, report.failures) == (2, 2, [])
    _assert_same_store(lazy, eager)
    for store in (lazy, eager):
        assert store.append(make_xi_record(3, created_at=9)) == 0  # a duplicate
        assert store.append(make_xi_record(4, created_at=9)) == 2
    written = (tmp_path / "lazy" / WitnessStore.FILENAME).read_bytes()
    assert written.startswith(data)  # the bad lines stay as they were
    assert written == (tmp_path / "eager" / WitnessStore.FILENAME).read_bytes()
    _assert_same_store(WitnessStore(tmp_path / "lazy"), EagerWitnessStore(tmp_path / "eager"))


# every store-writing command, covering each producer and payload shape
_STORE_WRITERS = [
    ("haight", "minimal", "2", "--cap", "10"),  # producer: mode, k, no budget or seed
    ("haight", "search", "2", "--seed", "4", "--n-range", "7..7", "--mode", "stochastic",
     "--budget", "300", "--max-set-size", "3"),
    ("haight", "search", "2", "--n-range", "8..8"),
    ("verdict-eps", "prefix=[4:{0}] cycle=[7:{0,1,6};5:{0,1}]", "++", "--store"),  # fails
    ("verdict-eps", "cycle=[7:{0,1,6}]", "+-+", "--store"),  # holds, no sign class
    ("verdict-pm", "prefix=[5:{0}] cycle=[7:{0,1,3}]", "2", "--store"),  # holds, k0 = 1
    ("verdict-pm", "cycle=[7:{0,1,6};5:{0}]", "2", "--store"),  # fails
    ("verdict-sym", "cycle=[7:{6,0,1}]", "3", "--store"),
    ("lemma1", "xi", "3", "--store"),
    ("--no-timestamp", "lemma1", "xi", "1", "--store"),
]


def test_open_parses_no_line_the_cli_writes(tmp_path, monkeypatch, capsys):
    from steinset.cli import main

    for argv in _STORE_WRITERS:
        assert main(["--store-dir", str(tmp_path), *argv]) == 0
    capsys.readouterr()
    written = len((tmp_path / WitnessStore.FILENAME).read_text(encoding="utf-8").splitlines())
    assert written == len(_STORE_WRITERS)  # one new record per command
    monkeypatch.setattr(json, "loads", None)  # any parse would now fail
    reopened = WitnessStore(tmp_path)
    assert len(reopened) == written and reopened.malformed_lines == 0
    assert reopened.append(make_xi_record(3, created_at=7)) == written - 2  # a duplicate
    monkeypatch.undo()
    _assert_same_store(reopened, EagerWitnessStore(tmp_path))
    assert reopened.reverify_all().clean


def test_canonical_line_pattern_compiles_on_python_3_10():
    from steinset.store import _CANONICAL_LINE

    # possessive quantifiers and atomic groups reach re only in Python 3.11
    assert re.search(r"\(\?>|[*+?}]\+", _CANONICAL_LINE.pattern) is None


def test_append_ends_a_line_torn_after_open(tmp_path):
    store = WitnessStore(tmp_path)
    store.append(witness_record())
    with store.path.open("a", encoding="utf-8") as fh:
        fh.write('{"kind":"xi","payload":{"m":1')  # another writer, cut short
    store.append(make_xi_record(2, created_at=3))
    reloaded = WitnessStore(tmp_path)
    assert len(reloaded) == 2 and reloaded.malformed_lines == 1


def test_two_stores_on_one_file_agree_on_duplicates_and_positions(tmp_path):
    first, second = WitnessStore(tmp_path), WitnessStore(tmp_path)
    assert first.append(make_xi_record(1, created_at=0)) == 0
    assert second.append(make_xi_record(2, created_at=0)) == 1
    assert second.append(make_xi_record(1, created_at=0)) == 0  # written by first
    assert first.append(make_xi_record(2, created_at=0)) == 1  # written by second
    lines = (tmp_path / WitnessStore.FILENAME).read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["payload"]["m"] for line in lines] == [1, 2]
    assert len(first) == len(second) == 2
    _assert_same_store(second, EagerWitnessStore(tmp_path))


def test_catching_up_reads_a_torn_line_once(tmp_path):
    first, second = WitnessStore(tmp_path), WitnessStore(tmp_path)
    first.append(make_xi_record(1, created_at=0))
    with first.path.open("a", encoding="utf-8") as fh:
        fh.write('{"kind":"xi","payload":{"m":1')  # a write cut short by a crash
    assert second.append(make_xi_record(2, created_at=0)) == 1
    assert second.malformed_lines == 1
    assert first.append(make_xi_record(3, created_at=0)) == 2
    assert first.malformed_lines == 1
    for store in (first, second):
        assert store.append(make_xi_record(1, created_at=5)) == 0
    _assert_same_store(WitnessStore(tmp_path), EagerWitnessStore(tmp_path))
    assert WitnessStore(tmp_path).malformed_lines == 1


_APPENDER = """
import sys, time
from steinset.store import WitnessStore, make_xi_record
store = WitnessStore(sys.argv[1])
first, count, start = int(sys.argv[2]), int(sys.argv[3]), float(sys.argv[4])
while time.time() < start:
    pass
for m in range(first, first + count):
    store.append(make_xi_record(m, created_at=0))
"""


def _append_at_once(tmp_path, firsts, count):
    """Run one appender process per first m, appending m .. m + count - 1 at
    the same moment; the m of every line of the file, sorted."""
    import steinset

    env = dict(os.environ, PYTHONPATH=str(Path(steinset.__file__).parent.parent))
    start = time.time() + 1.0  # the children append at once, after start-up
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _APPENDER, str(tmp_path), str(first), str(count), str(start)],
            env=env,
        )
        for first in firsts
    ]
    assert [p.wait(timeout=60) for p in procs] == [0] * len(procs)
    lines = (tmp_path / WitnessStore.FILENAME).read_text(encoding="utf-8").splitlines()
    return sorted(json.loads(line)["payload"]["m"] for line in lines)


def test_two_processes_append_disjoint_records_once_each(tmp_path):
    count = 150
    assert _append_at_once(tmp_path, (1, 1 + count), count) == list(range(1, 2 * count + 1))
    store = WitnessStore(tmp_path)
    assert len(store) == 2 * count and store.malformed_lines == 0


def test_two_processes_append_the_same_records_once(tmp_path):
    count = 100
    assert _append_at_once(tmp_path, (1, 1), count) == list(range(1, count + 1))
    store = WitnessStore(tmp_path)
    assert len(store) == count and store.malformed_lines == 0
