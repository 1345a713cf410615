import json
import os
import subprocess
import sys
from math import floor, log10
from pathlib import Path

import pytest

import steinset
from steinset import thick
from steinset.cli import main, parse_signs
from steinset.store import StoreRecord


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--output", "structured", *argv)
    objects = [json.loads(line) for line in out.splitlines() if line.strip()]
    return code, objects, err


def test_parse_signs_forms():
    assert parse_signs("+-+") == (1, -1, 1)
    assert parse_signs("+1,-1") == (1, -1)
    assert parse_signs("1,-1,1") == (1, -1, 1)
    with pytest.raises(Exception):
        parse_signs("+2")
    with pytest.raises(ValueError, match="empty sign vector"):
        parse_signs("")
    with pytest.raises(ValueError, match="bad sign entry '2'"):
        parse_signs("+1,2")


def test_sumset_command(capsys):
    code, objs, _ = run_json(capsys, "sumset", "7:{0,1,3}", "7:{0,1,3}")
    assert code == 0
    assert objs[0]["result"] == [0, 1, 2, 3, 4, 6]
    assert objs[0]["full"] is False


def test_ksum_signed_pm_commands(capsys):
    code, objs, _ = run_json(capsys, "ksum", "7:{0,1,6}", "3")
    assert code == 0 and objs[0]["full"] is True
    code, objs, _ = run_json(capsys, "signed", "7:{0,1,3}", "+-")
    assert code == 0 and objs[0]["full"] is True
    code, objs, _ = run_json(capsys, "pm", "5:{2}", "2")
    assert code == 0 and objs[0]["result"] == [0, 1, 4]


def test_verdict_commands(capsys):
    code, out, _ = run(capsys, "verdict-sym", "cycle=[7:{6,0,1}]", "3")
    assert code == 0
    assert "Holds (k0=0)" in out
    code, objs, _ = run_json(capsys, "verdict-pm", "cycle=[7:{0,1,3}]", "2")
    assert code == 0
    assert objs[0]["holds"] is True and objs[0]["sign_class"] == [1, 1]
    code, objs, _ = run_json(capsys, "verdict-eps", "cycle=[7:{0,1,6}]", "++")
    assert code == 0
    assert objs[0]["holds"] is False and objs[0]["witnesses"] == [0]


def test_verdict_sym_rejects_asymmetric_entries(capsys):
    code, out, err = run(capsys, "verdict-sym", "cycle=[7:{0,1,3}]", "2")
    assert code == 1
    assert "position 0" in err


def test_example_command(capsys):
    code, objs, _ = run_json(capsys, "example-c2n1", "4")
    assert code == 0
    assert objs[0]["sym"]["holds"] is True
    assert objs[0]["pm"]["holds"] is False
    assert objs[0]["sym_m"] == 4 and objs[0]["pm_m"] == 3


def test_lemma1_commands(capsys, tmp_path):
    code, objs, _ = run_json(capsys, "lemma1", "xi", "1")
    assert code == 0
    assert objs[0] == {"command": "lemma1-xi", "m": 1, "xi": 2, "Xi": "18"}
    code, objs, _ = run_json(capsys, "lemma1", "intervals", "sets=[{1},{2}] a_max=2")
    assert code == 0
    assert objs[0]["sets"][0][0] == {"a": 1, "lo": "3", "hi": "5"}
    code, objs, _ = run_json(capsys, "lemma1", "independence", "sets=[{1},{2}] a_max=2", "2")
    assert code == 0
    assert objs[0]["passed"] is True


def test_lemma1_intervals_refuses_towers_too_long_to_print(capsys, monkeypatch):
    # at the default limit of 4300 digits, a = 14: 2^(2^14) has 4933
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    a = next(a for a in range(1, 64) if floor((1 << a) * log10(2)) + 1 > limit)
    with monkeypatch.context() as patch:
        patch.setattr(thick, "power_tower", lambda i: pytest.fail(f"tower {i} built"))
        code, out, err = run(capsys, "lemma1", "intervals", f"sets=[{{1,{a}}},{{2}}] a_max={a}")
    assert code == 2 and out == ""
    assert f"index {a}: 2^(2^{a}) has more than {limit} decimal digits" in err
    code, objs, _ = run_json(capsys, "lemma1", "intervals", f"sets=[{{{a - 1}}}] a_max={a}")
    assert code == 0 and objs[0]["sets"][0][0]["a"] == a - 1


@pytest.mark.parametrize("spec", ["sets=[{1},junk{2}] a_max=2", "sets=[{1}{2}] a_max=2",
                                  "sets=[{1},,{2}] a_max=3"])
def test_lemma1_intervals_refuses_text_between_sets(capsys, spec):
    code, out, err = run(capsys, "lemma1", "intervals", spec)
    assert code == 2 and out == ""
    assert err == f"error: malformed thick family spec: {spec!r}\n"


def test_lemma1_independence_refuses_indices_above_the_bound(capsys, monkeypatch):
    monkeypatch.setattr(thick, "power_tower", lambda i: pytest.fail(f"tower {i} built"))
    code, out, err = run(capsys, "lemma1", "independence", "sets=[{40}] a_max=40", "1")
    assert code == 2 and out == ""
    assert err == f"error: index 40 above the largest index {thick.MAX_INDEX}\n"


def test_haight_minimal_and_store_flow(capsys, tmp_path):
    store = str(tmp_path / "cache")
    code, objs, _ = run_json(
        capsys, "--store-dir", store, "--no-timestamp", "haight", "minimal", "2", "--cap", "10"
    )
    assert code == 0
    # one witness record plus the summary object
    assert objs[0]["kind"] == "haight"
    assert objs[0]["payload"] == {"k": 2, "n": 6, "set": [0, 1, 3], "cert": 5}
    assert objs[-1]["n"] == 6
    code, objs, _ = run_json(capsys, "--store-dir", store, "store", "reverify")
    assert code == 0
    assert objs[0]["total"] == 1 and objs[0]["failures"] == []


def test_haight_search_deterministic_bytes(capsys, tmp_path):
    argv = (
        "--output",
        "structured",
        "--no-timestamp",
        "--store-dir",
        str(tmp_path / "s"),
        "haight",
        "search",
        "2",
        "--n-range",
        "6..9",
        "--mode",
        "stochastic",
        "--budget",
        "400",
        "--seed",
        "11",
        "--no-store",
    )
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_haight_search_records_round_trip_store_format(capsys, tmp_path):
    store = str(tmp_path / "cache")
    code, objs, _ = run_json(
        capsys,
        "--store-dir",
        store,
        "--no-timestamp",
        "haight",
        "search",
        "2",
        "--n-range",
        "7..7",
    )
    assert code == 0
    record_lines = [o for o in objs if o.get("kind") == "haight"]
    stored = (tmp_path / "cache" / "records.jsonl").read_text().splitlines()
    assert [json.loads(line) for line in stored] == record_lines


# the least witness classes for k = 1, 2, 3, in k order
CHAIN3 = [
    {"k": 1, "n": 3, "set": [0, 1], "cert": 2},
    {"k": 2, "n": 6, "set": [0, 1, 3], "cert": 5},
    {"k": 3, "n": 24, "set": [0, 2, 5, 6, 12, 14, 18], "cert": 3},
]


def test_haight_verify_command(capsys, tmp_path):
    good = tmp_path / "good.jsonl"
    good.write_text(
        "\n".join(
            [
                json.dumps({"k": 1, "n": 3, "set": [0, 1], "cert": 2}),
                json.dumps({"k": 2, "n": 7, "set": [0, 1, 3], "cert": 5}),
            ]
        )
    )
    code, objs, _ = run_json(capsys, "haight", "verify", str(good))
    assert code == 0
    assert objs[0]["valid"] == 2
    assert objs[0]["sequence"]["pm2_holds"] is True
    assert objs[0]["sequence"]["pm2_class"] == [1, 1]
    assert objs[0]["sequence"]["tail_failures"] == {"1": [0, 1], "2": [1]}

    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"k": 2, "n": 7, "set": [0, 1, 3], "cert": 4}))
    code, objs, _ = run_json(capsys, "haight", "verify", str(bad))
    assert code == 1
    assert objs[0]["failures"][0]["reason"].startswith("certificate present")

    # residues are not reduced mod n: 7, 8, 10 would give the witness {0,1,3}
    wrapped = tmp_path / "wrapped.jsonl"
    wrapped.write_text(json.dumps({"k": 2, "n": 7, "set": [7, 8, 10], "cert": 5}))
    code, out, err = run(capsys, "haight", "verify", str(wrapped))
    assert code == 2 and out == ""
    assert "line 1: malformed witness: residue 7 out of range for modulus 7" in err

    # JSON integers only: int() would read this as the valid {0,1,3} mod 7
    coerced = tmp_path / "coerced.jsonl"
    coerced.write_text('{"k":2.9,"n":7.9,"set":[true,false,3],"cert":"5"}')
    code, out, err = run(capsys, "haight", "verify", str(coerced))
    assert code == 2 and out == ""
    assert "line 1: malformed witness: k must be int, got 2.9" in err

    # output and exit status, both formats: a k = 1..3 chain, the chain with
    # a certificate in 2A, the chain out of k order, and an empty file
    for name, witnesses, code_want, table, structured in (
        ("chain", CHAIN3, 0,
         "checked 3 witness(es), 0 invalid\n"
         "chain k=1..3: pm verdict at 2 Holds via (1, 1), all-plus verdicts fail up to m=3\n",
         '{"command":"haight-verify","failures":[],"sequence":{"ok":true,"pm2_class":[1,1],'
         '"pm2_holds":true,"tail_failures":{"1":[0,1,2],"2":[1,2],"3":[2]}},"total":3,"valid":3}\n'),
        ("bad-cert", [CHAIN3[0], {**CHAIN3[1], "cert": 0}, CHAIN3[2]], 1,
         "checked 3 witness(es), 1 invalid\n  position 1: certificate present in kA\n",
         '{"command":"haight-verify","failures":[{"position":1,"reason":"certificate present in kA"}],'
         '"total":3,"valid":2}\n'),
        ("out-of-order", [CHAIN3[1], CHAIN3[0], CHAIN3[2]], 0,
         "checked 3 witness(es), 0 invalid\n",
         '{"command":"haight-verify","failures":[],"total":3,"valid":3}\n'),
        ("empty", [], 0,
         "checked 0 witness(es), 0 invalid\n",
         '{"command":"haight-verify","failures":[],"total":0,"valid":0}\n'),
    ):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(json.dumps(w) + "\n" for w in witnesses))
        assert run(capsys, "haight", "verify", str(path)) == (code_want, table, ""), name
        assert run(capsys, "--output", "structured", "haight", "verify", str(path)) == (
            code_want, structured, ""), name


def test_haight_verify_checks_each_witness_of_a_valid_chain_once(capsys, tmp_path, monkeypatch):
    import steinset.haight as haight

    calls = []
    real = haight.verify_witness
    monkeypatch.setattr(haight, "verify_witness", lambda w: calls.append(w.k) or real(w))
    chain = tmp_path / "chain.jsonl"
    chain.write_text("".join(json.dumps(w) + "\n" for w in CHAIN3))
    assert run(capsys, "haight", "verify", str(chain))[0] == 0
    assert calls == [1, 2, 3]
    # a chain the check refuses: each witness is listed by its own check
    calls.clear()
    chain.write_text("".join(json.dumps(w) + "\n" for w in CHAIN3[::-1]))
    assert run(capsys, "haight", "verify", str(chain))[0] == 0
    assert calls == [3, 2, 1]


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "sumset", "7:{0,1,3}", "nonsense")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "verdict-pm", "cycle=[7:{0,1,3}]", "0")
    assert code == 2
    code, _, err = run(capsys, "ksum", "7:{0,1,3}", "0")
    assert code == 2
    for k in ("0", "-2"):
        code, out, err = run(capsys, "haight", "minimal", k, "--cap", "6", "--no-store")
        assert code == 2 and out == "" and f"k must be >= 1, got {k}" in err
    code, out, err = run(capsys, "haight", "minimal", "2", "--cap", "41", "--no-store")
    assert (code, out, err) == (2, "", "error: modulus range (1, 41) exceeds exhaustive cap 40\n")
    code, out, err = run(capsys, "haight", "search", "2", "--n-range", "5-9", "--no-store")
    assert (code, out, err) == (2, "", "error: bad modulus range '5-9', expected LO..HI\n")


def test_haight_minimal_without_a_witness(capsys, tmp_path):
    store = tmp_path / "store"
    argv = ("--store-dir", str(store), "haight", "minimal", "3", "--cap", "6")
    assert run(capsys, *argv) == (0, "no witness for k=3 with modulus <= 6\n", "")
    code, objs, err = run_json(capsys, *argv)
    assert (code, err) == (0, "")
    assert objs == [{"cap": 6, "command": "haight-minimal", "k": 3, "n": None}]
    assert not store.exists()  # nothing found, nothing stored


def test_file_errors_exit_2_with_one_line_and_no_traceback(capsys, tmp_path):
    # a directory where a witness file is expected (IsADirectoryError)
    code, out, err = run(capsys, "haight", "verify", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
    # a witness file that does not exist (FileNotFoundError)
    missing = tmp_path / "missing.jsonl"
    code, out, err = run(capsys, "haight", "verify", str(missing))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    # a store directory that cannot be created: below a regular file, and a
    # dangling symbolic link (os.open misses, then mkdir fails)
    (tmp_path / "file").write_text("")
    (tmp_path / "link").symlink_to(tmp_path / "missing" / "store")
    for store_dir in (tmp_path / "file" / "store", tmp_path / "link"):
        code, out, err = run(capsys, "--store-dir", str(store_dir), "lemma1", "xi", "3", "--store")
        assert (code, out) == (2, "xi(3) = 3\nXi(3) = 259\n")
        assert err.startswith("error: [Errno ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_broken_stdout_pipe_exits_2_with_one_line(tmp_path):
    # about 150 KB of witness lines, more than a pipe holds, so the CLI is still
    # writing when the reader closes its end after the first bytes
    argv = ["--output", "structured", "haight", "search", "2", "--n-range", "3..18", "--no-store"]
    src = Path(steinset.__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-m", "steinset.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == "error: [Errno 32] Broken pipe\n"


def test_independence_failure_exits_1(capsys):
    # overlapping families cannot be written as literals; usage errors stay 2
    code, _, err = run(capsys, "lemma1", "independence", "sets=[{1},{1,2}] a_max=2", "2")
    assert code == 2


def test_budget_refusal_exits_1(capsys):
    code, _, err = run(
        capsys,
        "lemma1",
        "independence",
        "sets=[{1,4},{2},{3}] a_max=4",
        "3",
        "--tuple-cap",
        "10",
    )
    assert code == 1
    assert "refused" in err


def test_negative_tuple_cap_is_a_usage_error(capsys):
    argv = ("lemma1", "independence", "sets=[{1}] a_max=1", "1", "--tuple-cap", "-1")
    assert run(capsys, *argv) == (2, "", "error: tuple cap must be >= 0, got -1\n")


def test_table_output_for_intervals_and_search(capsys):
    code, out, _ = run(capsys, "lemma1", "intervals", "sets=[{1},{2}] a_max=2")
    assert code == 0
    assert "a=1: [3, 5]" in out and "a=2: [14, 18]" in out
    code, out, _ = run(capsys, "haight", "search", "2", "--n-range", "6..7", "--no-store")
    assert code == 0
    assert "witness k=2 n=6 set=6:{0,1,3} cert=5" in out
    assert "found 2 witness class(es)" in out


def test_store_dir_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("STEINSET_STORE_DIR", str(tmp_path / "envstore"))
    code, _, _ = run(capsys, "--no-timestamp", "haight", "minimal", "1", "--cap", "3")
    assert code == 0
    assert (tmp_path / "envstore" / "records.jsonl").exists()


# Golden bytes for the structured output and the stored record of each
# command that writes a verdict or xi record; these pin both formats.
_PRODUCER = '"producer":{"version":"0.1.0"}}'
GOLDEN_RECORDS = [
    pytest.param(
        ("verdict-pm", "prefix=[5:{0};7:{0,1,3}] cycle=[7:{0,1,3};13:{0,1,3,9}]", "2"),
        '{"command":"verdict-pm","holds":true,"k0":1,"m":2,"sign_class":[1,1],'
        '"spec":"prefix=[5:{0};7:{0,1,3}] cycle=[7:{0,1,3};13:{0,1,3,9}]"}',
        '{"created_at":0,"kind":"verdict","payload":{"holds":true,"k0":1,"m":2,"op":"pm",'
        '"sign_class":[1,1],"spec":"prefix=[5:{0};7:{0,1,3}] cycle=[7:{0,1,3};13:{0,1,3,9}]"},'
        + _PRODUCER,
        id="pm-holds-sign-class",
    ),
    pytest.param(
        ("verdict-pm", "cycle=[7:{0,1,6};5:{0}]", "2"),
        '{"command":"verdict-pm","holds":false,"m":2,"spec":"cycle=[7:{0,1,6};5:{0}]","witnesses":[0]}',
        '{"created_at":0,"kind":"verdict","payload":{"holds":false,"m":2,"op":"pm",'
        '"spec":"cycle=[7:{0,1,6};5:{0}]","witnesses":[0]},' + _PRODUCER,
        id="pm-fails",
    ),
    pytest.param(
        ("verdict-eps", "prefix=[4:{0}] cycle=[7:{0,1,6};5:{0,1}]", "++"),
        '{"command":"verdict-eps","eps":[1,1],"holds":false,'
        '"spec":"prefix=[4:{0}] cycle=[7:{0,1,6};5:{0,1}]","witnesses":[0,1]}',
        '{"created_at":0,"kind":"verdict","payload":{"holds":false,"op":"eps","signs":[1,1],'
        '"spec":"prefix=[4:{0}] cycle=[7:{0,1,6};5:{0,1}]","witnesses":[0,1]},' + _PRODUCER,
        id="eps-fails",
    ),
    pytest.param(
        ("verdict-eps", "cycle=[7:{0,1,3}]", "+-"),
        '{"command":"verdict-eps","eps":[1,-1],"holds":true,"k0":0,"spec":"cycle=[7:{0,1,3}]"}',
        '{"created_at":0,"kind":"verdict","payload":{"holds":true,"k0":0,"op":"eps",'
        '"signs":[1,-1],"spec":"cycle=[7:{0,1,3}]"},' + _PRODUCER,
        id="eps-holds",
    ),
    pytest.param(
        ("verdict-sym", "prefix=[6:{0}] cycle=[7:{6,0,1}]", "3"),
        '{"command":"verdict-sym","holds":true,"k0":1,"m":3,"spec":"prefix=[6:{0}] cycle=[7:{0,1,6}]"}',
        '{"created_at":0,"kind":"verdict","payload":{"holds":true,"k0":1,"m":3,"op":"sym",'
        '"spec":"prefix=[6:{0}] cycle=[7:{0,1,6}]"},' + _PRODUCER,
        id="sym-holds",
    ),
    pytest.param(
        ("verdict-sym", "cycle=[7:{6,0,1};9:{0}]", "2"),
        '{"command":"verdict-sym","holds":false,"m":2,"spec":"cycle=[7:{0,1,6};9:{0}]","witnesses":[0,1]}',
        '{"created_at":0,"kind":"verdict","payload":{"holds":false,"m":2,"op":"sym",'
        '"spec":"cycle=[7:{0,1,6};9:{0}]","witnesses":[0,1]},' + _PRODUCER,
        id="sym-fails",
    ),
    pytest.param(
        ("lemma1", "xi", "2"),
        '{"Xi":"259","command":"lemma1-xi","m":2,"xi":3}',
        '{"created_at":0,"kind":"xi","payload":{"Xi":"259","m":2,"xi":3},' + _PRODUCER,
        id="xi",
    ),
]


@pytest.mark.parametrize("argv,output,record", GOLDEN_RECORDS)
def test_golden_output_and_record_bytes(capsys, tmp_path, argv, output, record):
    code, out, err = run(
        capsys, "--output", "structured", "--no-timestamp", "--store-dir", str(tmp_path),
        *argv, "--store",
    )
    assert (code, err) == (0, "")
    assert out == output + "\n"
    assert (tmp_path / "records.jsonl").read_text(encoding="utf-8") == record + "\n"


def test_store_reverify_reports_bad_payloads_without_traceback(capsys, tmp_path):
    bad = [
        StoreRecord(kind="haight", payload={"k": 2, "n": 7, "set": [0, 1, 3]}, created_at=0),
        StoreRecord(kind="verdict", payload={"op": "pm", "spec": 5, "m": 2}, created_at=0),
        StoreRecord(kind="xi", payload={"m": 0}, created_at=0),
    ]
    (tmp_path / "records.jsonl").write_text("".join(r.to_json_line() + "\n" for r in bad))
    code, out, err = run(capsys, "--store-dir", str(tmp_path), "store", "reverify")
    assert code == 1
    assert "Traceback" not in out + err
    assert "records: 3, verified: 0, failures: 3, malformed lines: 0" in out
    for position in range(3):
        assert f"  position {position}: " in out


def test_store_with_a_line_that_is_not_utf8_opens(capsys, tmp_path):
    path = tmp_path / "records.jsonl"
    assert run(capsys, "--store-dir", str(tmp_path), "lemma1", "xi", "2", "--store")[0] == 0
    with path.open("ab") as fh:
        fh.write(b"garbage \xff line\n")
    code, out, err = run(capsys, "--store-dir", str(tmp_path), "store", "reverify")
    assert code == 1
    assert "Traceback" not in out + err
    assert "records: 1, verified: 1, failures: 0, malformed lines: 1" in out
    assert run(capsys, "--store-dir", str(tmp_path), "lemma1", "xi", "3", "--store")[0] == 0
    lines = path.read_bytes().splitlines()
    assert len(lines) == 3 and lines[1] == b"garbage \xff line"
    assert json.loads(lines[2])["payload"]["m"] == 3


def test_store_reverify_counts_a_line_with_a_wrongly_typed_envelope_as_malformed(capsys, tmp_path):
    # int() would read created_at as 2, and the payload is a valid xi record
    (tmp_path / "records.jsonl").write_text(
        '{"created_at": 2.7, "kind": "xi", "payload": {"m": 1, "xi": 2, "Xi": "18"}, "producer": "oops"}\n'
    )
    code, out, err = run(capsys, "--output", "structured", "--store-dir", str(tmp_path), "store", "reverify")
    assert (code, err) == (1, "")
    assert '"malformed_lines":1' in out and '"total":0' in out


# Golden bytes of the four set commands, recorded while each had its own
# handler: (argv, table output, structured output line)
GOLDEN_SET_OUTPUT = [
    (("sumset", "7:{0,1,3}", "7:{0,1,3}"), "result: 7:{0,1,2,3,4,6}\nfull: no\n",
     '{"a":"7:{0,1,3}","b":"7:{0,1,3}","command":"sumset","full":false,"modulus":7,'
     '"result":[0,1,2,3,4,6]}'),
    (("sumset", "9:{0,3}", "9:{0,1,2}"), "result: 9:{0,1,2,3,4,5}\nfull: no\n",
     '{"a":"9:{0,3}","b":"9:{0,1,2}","command":"sumset","full":false,"modulus":9,'
     '"result":[0,1,2,3,4,5]}'),
    (("ksum", "7:{0,1,6}", "3"), "result: 7:{0,1,2,3,4,5,6}\nfull: yes\n",
     '{"a":"7:{0,1,6}","command":"ksum","full":true,"k":3,"modulus":7,"result":[0,1,2,3,4,5,6]}'),
    (("ksum", "11:{0,1,4}", "2"), "result: 11:{0,1,2,4,5,8}\nfull: no\n",
     '{"a":"11:{0,1,4}","command":"ksum","full":false,"k":2,"modulus":11,"result":[0,1,2,4,5,8]}'),
    (("signed", "7:{0,1,3}", "+-"), "result: 7:{0,1,2,3,4,5,6}\nfull: yes\n",
     '{"a":"7:{0,1,3}","command":"signed","eps":[1,-1],"full":true,"modulus":7,'
     '"result":[0,1,2,3,4,5,6]}'),
    (("signed", "13:{0,1,3,9}", "1,1,-1"), "result: 13:{0,1,2,3,4,5,6,7,8,9,10,11,12}\nfull: yes\n",
     '{"a":"13:{0,1,3,9}","command":"signed","eps":[1,1,-1],"full":true,"modulus":13,'
     '"result":[0,1,2,3,4,5,6,7,8,9,10,11,12]}'),
    (("pm", "5:{2}", "2"), "result: 5:{0,1,4}\nfull: no\n",
     '{"a":"5:{2}","command":"pm","full":false,"m":2,"modulus":5,"result":[0,1,4]}'),
    (("pm", "17:{0,1,16}", "7"), "result: 17:{0,1,2,3,4,5,6,7,10,11,12,13,14,15,16}\nfull: no\n",
     '{"a":"17:{0,1,16}","command":"pm","full":false,"m":7,"modulus":17,'
     '"result":[0,1,2,3,4,5,6,7,10,11,12,13,14,15,16]}'),
]


@pytest.mark.parametrize("argv,table,structured", GOLDEN_SET_OUTPUT)
def test_golden_set_command_output(capsys, argv, table, structured):
    assert run(capsys, *argv) == (0, table, "")
    assert run(capsys, "--output", "structured", *argv) == (0, structured + "\n", "")


# (argv, stderr) recorded with the golden output above; exit status 2 and no
# output in either format
GOLDEN_SET_ERRORS = [
    (("sumset", "7:{0,1,3}", "nonsense"), "error: malformed set literal: 'nonsense'\n"),
    (("sumset", "7:{0}", "8:{0}"), "error: sumset of sets mod 7 and mod 8\n"),
    (("ksum", "7:{0,1,3}", "0"), "error: fold count must be >= 1, got 0\n"),
    (("signed", "7:{0,1,3}", "+2"), "error: bad sign vector '+2'\n"),
    (("pm", "7:{}", "2"), "error: pm product of an empty set\n"),
]


@pytest.mark.parametrize("argv,err", GOLDEN_SET_ERRORS)
def test_golden_set_command_errors(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", err)
    assert run(capsys, "--output", "structured", *argv) == (2, "", err)


def run_exit(capsys, monkeypatch, *argv):
    """(exit status, stdout, stderr) of an argv that argparse ends, at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv,err", [
    (("ksum", "7:{0}", "x"),
     "usage: steinset ksum [-h] a k\nsteinset ksum: error: argument k: invalid int value: 'x'\n"),
    (("pm", "7:{0}"),
     "usage: steinset pm [-h] a m\nsteinset pm: error: the following arguments are required: m\n"),
])
def test_golden_set_command_usage_errors(capsys, monkeypatch, argv, err):
    assert run_exit(capsys, monkeypatch, *argv) == (2, "", err)


# --help of the main parser and of the set commands, at 80 columns.  The main
# text is the one recorded with --threads, less the --threads lines.
GOLDEN_HELP = {
    (): """\
usage: steinset [-h] [--version] [--store-dir STORE_DIR]
                [--output {table,structured}] [--no-timestamp]
                {sumset,ksum,signed,pm,verdict-eps,verdict-pm,verdict-sym,example-c2n1,haight,lemma1,store}
                ...

Sumsets, eventual-fullness verdicts, witness search and thick-set checks over
cyclic groups.

positional arguments:
  {sumset,ksum,signed,pm,verdict-eps,verdict-pm,verdict-sym,example-c2n1,haight,lemma1,store}
    sumset              A + B
    ksum                k-fold sumset kA
    signed              signed product along a sign vector
    pm                  m-fold sumset of A u (-A)
    verdict-eps         eventual fullness along a sign vector
    verdict-pm          eventual fullness of some sign-count class
    verdict-sym         eventual fullness of the m-fold sumset (symmetric
                        entries)
    example-c2n1        the {-1,0,1} mod 2n+1 family and its two verdicts
    haight              witness search and verification
    lemma1              thick-set thresholds and checks
    store               result store maintenance

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
  --store-dir STORE_DIR
                        result store directory (default: $STEINSET_STORE_DIR
                        or ./steinset-store)
  --output {table,structured}
  --no-timestamp        record created_at=0 (reproducible output)
""",
    **{
        (command,): f"""\
usage: steinset {command} [-h] a {operand}

positional arguments:
  a
  {operand}

options:
  -h, --help  show this help message and exit
"""
        for command, operand in (("sumset", "b"), ("ksum", "k"), ("signed", "eps"), ("pm", "m"))
    },
}


@pytest.mark.parametrize("argv", list(GOLDEN_HELP))
def test_golden_help(capsys, monkeypatch, argv):
    assert run_exit(capsys, monkeypatch, *argv, "--help") == (0, GOLDEN_HELP[argv], "")


def test_threads_option_is_gone(capsys, monkeypatch):
    code, out, err = run_exit(capsys, monkeypatch, "--threads", "2", "sumset", "7:{0,1}", "7:{0}")
    assert (code, out) == (2, "")
    assert err.startswith("usage: steinset ") and "error: " in err
