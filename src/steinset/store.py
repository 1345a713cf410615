"""Append-only JSON-lines cache of verified results.

One record per line: {"kind", "payload", "created_at", "producer"}, of
JSON types string, object, integer and object; a line with other types is
one malformed line.  Kinds:

* ``haight``: a witness {"k", "n", "set", "cert"}; the set is stored in
  affine canonical form with a recomputed certificate, and verification of
  both witness conditions gates every append.
* ``verdict``: {"op", "spec", ...params, "holds", "k0"/"witnesses", ...};
  the verdict is recomputed from the spec literal and must agree.
* ``xi``: {"m", "xi", "Xi"} with Xi as a decimal string; recomputed on append.

``canonical_payload`` is the one verification and format gate: ``append``
stores its result and ``reverify_all`` compares against it.  Every payload
defect (missing field, bad type or value, failed recomputation) raises
``StoreVerificationError``, which ``reverify_all`` reports as a failure.

Duplicates are keyed on (kind, canonical payload) and never re-appended;
the producer fingerprint and timestamp do not participate in identity.
Sets are serialized as sorted residue arrays and big integers as decimal
strings, so records are byte-stable.

Opening a store does not parse the lines this library writes.  A line in
the exact text that ``StoreRecord.to_json_line`` writes for the payload
and producer fields this library uses (so every line the CLI appends) is
trusted: its dedup key ``kind|<payload json>`` is read off the text, which
is the key ``append`` builds.  Any other line (reordered keys, extra
whitespace, a hand edit) is parsed at open and keyed on its payload as
written.  The store keeps each record as its line: ``query`` and
``reverify_all`` parse each line as they reach it and keep only what they
return.  Trust is not verification: ``reverify_all`` recomputes every
record, trusted or not, and reports any payload that is not canonical.

Writes are serialized by a thread lock within a process and an exclusive
``flock`` on the file across processes.  Holding the lock, ``append`` first
keys the lines other stores wrote since this one last read the file, so
duplicates and the returned position are decided against the whole file.
Each record is one write call, preceded by a newline if the file does not
end in one (a crash left its last line unterminated), so a torn line stays
one malformed line, as does a line that is not UTF-8.
"""

from __future__ import annotations

import fcntl
import json
import os
import re
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .values import SteinsetError, Value, json_typed, set_field

if TYPE_CHECKING:
    from .haight import HaightWitness
    from .verdicts import SeqSpec, Verdict


class StoreVerificationError(SteinsetError, ValueError):
    """Payload failed its verification gate."""


class StoreRecord(Value):
    __slots__ = ("kind", "payload", "created_at", "producer")

    def __init__(
        self, kind: str, payload: dict, created_at: int, producer: dict | None = None
    ) -> None:
        set_field(self, "kind", kind)
        set_field(self, "payload", payload)
        set_field(self, "created_at", created_at)
        set_field(self, "producer", {} if producer is None else producer)

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "payload": self.payload,
                "created_at": self.created_at,
                "producer": self.producer,
            },
            sort_keys=True,
            separators=(",", ":"),
        )


def _record(kind: str, payload: dict, producer: dict | None, created_at: int | None) -> StoreRecord:
    return StoreRecord(
        kind=kind,
        payload=payload,
        created_at=int(time.time()) if created_at is None else created_at,
        producer=producer or {},
    )


def _verdict_payload(op: str, spec: SeqSpec, param: Any, verdict: Verdict) -> dict:
    param_field = {"signs": [int(s) for s in param]} if op == "eps" else {"m": int(param)}
    return {"op": op, "spec": spec.to_literal(), **param_field, **verdict.to_json_obj()}


def _xi_payload(m: int) -> dict:
    from .thick import xi_sequence

    xi, big_xi = xi_sequence(m)
    return {"m": m, "xi": xi, "Xi": str(big_xi)}


def make_haight_record(
    witness: HaightWitness, producer: dict | None = None, created_at: int | None = None
) -> StoreRecord:
    return _record("haight", witness.to_json_obj(), producer, created_at)


def make_verdict_record(
    op: str,
    spec: SeqSpec,
    param: Any,
    verdict: Verdict,
    producer: dict | None = None,
    created_at: int | None = None,
) -> StoreRecord:
    return _record("verdict", _verdict_payload(op, spec, param, verdict), producer, created_at)


def make_xi_record(m: int, producer: dict | None = None, created_at: int | None = None) -> StoreRecord:
    return _record("xi", _xi_payload(m), producer, created_at)


def _canonical_haight_payload(payload: dict) -> dict:
    from .haight import HaightWitness, canonical_witness, verify_witness

    witness = HaightWitness.from_json_obj(payload)
    ok, reason = verify_witness(witness)
    if not ok:
        raise StoreVerificationError(f"haight payload rejected: {reason}")
    return canonical_witness(witness.k, witness.subset.canonical_form()).to_json_obj()


def _canonical_verdict_payload(payload: dict) -> dict:
    from .verdicts import VERDICTS, SeqSpec

    op = payload.get("op")
    if op not in VERDICTS:
        raise StoreVerificationError(f"unknown verdict op {op!r}")
    spec = SeqSpec.parse(payload["spec"])
    if op == "eps":
        param = tuple(json_typed(s, int, "sign") for s in json_typed(payload["signs"], list, "signs"))
    else:
        param = json_typed(payload["m"], int, "m")
    verdict = VERDICTS[op](spec, param)
    if "holds" in payload and json_typed(payload["holds"], bool, "holds") != verdict.holds:
        raise StoreVerificationError(
            f"stored verdict claims holds={payload['holds']} but recomputation says {verdict.holds}"
        )
    return _verdict_payload(op, spec, param, verdict)


def _canonical_xi_payload(payload: dict) -> dict:
    m = json_typed(payload["m"], int, "m")
    canon = _xi_payload(m)
    if "xi" in payload and json_typed(payload["xi"], int, "xi") != canon["xi"]:
        raise StoreVerificationError(f"xi mismatch for m={m}: stored {payload['xi']}, computed {canon['xi']}")
    if "Xi" in payload and json_typed(payload["Xi"], str, "Xi") != canon["Xi"]:
        raise StoreVerificationError(f"Xi mismatch for m={m}")
    return canon


_CANONICALIZERS = {
    "haight": _canonical_haight_payload,
    "verdict": _canonical_verdict_payload,
    "xi": _canonical_xi_payload,
}


def canonical_payload(kind: str, payload: dict) -> dict:
    """Verify a payload and return its canonical form; any defect is a StoreVerificationError."""
    if kind not in _CANONICALIZERS:
        raise StoreVerificationError(f"unknown record kind {kind!r}")
    try:
        return _CANONICALIZERS[kind](payload)
    except StoreVerificationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreVerificationError(f"{kind} payload rejected: {exc}") from exc


def _dedup_key(kind: str, payload: dict) -> str:
    return kind + "|" + json.dumps(payload, sort_keys=True, separators=(",", ":"))


# The text to_json_line writes for the records this library makes: compact
# JSON with sorted keys, whose payload and producer hold only the fields
# below, each with its JSON type.  Strings are printable ASCII without
# escapes and ints have at most 18 digits (json.loads may refuse longer
# ones), so json.dumps(json.loads(x)) gives such text x back.  Any other
# line (unknown or unsorted keys, whitespace, escapes, other value types)
# is parsed at open instead.  The payloads come from _verdict_payload,
# _xi_payload, HaightWitness.to_json_obj and Verdict.to_json_obj, the
# producers from cli._producer; tests/test_store.py runs every command that
# writes to a store and opens the result without a parse.  No possessive
# quantifier or atomic group (re has them only from Python 3.11): each value
# ends at a quote, comma, bracket or brace its pattern cannot contain, so
# backtracking finds no other match.
_STR = r'"[ !#-\[\]-~]*"'
_INT = r"(?:0|-?[1-9][0-9]{0,17})"
_INTS = rf"\[(?:{_INT}(?:,{_INT})*)?\]"
_PAYLOAD_FIELDS = {
    "cert": _INT, "k": _INT, "n": _INT, "set": _INTS,  # haight
    "op": _STR, "spec": _STR, "signs": _INTS, "m": _INT, "holds": "true|false",  # verdict
    "k0": _INT, "witnesses": _INTS, "sign_class": _INTS,
    "xi": _INT, "Xi": _STR,  # xi
}
_PRODUCER_FIELDS = {"version": _STR, "seed": _INT, "mode": _STR, "budget": _INT, "k": _INT}


def _object_pattern(fields: dict[str, str]) -> str:
    # each field at most once, in sorted key order; a comma only between fields.
    # An empty alternative, not "?": re runs it about 1.4x faster here.
    return r"\{" + "".join(
        rf'(?:"{key}":(?:{fields[key]})(?:,(?=")|(?=\}}))|)' for key in sorted(fields)
    ) + r"\}"


_CANONICAL_LINE = re.compile(
    rf'\{{"created_at":{_INT},"kind":({_STR}),"payload":({_object_pattern(_PAYLOAD_FIELDS)}),'
    rf'"producer":{_object_pattern(_PRODUCER_FIELDS)}\}}\n?'
)


def _parse_record(line: str) -> StoreRecord:
    """The record on a JSON line; ValueError, KeyError or TypeError if malformed,
    as is a field whose JSON type is not the one ``to_json_line`` writes."""
    obj = json.loads(line)
    return StoreRecord(
        kind=json_typed(obj["kind"], str, "kind"),
        payload=json_typed(obj["payload"], dict, "payload"),
        created_at=json_typed(obj["created_at"], int, "created_at"),
        producer=json_typed(obj.get("producer", {}), dict, "producer"),
    )


class ReverifyReport(Value):
    __slots__ = ("total", "ok", "failures", "malformed_lines")

    def __init__(
        self, total: int, ok: int, failures: list[tuple[int, str]], malformed_lines: int
    ) -> None:
        set_field(self, "total", total)
        set_field(self, "ok", ok)
        set_field(self, "failures", failures)
        set_field(self, "malformed_lines", malformed_lines)

    @property
    def clean(self) -> bool:
        return not self.failures and self.malformed_lines == 0


class WitnessStore:
    """Durable store backed by one records.jsonl file under ``directory``."""

    FILENAME = "records.jsonl"

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.path = self.directory / self.FILENAME
        self._lock = threading.Lock()
        self._entries: list[str] = []  # each record's line, in position order
        self._positions: dict[str, int] = {}
        self.malformed_lines = 0
        self._read = 0  # bytes of the file keyed so far
        self._lines_read = 0
        self._load()

    def _load(self) -> None:
        """Key the lines written to the file since this store last read it."""
        try:
            with self.path.open("rb") as fh:
                fh.seek(self._read)
                # a byte that is not UTF-8 becomes a lone surrogate, so it
                # spoils its own line only (see _add_lines)
                lines = fh.read().decode("utf-8", "surrogateescape").splitlines(keepends=True)
                self._read = fh.tell()
        except FileNotFoundError:
            return
        self._add_lines(lines)

    def _add_lines(self, lines: list[str]) -> None:
        """Key each line, in file order; a line whose key is known adds nothing."""
        first = self._lines_read + 1
        self._lines_read += len(lines)
        for lineno, line in enumerate(lines, first):
            m = _CANONICAL_LINE.fullmatch(line)
            if m is not None:
                key = m[1][1:-1] + "|" + m[2]
            elif not line.strip():
                continue
            else:
                try:
                    # UnicodeDecodeError, a ValueError, if a byte is not UTF-8
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                    record = _parse_record(line)
                    key = _dedup_key(record.kind, record.payload)
                except (ValueError, KeyError, TypeError) as exc:
                    # imported here: logging costs every process about 0.25 MB
                    import logging

                    logging.getLogger(__name__).warning(
                        "skipping malformed store line %d: %s", lineno, exc
                    )
                    self.malformed_lines += 1
                    continue
            if key in self._positions:
                continue
            self._positions[key] = len(self._entries)
            self._entries.append(line)

    def __len__(self) -> int:
        return len(self._entries)

    def append(self, record: StoreRecord) -> int:
        """Verify, canonicalize and append; returns the record's position.

        Appending a canonical duplicate is a no-op returning the existing
        position, regardless of producer metadata or timestamps.
        """
        payload = canonical_payload(record.kind, record.payload)
        canonical = StoreRecord(
            kind=record.kind,
            payload=payload,
            created_at=record.created_at,
            producer=record.producer,
        )
        key = _dedup_key(record.kind, payload)
        with self._lock:
            if key in self._positions:
                return self._positions[key]
            line = canonical.to_json_line() + "\n"
            flags = os.O_RDWR | os.O_APPEND | os.O_CREAT
            try:
                fd = os.open(self.path, flags, 0o666)
            except FileNotFoundError:  # the directory is made on first append
                self.directory.mkdir(parents=True, exist_ok=True)
                fd = os.open(self.path, flags, 0o666)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)  # released when fd closes
                size = os.fstat(fd).st_size
                if size > self._read:
                    # other stores appended since this one last read the file
                    self._load()
                    if key in self._positions:
                        return self._positions[key]
                data = line.encode("utf-8")
                if size and os.pread(fd, 1, size - 1) != b"\n":
                    data = b"\n" + data  # end the torn line so it cannot swallow this one
                os.write(fd, data)  # one write call per record
                self._read = size + len(data)
            finally:
                os.close(fd)
            self._positions[key] = len(self._entries)
            self._entries.append(line)
            return self._positions[key]

    def query(self, kind: str | None = None, **filters: Any) -> list[StoreRecord]:
        """Records matching kind and payload-field equality, in (kind, dedup key) order."""
        out = []
        for key, position in self._positions.items():
            record = _parse_record(self._entries[position])
            if kind is not None and record.kind != kind:
                continue
            if all(record.payload.get(k) == v for k, v in filters.items()):
                out.append((record.kind, key, record))
        out.sort(key=lambda t: (t[0], t[1]))
        return [record for _, _, record in out]

    def reverify_all(self) -> ReverifyReport:
        """Recompute every payload's verification; report corrupted records."""
        failures: list[tuple[int, str]] = []
        for position, line in enumerate(self._entries):
            record = _parse_record(line)
            try:
                recomputed = canonical_payload(record.kind, record.payload)
            except StoreVerificationError as exc:
                failures.append((position, str(exc)))
                continue
            if recomputed != record.payload:
                failures.append(
                    (position, f"stored payload is not canonical: {record.payload}")
                )
        return ReverifyReport(
            total=len(self._entries),
            ok=len(self._entries) - len(failures),
            failures=failures,
            malformed_lines=self.malformed_lines,
        )
