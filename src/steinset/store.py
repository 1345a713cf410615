"""Append-only JSON-lines cache of verified results.

One record per line: {"kind", "payload", "created_at", "producer"}.  Kinds:

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
Writes are serialized through one lock (single writer, many readers).  Each
record is one write call, preceded by a newline if a crash left the last
line unterminated, so a torn line stays one malformed line.
Sets are serialized as sorted residue arrays and big integers as decimal
strings, so records are byte-stable.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .haight import HaightWitness, canonical_witness, verify_witness
from .thick import xi_sequence
from .verdicts import VERDICTS, SeqSpec, Verdict


class StoreVerificationError(ValueError):
    """Payload failed its verification gate."""


@dataclass(frozen=True)
class StoreRecord:
    kind: str
    payload: dict
    created_at: int
    producer: dict = field(default_factory=dict)

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
    witness = HaightWitness.from_json_obj(payload)
    ok, reason = verify_witness(witness)
    if not ok:
        raise StoreVerificationError(f"haight payload rejected: {reason}")
    return canonical_witness(witness.k, witness.subset.canonical_form()).to_json_obj()


def _canonical_verdict_payload(payload: dict) -> dict:
    op = payload.get("op")
    if op not in VERDICTS:
        raise StoreVerificationError(f"unknown verdict op {op!r}")
    spec = SeqSpec.parse(payload["spec"])
    param = tuple(payload["signs"]) if op == "eps" else int(payload["m"])
    verdict = VERDICTS[op](spec, param)
    if "holds" in payload and bool(payload["holds"]) != verdict.holds:
        raise StoreVerificationError(
            f"stored verdict claims holds={payload['holds']} but recomputation says {verdict.holds}"
        )
    return _verdict_payload(op, spec, param, verdict)


def _canonical_xi_payload(payload: dict) -> dict:
    m = int(payload["m"])
    canon = _xi_payload(m)
    if "xi" in payload and int(payload["xi"]) != canon["xi"]:
        raise StoreVerificationError(f"xi mismatch for m={m}: stored {payload['xi']}, computed {canon['xi']}")
    if "Xi" in payload and str(payload["Xi"]) != canon["Xi"]:
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


@dataclass
class ReverifyReport:
    total: int
    ok: int
    failures: list[tuple[int, str]]
    malformed_lines: int

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
        self._records: list[StoreRecord] = []
        self._positions: dict[str, int] = {}
        self.malformed_lines = 0
        self._torn_tail = False
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        lines = self.path.read_text(encoding="utf-8").splitlines(keepends=True)
        # an interrupted append can leave the last line without its newline
        self._torn_tail = bool(lines) and not lines[-1].endswith("\n")
        for lineno, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj["payload"], dict):
                    raise TypeError("payload is not an object")
                record = StoreRecord(
                    kind=obj["kind"],
                    payload=obj["payload"],
                    created_at=int(obj["created_at"]),
                    producer=obj.get("producer", {}),
                )
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
            self._positions[key] = len(self._records)
            self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

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
            position = len(self._records)
            line = canonical.to_json_line() + "\n"
            if self._torn_tail:
                line = "\n" + line  # end the torn line so it cannot swallow this one
            self.directory.mkdir(parents=True, exist_ok=True)
            with self.path.open("ab", buffering=0) as fh:
                fh.write(line.encode("utf-8"))  # unbuffered: one write call per record
            self._torn_tail = False
            self._records.append(canonical)
            self._positions[key] = position
            return position

    def query(self, kind: str | None = None, **filters: Any) -> list[StoreRecord]:
        """Records matching kind and payload-field equality, in canonical order."""
        out = []
        for record in self._records:
            if kind is not None and record.kind != kind:
                continue
            if all(record.payload.get(k) == v for k, v in filters.items()):
                out.append(record)
        out.sort(key=lambda r: (r.kind, _dedup_key(r.kind, r.payload)))
        return out

    def reverify_all(self) -> ReverifyReport:
        """Recompute every payload's verification; report corrupted records."""
        failures: list[tuple[int, str]] = []
        for position, record in enumerate(self._records):
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
            total=len(self._records),
            ok=len(self._records) - len(failures),
            failures=failures,
            malformed_lines=self.malformed_lines,
        )
