"""Append-only JSON-lines cache of verified results.

One record per line: {"kind", "payload", "created_at", "producer"}.  Kinds:

* ``haight``: a witness {"k", "n", "set", "cert"}; the set is stored in
  affine canonical form with a recomputed certificate, and verification of
  both witness conditions gates every append.
* ``verdict``: {"op", "spec", ...params, "holds", "k0"/"witnesses", ...};
  the verdict is recomputed from the spec literal and must agree.
* ``xi``: {"m", "xi", "Xi"} with Xi as a decimal string; recomputed on append.

Duplicates are keyed on (kind, canonical payload) and never re-appended;
the producer fingerprint and timestamp do not participate in identity.
Writes are serialized through one lock (single writer, many readers).
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

from .haight import HaightWitness, verify_witness
from .sumsets import iterated_sumset
from .thick import xi_sequence
from .verdicts import SeqSpec, Verdict, eps_verdict, pm_verdict, sym_verdict


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


def make_haight_record(
    witness: HaightWitness, producer: dict | None = None, created_at: int | None = None
) -> StoreRecord:
    return StoreRecord(
        kind="haight",
        payload=witness.to_json_obj(),
        created_at=int(time.time()) if created_at is None else created_at,
        producer=producer or {},
    )


def make_verdict_record(
    op: str,
    spec: SeqSpec,
    param: Any,
    verdict: Verdict,
    producer: dict | None = None,
    created_at: int | None = None,
) -> StoreRecord:
    payload = {"op": op, "spec": spec.to_literal(), "holds": verdict.holds}
    if op == "eps":
        payload["signs"] = list(param)
    else:
        payload["m"] = int(param)
    if verdict.holds:
        payload["k0"] = verdict.k0
        if verdict.sign_class is not None:
            payload["sign_class"] = list(verdict.sign_class)
    else:
        payload["witnesses"] = list(verdict.witnesses)
    return StoreRecord(
        kind="verdict",
        payload=payload,
        created_at=int(time.time()) if created_at is None else created_at,
        producer=producer or {},
    )


def make_xi_record(
    m: int, producer: dict | None = None, created_at: int | None = None
) -> StoreRecord:
    xi, big_xi = xi_sequence(m)
    return StoreRecord(
        kind="xi",
        payload={"m": m, "xi": xi, "Xi": str(big_xi)},
        created_at=int(time.time()) if created_at is None else created_at,
        producer=producer or {},
    )


def _canonical_haight_payload(payload: dict) -> dict:
    witness = HaightWitness.from_json_obj(payload)
    ok, reason = verify_witness(witness)
    if not ok:
        raise StoreVerificationError(f"haight payload rejected: {reason}")
    canon = witness.subset.canonical_form()
    cert = iterated_sumset(canon, witness.k).deficiency()[0]
    return HaightWitness(k=witness.k, subset=canon, certificate=cert).to_json_obj()


def _recompute_verdict(payload: dict) -> Verdict:
    spec = SeqSpec.parse(payload["spec"])
    op = payload.get("op")
    if op == "eps":
        return eps_verdict(spec, tuple(payload["signs"]))
    if op == "pm":
        return pm_verdict(spec, int(payload["m"]))
    if op == "sym":
        return sym_verdict(spec, int(payload["m"]))
    raise StoreVerificationError(f"unknown verdict op {op!r}")


def _canonical_verdict_payload(payload: dict) -> dict:
    try:
        verdict = _recompute_verdict(payload)
    except StoreVerificationError:
        raise
    except (KeyError, ValueError) as exc:
        raise StoreVerificationError(f"verdict payload rejected: {exc}") from exc
    if "holds" in payload and bool(payload["holds"]) != verdict.holds:
        raise StoreVerificationError(
            f"stored verdict claims holds={payload['holds']} but recomputation says {verdict.holds}"
        )
    spec = SeqSpec.parse(payload["spec"])
    canon: dict[str, Any] = {"op": payload["op"], "spec": spec.to_literal(), "holds": verdict.holds}
    if payload["op"] == "eps":
        canon["signs"] = [int(s) for s in payload["signs"]]
    else:
        canon["m"] = int(payload["m"])
    if verdict.holds:
        canon["k0"] = verdict.k0
        if verdict.sign_class is not None:
            canon["sign_class"] = list(verdict.sign_class)
    else:
        canon["witnesses"] = list(verdict.witnesses)
    return canon


def _canonical_xi_payload(payload: dict) -> dict:
    try:
        m = int(payload["m"])
    except (KeyError, ValueError) as exc:
        raise StoreVerificationError(f"xi payload rejected: {exc}") from exc
    xi, big_xi = xi_sequence(m)
    if "xi" in payload and int(payload["xi"]) != xi:
        raise StoreVerificationError(f"xi mismatch for m={m}: stored {payload['xi']}, computed {xi}")
    if "Xi" in payload and str(payload["Xi"]) != str(big_xi):
        raise StoreVerificationError(f"Xi mismatch for m={m}")
    return {"m": m, "xi": xi, "Xi": str(big_xi)}


_CANONICALIZERS = {
    "haight": _canonical_haight_payload,
    "verdict": _canonical_verdict_payload,
    "xi": _canonical_xi_payload,
}


def canonical_payload(kind: str, payload: dict) -> dict:
    if kind not in _CANONICALIZERS:
        raise StoreVerificationError(f"unknown record kind {kind!r}")
    return _CANONICALIZERS[kind](payload)


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
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        for lineno, line in enumerate(self.path.read_text(encoding="utf-8").splitlines(), 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
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
            self.directory.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(canonical.to_json_line() + "\n")
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
