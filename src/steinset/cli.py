"""Command-line front end.

Exit status: 0 for success (a Fails verdict is a result, not an error),
1 for verification failures (invalid witnesses, store corruption, failed
independence checks) and refusals, 2 for usage or parse errors and for
files that cannot be read or written.  ``main`` is the one error boundary:
an error derived from ``values.SteinsetError`` carries its stderr
``prefix`` and its ``exit_status`` as class attributes; any other
ValueError or OSError prints ``error: ...`` and exits 2.

Set literals are ``"n:{a,b,c}"``, sequence specs
``"prefix=[...] cycle=[...]"``, thick family specs
``"sets=[{..},{..}] a_max=N"``, and sign vectors either compact ("+-+")
or comma separated ("+1,-1,+1").

The default store directory is ``./steinset-store``, overridable with
--store-dir or the STEINSET_STORE_DIR environment variable.

Each command handler imports the modules it uses, and the error boundary
imports nothing, so a process loads only what its command runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from . import __version__
from .values import SteinsetError

if TYPE_CHECKING:
    from .verdicts import Verdict

DEFAULT_STORE_DIR = "steinset-store"
STORE_DIR_ENV = "STEINSET_STORE_DIR"


def _timestamp(args) -> int | None:
    return 0 if args.no_timestamp else None


def _open_store(args):
    from .store import WitnessStore

    return WitnessStore(args.store_dir)


def parse_signs(text: str) -> tuple[int, ...]:
    """Sign vector from "+-+" or "+1,-1,+1" (or "1,-1")."""
    text = text.strip()
    if not text:
        raise ValueError("empty sign vector")
    if "," in text or text.lstrip("+-").startswith("1"):
        out = []
        for tok in text.split(","):
            tok = tok.strip()
            if tok in ("+1", "1"):
                out.append(1)
            elif tok == "-1":
                out.append(-1)
            else:
                raise ValueError(f"bad sign entry {tok!r}")
        return tuple(out)
    if set(text) <= {"+", "-"}:
        return tuple(1 if ch == "+" else -1 for ch in text)
    raise ValueError(f"bad sign vector {text!r}")


def emit(args, obj: dict, lines: list[str]) -> None:
    if args.output == "structured":
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    else:
        for line in lines:
            print(line)


def _verdict_lines(v: Verdict) -> list[str]:
    if v.holds:
        lines = [f"verdict: Holds (k0={v.k0})"]
        if v.sign_class is not None:
            lines.append(f"sign class: ({v.sign_class[0]},{v.sign_class[1]})")
        return lines
    return [f"verdict: Fails (cycle positions {','.join(map(str, v.witnesses))})"]


# ---------------------------------------------------------------- handlers


# set command -> (help, second operand, the sumsets function of (A, operand));
# the operand is a set literal (b), a sign vector (eps) or a fold count (k, m)
SET_COMMANDS = {
    "sumset": ("A + B", "b", "sumset"),
    "ksum": ("k-fold sumset kA", "k", "iterated_sumset"),
    "signed": ("signed product along a sign vector", "eps", "signed_product"),
    "pm": ("m-fold sumset of A u (-A)", "m", "pm_product"),
}


def cmd_set(args) -> int:
    from . import sumsets
    from .groups import CyclicSet

    _, name, function = SET_COMMANDS[args.op]
    a = CyclicSet.parse(args.a)
    operand = shown = getattr(args, name)
    if name == "b":
        operand = CyclicSet.parse(shown)
        shown = operand.to_literal()
    elif name == "eps":
        operand = parse_signs(shown)
        shown = list(operand)
    result = getattr(sumsets, function)(a, operand)
    obj = {
        "command": args.op,
        "a": a.to_literal(),
        name: shown,
        "modulus": result.modulus,
        "result": list(result.members()),
        "full": result.is_full(),
    }
    lines = [
        f"result: {result.to_literal()}",
        f"full: {'yes' if result.is_full() else 'no'}",
    ]
    emit(args, obj, lines)
    return 0


def cmd_verdict(args) -> int:
    from .verdicts import VERDICTS, SeqSpec

    op = args.op
    spec = SeqSpec.parse(args.spec)
    param = parse_signs(args.eps) if op == "eps" else args.m
    verdict = VERDICTS[op](spec, param)
    obj = {
        "command": f"verdict-{op}",
        "spec": spec.to_literal(),
        **({"eps": list(param)} if op == "eps" else {"m": param}),
        **verdict.to_json_obj(),
    }
    emit(args, obj, _verdict_lines(verdict))
    if args.store:
        from .store import make_verdict_record

        record = make_verdict_record(op, spec, param, verdict, producer=_producer(), created_at=_timestamp(args))
        _open_store(args).append(record)
    return 0


def cmd_example_c2n1(args) -> int:
    from .verdicts import example_family_c2n1, pm_verdict, sym_verdict

    n = args.n
    spec = example_family_c2n1(n)
    holds = sym_verdict(spec, n)
    fails = pm_verdict(spec, n - 1)
    obj = {
        "command": "example-c2n1",
        "n": n,
        "spec": spec.to_literal(),
        "sym_m": n,
        "sym": holds.to_json_obj(),
        "pm_m": n - 1,
        "pm": fails.to_json_obj(),
    }
    lines = [
        f"family: {spec.to_literal()}",
        f"sym verdict at m={n}: {holds.kind()}",
        f"pm verdict at m={n - 1}: {fails.kind()}",
    ]
    emit(args, obj, lines)
    return 0


def _producer(**extra) -> dict:
    # a new key also goes in store._PRODUCER_FIELDS
    return {"version": __version__, **extra}


def _emit_witness_records(args, witnesses, producer: dict, store: bool) -> None:
    from .store import make_haight_record

    records = [
        make_haight_record(w, producer=producer, created_at=_timestamp(args))
        for w in witnesses
    ]
    if store:
        st = _open_store(args)
        for record in records:
            st.append(record)
    if args.output == "structured":
        for record in records:
            print(record.to_json_line())
    else:
        for w in witnesses:
            print(f"witness k={w.k} n={w.modulus} set={w.subset.to_literal()} cert={w.certificate}")


def cmd_haight_search(args) -> int:
    from .haight import SearchConfig, exhaustive_search, stochastic_search

    lo, hi = _parse_range(args.n_range)
    search_cfg = SearchConfig(
        k=args.k,
        n_range=(lo, hi),
        mode=args.mode,
        budget=args.budget,
        seed=args.seed,
        max_set_size=args.max_set_size,
    )
    search = exhaustive_search if args.mode == "exhaustive" else stochastic_search
    witnesses = search(search_cfg)
    producer = _producer(
        mode=args.mode, budget=search_cfg.budget, k=args.k, seed=search_cfg.seed
    )
    _emit_witness_records(args, witnesses, producer, store=not args.no_store)
    summary = {"command": "haight-search", "k": args.k, "count": len(witnesses)}
    emit(args, summary, [f"found {len(witnesses)} witness class(es)"])
    return 0


def cmd_haight_verify(args) -> int:
    from .haight import HaightWitness, verify_witness
    from .verdicts import WitnessChainError, verify_haight_sequence

    with open(args.file, encoding="utf-8") as f:
        text = f.read()
    witnesses: list[HaightWitness] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            payload = obj["payload"] if "payload" in obj else obj
            witnesses.append(HaightWitness.from_json_obj(payload))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"line {lineno}: malformed witness: {exc}") from exc
    try:  # a valid k = 1..K chain is verified once, by the chain check
        report, failures = verify_haight_sequence(witnesses), []
    except WitnessChainError:  # empty, out of k order or a failing witness: check each
        report = None
        checks = map(verify_witness, witnesses)
        failures = [(i, reason) for i, (ok, reason) in enumerate(checks) if not ok]
    obj = {
        "command": "haight-verify",
        "total": len(witnesses),
        "valid": len(witnesses) - len(failures),
        "failures": [{"position": i, "reason": r} for i, r in failures],
    }
    lines = [f"checked {len(witnesses)} witness(es), {len(failures)} invalid"]
    lines += [f"  position {i}: {r}" for i, r in failures]
    if report is not None:
        obj["sequence"] = {
            "pm2_holds": report.pm2.holds,
            "pm2_class": list(report.pm2.sign_class) if report.pm2.sign_class else None,
            "tail_failures": {str(m): list(w) for m, w in report.tail_failures.items()},
            "ok": report.ok,
        }
        lines.append(
            f"chain k=1..{report.count}: pm verdict at 2 {report.pm2.kind()}"
            f" via {report.pm2.sign_class}, all-plus verdicts fail up to m={report.count}"
        )
    emit(args, obj, lines)
    return 1 if failures else 0


def cmd_haight_minimal(args) -> int:
    from .haight import minimal_modulus

    found = minimal_modulus(args.k, args.cap)
    if found is None:
        n, line = None, f"no witness for k={args.k} with modulus <= {args.cap}"
    else:
        n, witness = found
        line = f"minimal modulus for k={args.k}: n={n}"
        producer = _producer(mode="exhaustive", k=args.k)
        _emit_witness_records(args, [witness], producer, store=not args.no_store)
    emit(args, {"command": "haight-minimal", "k": args.k, "cap": args.cap, "n": n}, [line])
    return 0


def cmd_lemma1_xi(args) -> int:
    from .store import make_xi_record

    record = make_xi_record(args.m, producer=_producer(), created_at=_timestamp(args))
    p = record.payload
    emit(args, {"command": "lemma1-xi", **p}, [f"xi({p['m']}) = {p['xi']}", f"Xi({p['m']}) = {p['Xi']}"])
    if args.store:
        _open_store(args).append(record)
    return 0


def cmd_lemma1_intervals(args) -> int:
    from math import log10

    from .thick import ThickFamilySpec, thick_intervals

    spec = ThickFamilySpec.parse(args.spec)
    # blocks print in decimal: refuse, before building any, a tower 2^(2^a) with
    # more digits, floor(2^a * log10 2) + 1, than int-to-str converts
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    a = max(max(s) for s in spec.index_sets)
    if limit and int((1 << a) * log10(2)) + 1 > limit:
        raise ValueError(
            f"index {a}: 2^(2^{a}) has more than {limit} decimal digits, "
            "the most this interpreter converts"
        )
    blocks = thick_intervals(spec)
    obj = {
        "command": "lemma1-intervals",
        "spec": spec.to_literal(),
        "sets": [
            [{"a": b.index, "lo": str(b.lo), "hi": str(b.hi)} for b in chunk]
            for chunk in blocks
        ],
    }
    lines = []
    for i, chunk in enumerate(blocks):
        lines.append(f"set {i}:")
        lines += [f"  a={b.index}: [{b.lo}, {b.hi}]" for b in chunk]
    emit(args, obj, lines)
    return 0


def cmd_lemma1_independence(args) -> int:
    from .thick import DEFAULT_TUPLE_CAP, ThickFamilySpec, independence_check

    spec = ThickFamilySpec.parse(args.spec)
    cap = DEFAULT_TUPLE_CAP if args.tuple_cap is None else args.tuple_cap
    result = independence_check(spec, args.m, tuple_cap=cap)
    obj = {
        "command": "lemma1-independence",
        "spec": spec.to_literal(),
        "m": args.m,
        "passed": result.passed,
        "tuples_checked": result.tuples_checked,
    }
    lines = [
        f"independence check at m={args.m}: {'pass' if result.passed else 'FAIL'}",
        f"tuples checked: {result.tuples_checked}",
    ]
    if result.counterexample is not None:
        ce = result.counterexample
        obj["counterexample"] = {
            "set_indices": list(ce.set_indices),
            "points": [str(x) for x in ce.points],
            "coefficients": list(ce.coefficients),
        }
        lines.append(
            f"zero sum: sets {list(ce.set_indices)}, points {list(ce.points)},"
            f" coefficients {list(ce.coefficients)}"
        )
    emit(args, obj, lines)
    return 0 if result.passed else 1


def cmd_store_reverify(args) -> int:
    report = _open_store(args).reverify_all()
    obj = {
        "command": "store-reverify",
        "total": report.total,
        "ok": report.ok,
        "failures": [{"position": p, "reason": r} for p, r in report.failures],
        "malformed_lines": report.malformed_lines,
    }
    lines = [
        f"records: {report.total}, verified: {report.ok},"
        f" failures: {len(report.failures)}, malformed lines: {report.malformed_lines}"
    ]
    lines += [f"  position {p}: {r}" for p, r in report.failures]
    emit(args, obj, lines)
    return 0 if report.clean else 1


# ---------------------------------------------------------------- parser


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo_s, hi_s = text.split("..")
        return int(lo_s), int(hi_s)
    except ValueError as exc:
        raise ValueError(f"bad modulus range {text!r}, expected LO..HI") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinset",
        description="Sumsets, eventual-fullness verdicts, witness search and thick-set checks over cyclic groups.",
    )
    parser.add_argument("--version", action="version", version=f"steinset {__version__}")
    parser.add_argument(
        "--store-dir",
        default=os.environ.get(STORE_DIR_ENV, DEFAULT_STORE_DIR),
        help=f"result store directory (default: ${STORE_DIR_ENV} or ./{DEFAULT_STORE_DIR})",
    )
    parser.add_argument("--output", choices=("table", "structured"), default="table")
    parser.add_argument(
        "--no-timestamp", action="store_true", help="record created_at=0 (reproducible output)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (help_text, operand, _) in SET_COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("a")
        p.add_argument(operand, type=int if operand in ("k", "m") else None)
        p.set_defaults(func=cmd_set, op=command)

    for op, help_text in (
        ("eps", "eventual fullness along a sign vector"),
        ("pm", "eventual fullness of some sign-count class"),
        ("sym", "eventual fullness of the m-fold sumset (symmetric entries)"),
    ):
        p = sub.add_parser(f"verdict-{op}", help=help_text)
        p.add_argument("spec")
        if op == "eps":
            p.add_argument("eps")
        else:
            p.add_argument("m", type=int)
        p.add_argument("--store", action="store_true")
        p.set_defaults(func=cmd_verdict, op=op)

    p = sub.add_parser("example-c2n1", help="the {-1,0,1} mod 2n+1 family and its two verdicts")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_example_c2n1)

    haight = sub.add_parser("haight", help="witness search and verification")
    hsub = haight.add_subparsers(dest="haight_command", required=True)

    p = hsub.add_parser("search", help="search an inclusive modulus range")
    p.add_argument("k", type=int)
    p.add_argument("--n-range", required=True, help="inclusive range LO..HI")
    p.add_argument("--mode", choices=("exhaustive", "stochastic"), default="exhaustive")
    p.add_argument(
        "--budget", type=int, default=100_000,
        help="stochastic mode only: child evaluations per modulus; a budget "
        ">= 2^(n-1) gives the exhaustive result",
    )
    p.add_argument("--seed", type=int, default=0, help="stochastic mode only: seed of the coin draws")
    p.add_argument("--max-set-size", type=int, default=None)
    p.add_argument("--no-store", action="store_true")
    p.set_defaults(func=cmd_haight_search)

    p = hsub.add_parser("verify", help="verify witnesses from a JSON-lines file")
    p.add_argument("file")
    p.set_defaults(func=cmd_haight_verify)

    p = hsub.add_parser("minimal", help="least modulus admitting a witness")
    p.add_argument("k", type=int)
    p.add_argument("--cap", type=int, required=True)
    p.add_argument("--no-store", action="store_true")
    p.set_defaults(func=cmd_haight_minimal)

    lemma = sub.add_parser("lemma1", help="thick-set thresholds and checks")
    lsub = lemma.add_subparsers(dest="lemma1_command", required=True)

    p = lsub.add_parser("xi", help="threshold pair (xi, Xi) for a coefficient bound")
    p.add_argument("m", type=int)
    p.add_argument("--store", action="store_true")
    p.set_defaults(func=cmd_lemma1_xi)

    p = lsub.add_parser("intervals", help="expand a family spec into exact blocks")
    p.add_argument("spec")
    p.set_defaults(func=cmd_lemma1_intervals)

    p = lsub.add_parser("independence", help="exhaustive non-vanishing combination check")
    p.add_argument("spec")
    p.add_argument("m", type=int)
    p.add_argument("--tuple-cap", type=int, default=None)  # None: thick.DEFAULT_TUPLE_CAP
    p.set_defaults(func=cmd_lemma1_independence)

    storep = sub.add_parser("store", help="result store maintenance")
    ssub = storep.add_subparsers(dest="store_command", required=True)
    p = ssub.add_parser("reverify", help="recompute every stored record's verification")
    p.set_defaults(func=cmd_store_reverify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SteinsetError, ValueError, OSError) as exc:
        prefix, status = (exc.prefix, exc.exit_status) if isinstance(exc, SteinsetError) else ("error", 2)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return status


if __name__ == "__main__":
    sys.exit(main())
