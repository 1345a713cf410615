"""Span recorder for the traced run, and the per-layer metrics derived from it.

``Tracer.install()`` wraps the public functions and methods of each
``steinset`` module from outside: the package under ``src/`` is never edited.
A module function is rebound in every ``steinset`` namespace that holds it
(``haight.iterated_sumset``, ``verdicts.signed_product_counts``, ...), so a
call is attributed both to the layer that does the work (the span name) and
to the layer that made it (a ``caller->span`` count).

Each span records its name, start, end, parent span and pass id; spans stay in
memory (compact arrays) and ``write_spans`` writes them out once the run ends.
Only the latest traced pass's spans are kept: one pass of ``search`` makes
about a million.
A span's self time is its duration minus the time its child spans cover.

Hot primitives (``rotate_mask``, ``units``, ``CyclicSet.members`` and the
other accessors) are not wrapped: their cost belongs to the caller's self
time, and a span on each would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("groups", "sumsets", "verdicts", "haight", "thick", "store", "cli")

# module -> {function: span suffix}.  The cli layer's span is ``main``: its
# self time is argument parsing, formatting and everything no layer covers.
FUNCTIONS = {
    "sumsets": {
        "sumset_shift_or": "shift_or", "sumset_convolution": "convolution",
        "sumset": "sumset", "iterated_sumset": "iterated_sumset",
        "signed_product": "signed_product", "signed_product_counts": "signed_product_counts",
        "pm_product": "pm_product", "sign_count_classes": "sign_count_classes",
    },
    "verdicts": {
        name: name for name in ("eps_verdict", "pm_verdict", "sym_verdict",
                                "example_family_c2n1", "verify_haight_sequence")
    },
    "haight": {
        name: name for name in ("verify_witness", "exhaustive_search",
                                "minimal_modulus", "stochastic_search")
    },
    "thick": {
        name: name for name in ("power_tower", "xi_sequence", "tail_certificate_holds",
                                "thick_intervals", "contains_run", "independence_check")
    },
    "store": {
        name: name for name in ("make_haight_record", "make_verdict_record",
                                "make_xi_record", "canonical_payload")
    },
    "cli": {"main": "main"},
}
# (module, class) -> {method: span suffix}
METHODS = {
    ("groups", "CyclicSet"): {
        name: name for name in ("negate", "affine_apply", "symmetry_center",
                                "canonical_form", "translate", "union")
    },
    ("store", "WitnessStore"): {
        "_load": "load", "append": "append", "query": "query", "reverify_all": "reverify_all",
    },
}

# name, unit, better, the end-to-end metric and workload(s) it should move
PER_LAYER = (
    ("groups.canonical_form.calls", "count", "lower", "solve_s on search; op_p90_ms on session"),
    ("groups.canonical_form.self_s", "s", "lower", "solve_s on search; op_p90_ms on session"),
    ("groups.negate.calls", "count", "lower", "solve_s on algebra"),
    ("groups.negate.self_s", "s", "lower", "solve_s on algebra"),
    ("groups.symmetry_center.self_s", "s", "lower", "solve_s on algebra"),
    ("groups.cyclicset.created", "count", "lower", "solve_s on search"),
    ("sumsets.shift_or.calls", "count", "lower", "solve_s on algebra and search"),
    ("sumsets.shift_or.self_s", "s", "lower", "solve_s on algebra"),
    ("sumsets.convolution.calls", "count", "lower", "solve_s on algebra"),
    ("sumsets.convolution.self_s", "s", "lower", "solve_s on algebra"),
    ("sumsets.convolution.share", "frac", "lower", "solve_s on algebra"),
    ("sumsets.bytes_computed", "B", "lower", "solve_s on algebra"),
    ("sumsets.iterated_sumset.calls", "count", "lower", "solve_s on algebra and search"),
    ("sumsets.iterated_sumset.self_s", "s", "lower", "solve_s on algebra and search"),
    ("verdicts.eps_verdict.self_s", "s", "lower", "solve_s on algebra"),
    ("verdicts.pm_verdict.self_s", "s", "lower", "solve_s on algebra"),
    ("verdicts.sym_verdict.self_s", "s", "lower", "solve_s on algebra"),
    ("verdicts.product.calls", "count", "lower", "solve_s on algebra"),
    ("verdicts.verify_haight_sequence.self_s", "s", "lower", "solve_s on search"),
    ("haight.exhaustive_search.self_s", "s", "lower", "solve_s on search"),
    ("haight.stochastic_search.self_s", "s", "lower", "solve_s on search"),
    ("haight.candidates", "count", "lower", "solve_s on search"),
    ("haight.classes", "count", "higher", "solve_s on search"),
    ("haight.yield", "frac", "higher", "solve_s on search"),
    ("haight.verify_witness.calls", "count", "lower", "solve_s on search; op_p90_ms on session"),
    ("haight.verify_witness.self_s", "s", "lower", "solve_s on search; op_p90_ms on session"),
    ("thick.independence_check.self_s", "s", "lower", "solve_s on algebra"),
    ("thick.tuples_covered", "count", "higher", "solve_s on algebra"),
    ("thick.tuples_per_s", "1/s", "higher", "solve_s on algebra"),
    ("store.load.calls", "count", "lower", "op_p50_ms on session"),
    ("store.load.self_s", "s", "lower", "op_p50_ms on session"),
    ("store.append.calls", "count", "lower", "op_p90_ms on session"),
    ("store.append.self_s", "s", "lower", "op_p90_ms on session"),
    ("store.append.dup_hits", "count", "lower", "op_p90_ms on session"),
    ("store.dup_ratio", "frac", "lower", "op_p90_ms on session"),
    ("store.reverify_all.self_s", "s", "lower", "op_p90_ms on session"),
    ("store.file_bytes", "B", "lower", "session"),
    ("store.malformed_lines", "count", "lower", "session"),
    ("cli.process_start_ms", "ms", "lower", "op_p50_ms on session"),
    ("cli.import_ms", "ms", "lower", "op_p50_ms on session"),
    ("cli.main.self_s", "s", "lower", "op_p50_ms on session"),
    ("cli.commands", "count", "higher", "fail_frac on session"),
    ("cli.failed", "count", "lower", "fail_frac on session"),
    ("trace.overhead_frac", "frac", "lower", "every workload: traced against untraced solve_s"),
)
UNITS = {name: unit for name, unit, _, _ in PER_LAYER}
# the sumsets calls that compute a product set
PRODUCTS = tuple(f"sumsets.{f}" for f in ("sumset", "iterated_sumset", "signed_product",
                                           "signed_product_counts", "pm_product"))


def _lib(module: str):
    return importlib.import_module(f"steinset.{module}" if module else "steinset")


class Tracer:
    """Spans and counts of traced passes; install() wraps, uninstall() restores."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per span, in start order
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_pass = array("i")
        self.pass_id = 0
        self._stack: list[list] = []  # [span index, time covered by children]
        # per-pass aggregates, indexed by name id; reset by begin_pass()
        self._calls: list[int] = []
        self._self: list[float] = []
        self._incl: list[float] = []
        self.counts: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._calls.append(0)
            self._self.append(0.0)
            self._incl.append(0.0)
        return self._ids[name]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # ------------------------------------------------------------ wrappers

    def _wrap(self, fn, name: str, caller: str | None = None, pre=None, post=None):
        nid = self._id(name)
        stack = self._stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, passes = self.span_parent, self.span_pass
        calls, self_t, incl = self._calls, self._self, self._incl
        caller_key = f"{caller}->{name}" if caller else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(starts)
            frame = [idx, 0.0]
            names.append(nid)
            parents.append(parent[0] if parent is not None else -1)
            passes.append(self.pass_id)
            before = pre(args) if pre is not None else None
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            ends.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ends[idx] = t1
                d = t1 - t0
                calls[nid] += 1
                incl[nid] += d
                self_t[nid] += d - frame[1]
                if parent is not None:
                    parent[1] += d
                if caller_key is not None:
                    self.count(caller_key)
            if post is not None:
                post(args, result, parent, before)
            return result

        return wrapper

    def _hooks(self, name: str, caller: str | None):
        """Counts taken at a boundary beyond calls and time: (pre, post)."""
        if name in ("haight.exhaustive_search", "haight.stochastic_search"):
            return None, lambda a, r, p, b: self.count("haight.classes", len(r))
        if name in ("sumsets.shift_or", "sumsets.convolution"):
            return None, lambda a, r, p, b: self.count("sumsets.bytes_computed", _kernel_bytes(name, *a))
        if name == "thick.independence_check":
            return None, lambda a, r, p, b: self.count("thick.tuples_covered", r.tuples_checked)
        if name == "store.reverify_all":
            return None, lambda a, r, p, b: self.count("store.malformed_lines", r.malformed_lines)
        if name == "store.append":
            def dup(a, r, p, before):
                if len(a[0]) == before:
                    self.count("store.append.dup_hits")
            return (lambda a: len(a[0])), dup
        if name == "sumsets.signed_product_counts" and caller == "haight":
            verify = self._id("haight.verify_witness")

            def candidate(a, r, parent, b):
                # a difference check (A - A) issued by the search, not by verification
                if a[1:3] == (1, 1) and (parent is None or self.span_name[parent[0]] != verify):
                    self.count("haight.candidates")
            return None, candidate
        return None, None

    def install(self) -> None:
        """Wrap every listed function in every namespace holding it, and the listed methods."""
        if self._restore:
            return
        modules = {m: _lib(m) for m in LAYERS}
        namespaces = {"": _lib("")} | modules
        for module, funcs in FUNCTIONS.items():
            for attr, suffix in funcs.items():
                orig = getattr(modules[module], attr, None)
                if orig is None:
                    continue
                name = f"{module}.{suffix}"
                for ns_name, ns in namespaces.items():
                    if ns.__dict__.get(attr) is not orig:
                        continue
                    caller = ns_name if ns_name not in ("", module) else None
                    pre, post = self._hooks(name, caller)
                    self._restore.append((ns, attr, orig))
                    setattr(ns, attr, self._wrap(orig, name, caller, pre, post))
        for (module, cls_name), methods in METHODS.items():
            cls = getattr(modules[module], cls_name)
            for attr, suffix in methods.items():
                orig = cls.__dict__.get(attr)
                if orig is None:
                    continue
                name = f"{module}.{suffix}"
                pre, post = self._hooks(name, None)
                self._restore.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(orig, name, None, pre, post))
        cyclic = modules["groups"].CyclicSet
        post_init = cyclic.__dict__["__post_init__"]

        def created(obj):
            self.count("groups.cyclicset.created")
            post_init(obj)

        self._restore.append((cyclic, "__post_init__", post_init))
        cyclic.__post_init__ = created

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------------------ passes

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        for arr in (self.span_name, self.span_start, self.span_end,
                    self.span_parent, self.span_pass):
            del arr[:]
        for i in range(len(self.names)):
            self._calls[i] = 0
            self._self[i] = 0.0
            self._incl[i] = 0.0
        self.counts = {}

    def end_pass(self) -> dict:
        """This pass's aggregates: {span: (calls, self_s, inclusive_s)} and counts."""
        spans = {
            name: (self._calls[i], self._self[i], self._incl[i])
            for i, name in enumerate(self.names)
        }
        return {"spans": spans, "counts": dict(self.counts)}

    def write_spans(self, path: Path) -> None:
        """One JSON header line, then the span arrays as raw machine values."""
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "arrays": [["name", "i"], ["start", "d"], ["end", "d"], ["parent", "i"], ["pass", "i"]],
            "itemsize": {"i": array("i").itemsize, "d": array("d").itemsize},
            "byteorder": sys.byteorder,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_start, self.span_end,
                        self.span_parent, self.span_pass):
                arr.tofile(fh)


def _kernel_bytes(name: str, a, b) -> int:
    """Bytes a kernel call computes over, from operand sizes (not measured).

    shift-or: one n-bit rotation per member of the smaller operand;
    convolution: two 3-byte-per-residue packed operands and their 6n-byte product.
    """
    n = a.modulus
    if name == "sumsets.shift_or":
        return min(a.cardinality, b.cardinality) * ((n + 7) // 8)
    return 12 * n


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(passes: list[dict], traced_solve: list[float],
                  untraced_solve: list[float], probes: dict) -> dict[str, float]:
    """Every PER_LAYER metric: the median over traced passes of each per-pass value."""

    def per_pass(fn):
        return _median([fn(p["spans"], p["counts"]) for p in passes])

    def calls(name):
        return lambda s, c: s.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return lambda s, c: s.get(name, (0, 0.0, 0.0))[1]

    def incl_s(name):
        return lambda s, c: s.get(name, (0, 0.0, 0.0))[2]

    def count(key):
        return lambda s, c: c.get(key, 0)

    def ratio(num, den):
        return lambda s, c: (num(s, c) / den(s, c)) if den(s, c) else 0.0

    def from_caller(caller, spans):
        keys = [f"{caller}->{span}" for span in spans]
        return lambda s, c: sum(c.get(k, 0) for k in keys)

    kernels = lambda s, c: calls("sumsets.shift_or")(s, c) + calls("sumsets.convolution")(s, c)
    appends = calls("store.append")
    out = {}
    for name, _, _, _ in PER_LAYER:
        layer, _, rest = name.partition(".")
        if rest.endswith(".calls") and rest != "product.calls":
            fn = calls(f"{layer}.{rest[:-6]}")
        elif rest.endswith(".self_s"):
            fn = self_s(f"{layer}.{rest[:-7]}")
        else:
            fn = {
                "sumsets.convolution.share": ratio(calls("sumsets.convolution"), kernels),
                "verdicts.product.calls": from_caller("verdicts", PRODUCTS),
                "haight.yield": ratio(count("haight.classes"), count("haight.candidates")),
                "thick.tuples_per_s": ratio(count("thick.tuples_covered"),
                                            incl_s("thick.independence_check")),
                "store.dup_ratio": ratio(count("store.append.dup_hits"), appends),
            }.get(name, count(name))
        if name in probes:
            out[name] = probes[name]
        elif name == "trace.overhead_frac":
            base = _median(untraced_solve)
            out[name] = _median(traced_solve) / base - 1.0 if base else 0.0
        else:
            out[name] = per_pass(fn)
    return out
