"""The package surface: lazy exports, per-command imports and the value classes."""

import copy
import inspect
import json
import os
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import steinset
from steinset.groups import AffineMap, CyclicSet
from steinset.haight import HaightWitness, SearchConfig
from steinset.store import ReverifyReport, StoreRecord, canonical_payload
from steinset.thick import BigInterval, IndependenceResult, ThickFamilySpec, independence_check
from steinset.values import SteinsetError
from steinset.verdicts import (
    HaightSequenceReport,
    SeqSpec,
    Verdict,
    sym_verdict,
    verify_haight_sequence,
)

SRC = Path(steinset.__file__).resolve().parent.parent


def test_star_import_and_named_imports_resolve_every_export():
    namespace: dict = {}
    exec("from steinset import *", namespace)
    for name in steinset.__all__:
        module = sys.modules[f"steinset.{steinset._EXPORTS[name]}"]
        assert namespace[name] is getattr(module, name)
    from steinset import WitnessStore, sumset

    assert sumset is sys.modules["steinset.sumsets"].sumset
    assert WitnessStore is sys.modules["steinset.store"].WitnessStore
    with pytest.raises(AttributeError):
        steinset.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from steinset import no_such_name", {})


# Run in a fresh interpreter: the modules a command adds to sys.modules.
_PROBE = """
import json, sys
before = set(sys.modules)
from steinset.cli import main
code = main(sys.argv[1:])
added = sorted(m for m in set(sys.modules) - before
               if m.startswith("steinset") or m == "dataclasses")
print(json.dumps({"code": code, "added": added}))
"""

_ALWAYS = {"steinset", "steinset.cli", "steinset.values"}


@pytest.mark.parametrize(
    "argv,modules,code",
    [
        (["sumset", "7:{0,1,3}", "7:{0,2}"], {"groups", "sumsets"}, 0),
        (["verdict-pm", "cycle=[7:{0,1,3}]", "2", "--store"],
         {"groups", "sumsets", "verdicts", "store"}, 0),
        (["lemma1", "xi", "3", "--store"], {"thick", "store"}, 0),
        (["haight", "search", "2", "--n-range", "5..8"],
         {"groups", "sumsets", "haight", "store"}, 0),
        # a usage error: main's error boundary imports no error class, so
        # none of store, thick or verdicts
        (["sumset", "7:{0,1,3}", "nonsense"], {"groups", "sumsets"}, 2),
    ],
    ids=["sumset", "verdict-pm-store", "lemma1-xi-store", "haight-search", "sumset-usage-error"],
)
def test_each_command_imports_only_what_it_runs(tmp_path, argv, modules, code):
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, "--output", "structured", "--store-dir", str(tmp_path), *argv],
        capture_output=True, text=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == code
    assert set(result["added"]) == _ALWAYS | {f"steinset.{m}" for m in modules}
    assert "dataclasses" not in result["added"]


@pytest.mark.parametrize(
    "module,name,base,prefix,trigger",
    [
        ("store", "StoreVerificationError", ValueError, "verification failure",
         lambda: canonical_payload("no-such-kind", {})),
        ("verdicts", "NotSymmetricError", ValueError, "verification failure",
         lambda: sym_verdict(SeqSpec.parse("cycle=[7:{0,1,3}]"), 2)),
        ("verdicts", "WitnessChainError", ValueError, "verification failure",
         lambda: verify_haight_sequence([HaightWitness(2, CyclicSet(7, 0b1011), 5)])),
        ("thick", "BudgetExceededError", RuntimeError, "refused",
         lambda: independence_check(ThickFamilySpec.parse("sets=[{1,4},{2},{3}] a_max=4"), 3, 10)),
    ],
    ids=["StoreVerificationError", "NotSymmetricError", "WitnessChainError", "BudgetExceededError"],
)
def test_error_classes_keep_module_name_and_builtin_base(module, name, base, prefix, trigger):
    cls = getattr(sys.modules[f"steinset.{module}"], name)
    assert (cls.__module__, cls.__name__) == (f"steinset.{module}", name)
    assert getattr(steinset, name) is cls
    with pytest.raises(base) as info:
        trigger()
    assert type(info.value) is cls and isinstance(info.value, SteinsetError)
    assert (cls.prefix, cls.exit_status) == (prefix, 1)


VALUES = [
    AffineMap(3, 2, 7),
    CyclicSet(7, 0b1011),
    HaightWitness(2, CyclicSet(7, 0b1011), 5),
    SearchConfig(k=2, n_range=(5, 9)),
    StoreRecord("xi", {"m": 2}, 0),
    ReverifyReport(1, 1, [], 0),
    SeqSpec((), (CyclicSet(7, 0b1011),)),
    Verdict(True, k0=0),
    HaightSequenceReport(1, True, Verdict(True, k0=0)),
    BigInterval(14, 18, 2),
    ThickFamilySpec((frozenset({1}),), 3),
    IndependenceResult(True, 10),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_value_classes_are_immutable_with_fieldwise_identity_and_pickle(value):
    cls = type(value)
    fields = cls._fields
    field = fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    twin = cls(*(getattr(value, f) for f in fields))
    assert twin == value and not twin != value
    assert value != tuple(getattr(value, f) for f in fields)
    assert repr(value) == f"{cls.__name__}(" + ", ".join(
        f"{f}={getattr(value, f)!r}" for f in fields
    ) + ")"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(value, protocol)) == value
    assert copy.copy(value) == value and copy.deepcopy(value) == value
    try:
        key = hash(tuple(getattr(value, f) for f in fields))
    except TypeError:  # a dict or list field: unhashable, as the value
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == key


def test_value_class_signatures_and_defaults():
    def params(cls):
        return [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]

    empty = inspect.Parameter.empty
    assert params(CyclicSet) == [("modulus", empty), ("mask", empty)]
    assert params(SearchConfig) == [
        ("k", empty), ("n_range", empty), ("mode", "exhaustive"), ("budget", 100_000),
        ("seed", 0), ("max_set_size", None),
    ]
    assert params(Verdict) == [
        ("holds", empty), ("k0", None), ("witnesses", ()), ("sign_class", None),
    ]
    assert StoreRecord("xi", {}, 0).producer == {}
    assert StoreRecord("xi", {}, 0).producer is not StoreRecord("xi", {}, 0).producer
    assert HaightSequenceReport(1, True, Verdict(True)).tail_failures == {}


def test_sets_and_witnesses_support_weak_references():
    a = CyclicSet(7, 0b1011)
    w = HaightWitness(2, a, 5)
    assert weakref.ref(a)() is a and weakref.ref(w)() is w


def test_cyclic_set_validation_hook_is_a_patchable_class_attribute(monkeypatch):
    created = []
    original = CyclicSet.__dict__["__post_init__"]
    monkeypatch.setattr(CyclicSet, "__post_init__", lambda s: created.append(s) or original(s))
    a = CyclicSet.from_members(7, [0, 1, 3])
    assert created == [a]
    with pytest.raises(ValueError):
        CyclicSet(3, 1 << 3)


def test_sources_parse_as_the_oldest_supported_python():
    import ast

    # pyproject.toml declares requires-python >= 3.10; the tools run on it too
    for path in sorted([*(SRC / "steinset").glob("*.py"), *(SRC.parent / "tools").glob("*.py")]):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
