"""The three benchmark workloads: seeded inputs, one pass of the fixed job, and
the correctness gates.

Each workload is a class built from ``(seed, scale, workdir)``.  Building it is
the set-up: it generates every input from the seed (and, for ``session``,
pre-fills the result store).  ``ops`` is the fixed job; a pass runs every op
once, in order, with one client.  ``check(i, value)`` returns ``None`` when the
value of op ``i`` is correct and a one-line reason otherwise; checks never run
inside a timed pass.

Library functions are looked up on their module at call time
(``getattr(module, name)``), so the wrappers that ``tracing.py`` installs for a
traced pass are the ones called.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Affine witness classes of order 2 per modulus (A - A = Z_n, 2A != Z_n).
EXPECTED_K2_CLASSES = {
    10: 5, 11: 4, 12: 23, 13: 11, 14: 42,
    15: 58, 16: 113, 17: 89, 18: 497, 19: 271,
}
# No order-3 witness exists at any modulus up to this one.
NO_K3_WITNESS_UP_TO = 18


def child_env() -> dict:
    """Environment of a child interpreter that imports ``steinset`` from ``src/``."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def lib(module: str):
    """The ``steinset`` submodule ``module`` (imported from ``src/``)."""
    return importlib.import_module(f"steinset.{module}")


@dataclass(frozen=True)
class Op:
    """One operation of a job: ``steinset.<module>.<func>(*args)``."""

    label: str
    module: str
    func: str
    args: tuple

    def __call__(self):
        return getattr(lib(self.module), self.func)(*self.args)


def _random_set(rng: random.Random, n: int, size: int):
    return lib("groups").CyclicSet.from_members(n, rng.sample(range(n), size))


def _random_symmetric_set(rng: random.Random, n: int, size: int):
    center = rng.randrange(n)
    half = rng.sample(range(n), size // 2)
    return lib("groups").CyclicSet.from_members(
        n, half + [(2 * center - x) % n for x in half]
    )


def _reflect(s):
    """-A from the member list, independent of ``CyclicSet.negate``."""
    n = s.modulus
    return lib("groups").CyclicSet.from_members(n, [(n - a) % n for a in s.members()])


def _is_witness(s, k: int) -> bool:
    sumsets = lib("sumsets")
    return (
        sumsets.signed_product_counts(s, 1, 1).is_full()
        and not sumsets.iterated_sumset(s, k).is_full()
    )


def _sampled_witness(rng: random.Random, k: int, n_lo: int, n_hi: int, size_of):
    """A (k, n) witness found by seeded rejection sampling."""
    haight = lib("haight")
    while True:
        n = rng.randrange(n_lo, n_hi + 1)
        s = _random_set(rng, n, size_of(n))
        if _is_witness(s, k):
            cert = lib("sumsets").iterated_sumset(s, k).deficiency()[0]
            return haight.HaightWitness(k=k, subset=s, certificate=cert)


def _seeded_chain(rng: random.Random) -> tuple:
    """A k=1..2 witness chain: a dense k=1 witness and a 6-element k=2 witness."""
    return (
        _sampled_witness(rng, 1, 12, 20, lambda n: n // 2),
        _sampled_witness(rng, 2, 13, 16, lambda n: 6),
    )


def _check_witness_class(w, k: int) -> str | None:
    ok, reason = lib("haight").verify_witness(w)
    if not ok:
        return f"witness {w.subset} fails verification: {reason}"
    if w.k != k:
        return f"witness {w.subset} has k={w.k}, expected {k}"
    if w.subset.canonical_form() != w.subset:
        return f"witness {w.subset} is not its own canonical form"
    return None


# ------------------------------------------------------------------ search

SEARCH_SIZES = {
    # k=2 exhaustive moduli, k=3 exhaustive moduli (no witness: full scan),
    # stochastic (k, n_range, budget) calls
    "full": dict(
        k2=range(10, 18), k3=(14, 15),
        stochastic=((3, (24, 24), 2500), (2, (22, 24), 700)),
    ),
    "tiny": dict(
        k2=range(10, 13), k3=(9,),
        stochastic=((3, (14, 14), 150), (2, (14, 15), 60)),
    ),
}


class Search:
    """Witness search in process: exhaustive k=2 and k=3 scans, seeded
    stochastic searches, and a k=1..2 chain check."""

    def __init__(self, seed: int, scale: str, workdir: Path):
        haight = lib("haight")
        size = SEARCH_SIZES[scale]
        rng = random.Random(f"search:{seed}")
        ops = []
        for n in size["k2"]:
            cfg = haight.SearchConfig(k=2, n_range=(n, n))
            ops.append(Op(f"exhaustive k=2 n={n}", "haight", "exhaustive_search", (cfg,)))
        for n in size["k3"]:
            cfg = haight.SearchConfig(k=3, n_range=(n, n))
            ops.append(Op(f"exhaustive k=3 n={n}", "haight", "exhaustive_search", (cfg,)))
        for k, n_range, budget in size["stochastic"]:
            cfg = haight.SearchConfig(
                k=k, n_range=n_range, mode="stochastic", budget=budget,
                seed=rng.getrandbits(64),
            )
            label = f"stochastic k={k} n={n_range[0]}..{n_range[1]}"
            ops.append(Op(label, "haight", "stochastic_search", (cfg,)))
        chain = _seeded_chain(rng)
        ops.append(Op("verify_haight_sequence k=1..2", "verdicts", "verify_haight_sequence", (chain,)))
        self.ops = ops

    def check(self, i: int, value) -> str | None:
        op = self.ops[i]
        if op.func == "verify_haight_sequence":
            if value.count != 2 or not value.ok:
                return f"chain report not ok: {value}"
            return None
        cfg = op.args[0]
        if cfg.mode == "exhaustive":
            (n, _) = cfg.n_range
            if cfg.k == 2 and len(value) != EXPECTED_K2_CLASSES[n]:
                return f"{len(value)} k=2 classes at n={n}, expected {EXPECTED_K2_CLASSES[n]}"
            if cfg.k == 3 and n <= NO_K3_WITNESS_UP_TO and value:
                return f"{len(value)} k=3 classes at n={n}, expected none"
        for w in value:
            reason = _check_witness_class(w, cfg.k)
            if reason:
                return reason
        return None


# ------------------------------------------------------------------ algebra

ALGEBRA_SIZES = {
    # moduli (the last gets only sumset and pm_product), verdict entry moduli,
    # c2n1 n, thick families (index sets, a_max, m) in a fixed shape
    "full": dict(
        moduli=(1009, 4096, 16384, 65536), verdict_n=(1009, 4096, 16384), c2n1=120,
        families=(((1, 4), (2, 5), (3,)), 5, 3), small_families=(((1, 5), (2, 6), (3,), (4,)), 6, 2),
    ),
    "tiny": dict(
        moduli=(61, 256), verdict_n=(61, 127, 256), c2n1=12,
        families=(((1, 4), (2,)), 4, 2), small_families=(((1,), (4,)), 4, 1),
    ),
}
_DENSITIES = ("sparse", "mid", "dense")


def _density_size(density: str, n: int) -> int:
    return {"sparse": 2 * n.bit_length(), "mid": 8 * n.bit_length(), "dense": n // 2}[density]


def _seeded_family(rng: random.Random, shape, a_max: int):
    """A disjoint family of the given shape, its sets in seeded order.

    Only the order is seeded: the tuple count depends on which indices share
    a set, so every seed covers the same number of tuples.
    """
    sets = [frozenset(s) for s in shape]
    rng.shuffle(sets)
    return lib("thick").ThickFamilySpec(tuple(sets), a_max=a_max)


class Algebra:
    """Large-n exact algebra in process: kernels at three densities, the
    verdicts, the c2n1 pair and thick-set independence."""

    def __init__(self, seed: int, scale: str, workdir: Path):
        verdicts = lib("verdicts")
        thick = lib("thick")
        size = ALGEBRA_SIZES[scale]
        rng = random.Random(f"algebra:{seed}")
        ops = []
        last = size["moduli"][-1]
        for n in size["moduli"]:
            for density in _DENSITIES:
                k = _density_size(density, n)
                a, b = _random_set(rng, n, k), _random_set(rng, n, k)
                tag = f"n={n} {density}"
                ops.append(Op(f"sumset {tag}", "sumsets", "sumset", (a, b)))
                if n == last:
                    m = 1 if density == "dense" else 2
                    ops.append(Op(f"pm_product m={m} {tag}", "sumsets", "pm_product", (a, m)))
                    continue
                ops.append(Op(f"iterated_sumset k=3 {tag}", "sumsets", "iterated_sumset", (a, 3)))
                ops.append(Op(f"signed_product_counts 2,1 {tag}", "sumsets", "signed_product_counts", (a, 2, 1)))
                ops.append(Op(f"pm_product m=2 {tag}", "sumsets", "pm_product", (a, 2)))

        n0, n1, n2 = size["verdict_n"]
        eps_spec = verdicts.SeqSpec(
            prefix=(_random_set(rng, n0, _density_size("sparse", n0)),),
            cycle=tuple(_random_set(rng, n1, _density_size("mid", n1)) for _ in range(2)),
        )
        ops.append(Op("eps_verdict ++-", "verdicts", "eps_verdict", (eps_spec, (1, 1, -1))))
        pm_spec = verdicts.SeqSpec(
            prefix=(),
            cycle=(_random_set(rng, n1, _density_size("mid", n1)),
                   _random_set(rng, n1, _density_size("dense", n1))),
        )
        ops.append(Op("pm_verdict m=2", "verdicts", "pm_verdict", (pm_spec, 2)))
        sym_spec = verdicts.SeqSpec(
            prefix=(_random_symmetric_set(rng, n0, _density_size("sparse", n0)),),
            cycle=tuple(_random_symmetric_set(rng, n, _density_size("mid", n)) for n in (n1, n2)),
        )
        ops.append(Op("sym_verdict m=2 (symmetric)", "verdicts", "sym_verdict", (sym_spec, 2)))
        ops.append(Op("pm_verdict m=2 (symmetric)", "verdicts", "pm_verdict", (sym_spec, 2)))
        c = size["c2n1"]
        c2n1 = verdicts.example_family_c2n1(c)
        ops.append(Op(f"c2n1 n={c} sym m={c}", "verdicts", "sym_verdict", (c2n1, c)))
        ops.append(Op(f"c2n1 n={c} pm m={c - 1}", "verdicts", "pm_verdict", (c2n1, c - 1)))

        for shape, a_max, m in (size["families"], size["small_families"]):
            family = _seeded_family(rng, shape, a_max)
            ops.append(Op(f"independence {family.to_literal()} m={m}", "thick", "independence_check", (family, m)))
        # negative control: two sets share index 4, whose block lies beyond
        # Xi(2), so x - x = 0 is a checked tuple
        merged = thick.ThickFamilySpec.unchecked([{1, 4}, {2, 4}], a_max=4)
        ops.append(Op("independence merged-index control m=2", "thick", "independence_check", (merged, 2)))
        self.ops = ops
        self._sym_spec = sym_spec
        self._oracle_n = size["moduli"][0]  # also compared with tests/oracles.py

    # reference results: the other kernel (shift-or throughout), the member-list
    # reflection, and tests/oracles.py at the smallest modulus

    @staticmethod
    def _ref_sum(a, b):
        return lib("sumsets").sumset_shift_or(a, b)

    def _ref_iterated(self, a, k):
        out = a
        for _ in range(k - 1):
            out = self._ref_sum(out, a)
        return out

    def _ref_signed(self, a, plus, minus):
        parts = [a] * plus + [_reflect(a)] * minus
        out = parts[0]
        for p in parts[1:]:
            out = self._ref_sum(out, p)
        return out

    def _ref_pm(self, a, m):
        u = a.union(_reflect(a))
        return self._ref_iterated(u, m)

    def _ref_verdict_holds(self, op) -> bool:
        spec, param = op.args
        if op.func == "eps_verdict":
            plus = sum(1 for s in param if s == 1)
            return all(self._ref_signed(e, plus, len(param) - plus).is_full() for e in spec.cycle)
        if op.func == "sym_verdict":
            return all(self._ref_iterated(e, param).is_full() for e in spec.cycle)
        return any(
            all(self._ref_signed(e, param - q, q).is_full() for e in spec.cycle)
            for q in range(param + 1)
        )

    def check(self, i: int, value) -> str | None:
        op = self.ops[i]
        if op.module == "sumsets":
            return self._check_set(op, value)
        if op.module == "verdicts":
            return self._check_verdict(op, value)
        return self._check_independence(op, value)

    def _check_set(self, op, value) -> str | None:
        a = op.args[0]
        if op.func == "sumset":
            b = op.args[1]
            refs = [lib("sumsets").sumset_shift_or(a, b), lib("sumsets").sumset_convolution(a, b)]
        elif op.func == "iterated_sumset":
            refs = [self._ref_iterated(a, op.args[1])]
        elif op.func == "signed_product_counts":
            refs = [self._ref_signed(a, *op.args[1:])]
        else:
            refs = [self._ref_pm(a, op.args[1])]
        if a.modulus == self._oracle_n:
            refs.append(self._oracle(op))
        for ref in refs:
            if ref != value:
                return f"{op.label}: result differs from reference ({value.cardinality} vs {ref.cardinality} members)"
        return None

    @staticmethod
    def _oracle(op):
        oracles = load_oracles()
        a = op.args[0]
        n = a.modulus
        mem = frozenset(a.members())
        if op.func == "sumset":
            out = oracles.naive_sumset(mem, frozenset(op.args[1].members()), n)
        elif op.func == "iterated_sumset":
            out = oracles.naive_iterated(mem, op.args[1], n)
        elif op.func == "signed_product_counts":
            plus, minus = op.args[1:]
            out = oracles.naive_signed(mem, [1] * plus + [-1] * minus, n)
        else:
            out = oracles.naive_pm(mem, op.args[1], n)
        return lib("groups").CyclicSet.from_members(n, out)

    def _check_verdict(self, op, value) -> str | None:
        if op.label.startswith("c2n1"):
            want = op.func == "sym_verdict"
            if value.holds != want:
                return f"{op.label}: got {value.kind()}, expected {'Holds' if want else 'Fails'}"
            return None
        if value.holds != self._ref_verdict_holds(op):
            return f"{op.label}: {value.kind()} disagrees with the reference products"
        if op.args[0] is self._sym_spec:
            other = "pm_verdict" if op.func == "sym_verdict" else "sym_verdict"
            twin = getattr(lib("verdicts"), other)(self._sym_spec, op.args[1])
            if twin.holds != value.holds:
                return f"{op.label}: sym and pm verdicts disagree in kind on symmetric entries"
        return None

    @staticmethod
    def _check_independence(op, value) -> str | None:
        spec, m = op.args
        if "merged-index" in op.label:
            ce = value.counterexample
            if value.passed or ce is None:
                return "merged-index control passed"
            if sum(l * x for l, x in zip(ce.coefficients, ce.points)) != 0:
                return "merged-index control tuple does not sum to zero"
            return None
        if not value.passed:
            return f"{op.label}: zero sum on a disjoint family"
        want = covered_tuples(spec, m)
        if value.tuples_checked != want:
            return f"{op.label}: {value.tuples_checked} tuples checked, expected {want}"
        return None


def covered_tuples(spec, m: int) -> int:
    """Tuples an exhaustive check covers, counted from block sizes alone."""
    _, big_xi = lib("thick").xi_sequence(m)
    sizes = []
    for s in spec.index_sets:
        total = small = 0
        for a in sorted(s):
            if a > spec.a_max:
                continue
            base = 2 ** (2 ** a)
            total += 2 * a + 1
            small += sum(1 for x in range(base - a, base + a + 1) if x <= big_xi)
        sizes.append((total, small))
    out = 0
    for k in range(1, min(m, len(sizes)) + 1):
        for combo in combinations(sizes, k):
            all_pts = small_pts = 1
            for total, small in combo:
                all_pts *= total
                small_pts *= small
            out += (all_pts - small_pts) * (2 * m) ** k
    return out


@functools.cache
def load_oracles():
    """``tests/oracles.py`` of the checkout, the package's naive references."""
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ------------------------------------------------------------------ session

SESSION_SIZES = {
    # pre-filled records: haight witnesses sampled at n in 20..48, verdict
    # records, xi records m = 1..xi; the commands kept from the script
    "full": dict(haight=1000, verdicts=1000, xi=1000, commands=None),
    "tiny": dict(haight=20, verdicts=20, xi=20,
                 commands=("sumset", "verdict-pm", "haight", "lemma1", "store")),
}
STORE_FILE = "records.jsonl"
SEARCH_RANGE = (10, 13)  # the script's exhaustive search; half its classes are pre-filled


def _signs_text(signs) -> str:
    return "".join("+" if s == 1 else "-" for s in signs)


class Session:
    """A CLI session with one client: a seeded script of
    ``python -m steinset.cli`` processes against a pre-filled store."""

    def __init__(self, seed: int, scale: str, workdir: Path, prefill: bool = True):
        """``prefill=False`` reuses the store a set-up of the same seed left in ``workdir``."""
        self.size = SESSION_SIZES[scale]
        self.workdir = workdir
        self.template = workdir / "prefill" / STORE_FILE
        self.store_dir = workdir / "store"
        if prefill:
            self._prefill(random.Random(f"session-prefill:{seed}"))
        self._script(random.Random(f"session-script:{seed}"))

    # -------------------------------------------------------------- set-up

    def _prefill(self, rng: random.Random) -> None:
        """Pre-fill the store through verified appends."""
        haight, store, verdicts = lib("haight"), lib("store"), lib("verdicts")
        shutil.rmtree(self.template.parent, ignore_errors=True)
        st = store.WitnessStore(self.template.parent)
        for w in haight.exhaustive_search(haight.SearchConfig(k=2, n_range=SEARCH_RANGE)):
            if rng.random() < 0.5:
                st.append(store.make_haight_record(w, created_at=0))
        for _ in range(self.size["haight"]):
            k = rng.choice((1, 2))
            w = _sampled_witness(rng, k, 20, 48, lambda n: rng.randrange(int(n ** 0.5) + 2, n // 2))
            st.append(store.make_haight_record(w, created_at=0))
        for _ in range(self.size["verdicts"]):
            n = rng.randrange(5, 40)
            cycle = tuple(
                _random_set(rng, n, rng.randrange(1, n)) for _ in range(rng.randrange(1, 4))
            )
            spec = verdicts.SeqSpec(prefix=(), cycle=cycle)
            m = rng.randrange(1, 4)
            if rng.random() < 0.5:
                signs = tuple(rng.choice((1, -1)) for _ in range(m))
                v, op, param = verdicts.eps_verdict(spec, signs), "eps", signs
            else:
                v, op, param = verdicts.pm_verdict(spec, m), "pm", m
            st.append(store.make_verdict_record(op, spec, param, v, created_at=0))
        for m in range(1, self.size["xi"] + 1):
            st.append(store.make_xi_record(m, created_at=0))

    def _script(self, rng: random.Random) -> None:
        verdicts, haight = lib("verdicts"), lib("haight")
        ops: list[tuple[str, list[str], dict]] = []

        def add(label, argv, **expect):
            ops.append((label, argv, expect))

        def set_pair(n, density):
            k = _density_size(density, n)
            return _random_set(rng, n, k), _random_set(rng, n, k)

        a, b = set_pair(rng.randrange(1200, 1800), "mid")
        add("sumset mid", ["sumset", a.to_literal(), b.to_literal()], kind="set", func="sumset", args=(a, b))
        a, b = set_pair(rng.randrange(300, 600), "sparse")
        add("sumset sparse", ["sumset", a.to_literal(), b.to_literal()], kind="set", func="sumset", args=(a, b))
        a, _ = set_pair(rng.randrange(400, 800), "sparse")
        add("ksum k=3", ["ksum", a.to_literal(), "3"], kind="set", func="iterated_sumset", args=(a, 3))
        a, _ = set_pair(rng.randrange(200, 400), "sparse")
        add("signed ++-", ["signed", a.to_literal(), "++-"], kind="set", func="signed_product", args=(a, (1, 1, -1)))
        a, _ = set_pair(rng.randrange(300, 600), "sparse")
        add("pm m=2", ["pm", a.to_literal(), "2"], kind="set", func="pm_product", args=(a, 2))

        for op, param in (("eps", (1, -1)), ("eps", (1, 1, -1)), ("pm", 2), ("pm", 3), ("sym", 2), ("sym", 3)):
            make = _random_symmetric_set if op == "sym" else _random_set
            cycle = []
            for _ in range(2):
                n = rng.randrange(20, 60)
                cycle.append(make(rng, n, rng.randrange(4, n // 3)))
            spec = verdicts.SeqSpec(prefix=(), cycle=tuple(cycle))
            arg = _signs_text(param) if op == "eps" else str(param)
            add(f"verdict-{op} {arg}", [f"verdict-{op}", spec.to_literal(), arg, "--store"],
                kind="verdict", op=op, spec=spec, param=param)

        lo, hi = SEARCH_RANGE
        add("haight search exhaustive", ["haight", "search", "2", "--n-range", f"{lo}..{hi}"],
            kind="search", cfg=haight.SearchConfig(k=2, n_range=(lo, hi)))
        cfg = haight.SearchConfig(k=2, n_range=(20, 21), mode="stochastic", budget=400,
                                  seed=rng.getrandbits(32))
        add("haight search stochastic",
            ["haight", "search", "2", "--mode", "stochastic", "--n-range", "20..21",
             "--budget", "400", "--seed", str(cfg.seed)], kind="search", cfg=cfg)
        chain = _seeded_chain(rng)
        chain_file = self.workdir / "chain.jsonl"
        chain_file.write_text("".join(json.dumps(w.to_json_obj()) + "\n" for w in chain))
        add("haight verify chain", ["haight", "verify", str(chain_file)], kind="verify", chain=chain)

        # one m inside the pre-filled range (a duplicate), one beyond it
        for m in (rng.randrange(1, self.size["xi"] + 1), self.size["xi"] + rng.randrange(1, 1000)):
            add(f"lemma1 xi m={m}", ["lemma1", "xi", str(m), "--store"], kind="xi", m=m)
        family = _seeded_family(rng, ((1, 4), (2, 5), (3,)), 5)
        add("lemma1 intervals", ["lemma1", "intervals", family.to_literal()], kind="intervals", spec=family)
        add("store reverify", ["store", "reverify"], kind="reverify")
        keep = self.size["commands"]
        ops = [op for op in ops if keep is None or op[0].split()[0] in keep]
        self.ops = [label for label, _, _ in ops]
        self._argv = [argv for _, argv, _ in ops]
        self._expect = [expect for _, _, expect in ops]

    # -------------------------------------------------------------- passes

    def argv(self, i: int) -> list[str]:
        """Full CLI arguments of command ``i`` against this pass's store."""
        return ["--no-timestamp", "--output", "structured", "--store-dir", str(self.store_dir),
                *self._argv[i]]

    def begin_pass(self) -> None:
        """A fresh copy of the pre-filled store for the next pass."""
        shutil.rmtree(self.store_dir, ignore_errors=True)
        self.store_dir.mkdir(parents=True)
        shutil.copyfile(self.template, self.store_dir / STORE_FILE)

    def store_bytes(self) -> int:
        return (self.store_dir / STORE_FILE).stat().st_size

    def spawn(self, i: int):
        """Run command ``i`` as its own process; (exit code, output, peak RSS in KiB).

        stderr is merged into stdout: a command in this script prints only
        its structured output, so any other line fails the check.
        """
        proc = subprocess.Popen(
            [sys.executable, "-m", "steinset.cli", *self.argv(i)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            cwd=self.workdir, env=child_env(),
        )
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out.decode("utf-8", "replace"), usage.ru_maxrss

    def in_process(self, i: int):
        """Run command ``i`` through ``steinset.cli.main`` with output captured."""
        import contextlib
        import io

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                code = lib("cli").main(self.argv(i))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return code, buf.getvalue()

    # -------------------------------------------------------------- checks

    def check(self, i: int, value) -> str | None:
        code, out = value
        label = self.ops[i]
        if code != 0:
            return f"{label}: exit code {code}, expected 0: {out.strip()[-200:]}"
        try:
            objs = [json.loads(line) for line in out.splitlines() if line.strip()]
        except ValueError:
            return f"{label}: output is not JSON lines: {out.strip()[:200]}"
        if not objs:
            return f"{label}: no output"
        expect = self._expect[i]
        want = getattr(self, "_want_" + expect["kind"])(expect)
        try:
            got = _normalised_output(expect["kind"], objs)
        except (KeyError, IndexError, TypeError) as exc:
            return f"{label}: output lacks field {exc}: {out.strip()[:200]}"
        if got != want:
            return f"{label}: output {str(got)[:160]} differs from expected {str(want)[:160]}"
        return None

    def _want_set(self, e):
        result = getattr(lib("sumsets"), e["func"])(*e["args"])
        return {"members": list(result.members()), "full": result.is_full()}

    def _want_verdict(self, e):
        verdicts = lib("verdicts")
        fn = getattr(verdicts, f"{e['op']}_verdict")
        return self._verdict_fields(fn(e["spec"], e["param"]))

    @staticmethod
    def _verdict_fields(v) -> dict:
        out = {"holds": v.holds}
        if v.holds:
            out["k0"] = v.k0
            if v.sign_class is not None:
                out["sign_class"] = list(v.sign_class)
        else:
            out["witnesses"] = list(v.witnesses)
        return out

    def _want_search(self, e):
        haight = lib("haight")
        cfg = e["cfg"]
        fn = haight.exhaustive_search if cfg.mode == "exhaustive" else haight.stochastic_search
        found = fn(cfg)
        return [w.to_json_obj() for w in found] + [len(found)]

    def _want_verify(self, e):
        return {"total": len(e["chain"]), "valid": len(e["chain"]), "failures": [], "ok": True}

    def _want_xi(self, e):
        xi, big_xi = lib("thick").xi_sequence(e["m"])
        return {"xi": xi, "Xi": str(big_xi)}

    def _want_intervals(self, e):
        blocks = lib("thick").thick_intervals(e["spec"])
        return [[{"a": b.index, "lo": str(b.lo), "hi": str(b.hi)} for b in chunk] for chunk in blocks]

    def _want_reverify(self, e):
        total = self.expected_records
        return {"total": total, "ok": total, "failures": [], "malformed_lines": 0}

    @functools.cached_property
    def expected_records(self) -> int:
        """Records after one pass: the pre-fill plus every new canonical write."""
        store, verdicts, haight = lib("store"), lib("verdicts"), lib("haight")
        ref_dir = self.workdir / "reference-store"
        shutil.rmtree(ref_dir, ignore_errors=True)
        ref_dir.mkdir(parents=True)
        shutil.copyfile(self.template, ref_dir / STORE_FILE)
        st = store.WitnessStore(ref_dir)
        for e in self._expect:
            if e["kind"] == "verdict":
                v = getattr(verdicts, f"{e['op']}_verdict")(e["spec"], e["param"])
                st.append(store.make_verdict_record(e["op"], e["spec"], e["param"], v))
            elif e["kind"] == "search":
                cfg = e["cfg"]
                fn = haight.exhaustive_search if cfg.mode == "exhaustive" else haight.stochastic_search
                for w in fn(cfg):
                    st.append(store.make_haight_record(w))
            elif e["kind"] == "xi":
                st.append(store.make_xi_record(e["m"]))
        shutil.rmtree(ref_dir, ignore_errors=True)
        return len(st)



def _normalised_output(kind: str, objs):
    """The fields of a command's structured output that the check compares."""
    if kind == "set":
        o = objs[-1]
        return {"members": o["result"], "full": o["full"]}
    if kind == "verdict":
        o = objs[-1]
        return {k: o[k] for k in ("holds", "k0", "sign_class", "witnesses") if k in o}
    if kind == "search":
        return [o["payload"] for o in objs[:-1]] + [objs[-1]["count"]]
    if kind == "verify":
        o = objs[-1]
        return {"total": o["total"], "valid": o["valid"], "failures": o["failures"],
                "ok": o.get("sequence", {}).get("ok")}
    if kind == "xi":
        o = objs[-1]
        return {"xi": o["xi"], "Xi": o["Xi"]}
    if kind == "intervals":
        return objs[-1]["sets"]
    o = objs[-1]
    return {k: o[k] for k in ("total", "ok", "failures", "malformed_lines")}


WORKLOADS = {"search": Search, "algebra": Algebra, "session": Session}
