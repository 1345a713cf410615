"""steinset: exact sumset machinery over cyclic groups Z_n.

Subpackages cover: set representation and affine canonical forms
(``groups``), dual sumset kernels (``sumsets``), eventual-fullness
verdicts for eventually periodic sequence specs (``verdicts``), search
for difference-covering sets with deficient k-fold sumsets (``haight``),
doubly exponential thick sets with exact independence checks (``thick``),
a verified append-only result store (``store``), and a CLI (``cli``).
"""

__version__ = "0.1.0"

# public name -> submodule defining it.  Submodules are imported on first
# access (PEP 562), so a CLI command loads only the modules it runs.
_EXPORTS = {
    "AffineMap": "groups",
    "BigInterval": "thick",
    "BudgetExceededError": "thick",
    "CyclicSet": "groups",
    "EmptySetError": "groups",
    "HaightSequenceReport": "verdicts",
    "HaightWitness": "haight",
    "IndependenceResult": "thick",
    "ModulusMismatchError": "groups",
    "NotSymmetricError": "verdicts",
    "SearchConfig": "haight",
    "SeqSpec": "verdicts",
    "SteinsetError": "values",
    "StoreRecord": "store",
    "StoreVerificationError": "store",
    "ThickFamilySpec": "thick",
    "Verdict": "verdicts",
    "WitnessChainError": "verdicts",
    "WitnessStore": "store",
    "Xorshift64Star": "haight",
    "eps_verdict": "verdicts",
    "example_family_c2n1": "verdicts",
    "exhaustive_search": "haight",
    "independence_check": "thick",
    "iterated_sumset": "sumsets",
    "minimal_modulus": "haight",
    "pm_product": "sumsets",
    "pm_verdict": "verdicts",
    "power_tower": "thick",
    "signed_product": "sumsets",
    "signed_product_counts": "sumsets",
    "stochastic_search": "haight",
    "sumset": "sumsets",
    "sumset_convolution": "sumsets",
    "sumset_shift_or": "sumsets",
    "sym_verdict": "verdicts",
    "thick_intervals": "thick",
    "verify_haight_sequence": "verdicts",
    "verify_witness": "haight",
    "xi_sequence": "thick",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
