"""Exact computation with exponential Puiseux monoids and semirings.

Importing the package loads no module: each name is imported on first use (PEP 562), then kept."""

import importlib

_EXPORTS = {
    "errors": ("ChainError", "DomainError", "IndexRangeError", "ParseError", "PuiseuxError",
               "StepError"),
    "ratio": ("Ratio", "max_power_dividing"),
    "monoid": ("AtomicityVerdict", "Constant", "DeltaSpec", "ExpMonoid", "Geometric", "Periodic",
               "Polynomial", "Recurrence", "atom", "classify_atomicity", "format_monoid",
               "parse_monoid", "s_index", "truncate"),
    "factorization": ("Factorization", "LengthSet", "MaxLengthOutcome", "enumerate_all",
                      "evaluate", "length_set", "max_length_sweep", "min_normal_form",
                      "rewrite_down_step", "unique_factorization_check"),
    "membership": ("MembershipResult", "divides", "is_member", "mult_divides",
                   "mult_divisor_bound"),
    "accp": ("Classification", "WitnessChain", "check_necessary", "classify",
             "construct_counterexample", "series_partial_sums", "witness_chain"),
    "semiring": ("MultVerdict", "NumericalMonoidSpec", "PrefixCofinite", "apery_set",
                 "classify_mult", "frobenius", "frobenius_bruteforce", "is_semiring",
                 "nm_membership", "parse_exponent_set"),
    "oracle": ("oracle_enumerate", "oracle_lengths"),
}
# each exported name -> its module; each module -> None
_HOME = {**{name: module for module, names in _EXPORTS.items() for name in names},
         **dict.fromkeys(_EXPORTS)}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME[name] or name}")
    value = globals()[name] = getattr(module, name) if _HOME[name] else module
    return value


def __dir__():
    return sorted({*globals(), *__all__})
