"""Exact computation with exponential Puiseux monoids and semirings."""

from .errors import (ChainError, DomainError, IndexRangeError, ParseError,
                     PuiseuxError, StepError)
from .ratio import Ratio, max_power_dividing
from .monoid import (AtomicityVerdict, Constant, DeltaSpec, ExpMonoid,
                     Geometric, Periodic, Polynomial, Recurrence, atom,
                     classify_atomicity, format_monoid, parse_monoid, s_index,
                     truncate)
from .factorization import (Factorization, LengthSet, MaxLengthOutcome,
                            enumerate_all, evaluate, length_set,
                            max_length_sweep, min_normal_form,
                            rewrite_down_step, unique_factorization_check)
from .membership import MembershipResult, divides, is_member
from .accp import (Classification, WitnessChain, check_necessary, classify,
                   construct_counterexample, series_partial_sums, witness_chain)
from .semiring import (MultVerdict, NumericalMonoidSpec,
                       PrefixCofinite, apery_set, classify_mult, frobenius,
                       frobenius_bruteforce, is_semiring, mult_divides,
                       mult_divisor_bound, nm_membership, parse_exponent_set)
from .oracle import oracle_enumerate, oracle_lengths

__version__ = "0.1.0"
