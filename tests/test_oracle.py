import pytest

from puiseux.errors import DomainError
from puiseux.factorization import (enumerate_all, max_length_sweep,
                                   min_normal_form, Factorization)
from puiseux.monoid import parse_monoid
from puiseux.oracle import oracle_enumerate, oracle_lengths
from puiseux.ratio import Ratio

CONST = parse_monoid("r=2/3; delta=const(1)")
GEOM = parse_monoid("r=2/3; delta=geom(1,2)")


def test_known_vectors():
    vecs = oracle_enumerate(Ratio(2), CONST, 3)
    assert set(vecs) == {(2, 0, 0, 0), (0, 3, 0, 0), (0, 1, 3, 0), (0, 1, 1, 3)}


def test_negative_max_index_rejected():
    with pytest.raises(DomainError, match="^max_index must be >= 0$"):
        oracle_enumerate(Ratio(1), CONST, -1)


def test_non_member_is_empty():
    assert oracle_enumerate(Ratio(1, 5), CONST, 4) == []


def test_zero_gives_zero_vector():
    assert oracle_enumerate(Ratio(0), CONST, 3) == [(0, 0, 0, 0)]


def test_results_are_sorted_and_deterministic():
    a = oracle_enumerate(Ratio(4, 3), CONST, 4)
    assert a == sorted(a)
    assert a == oracle_enumerate(Ratio(4, 3), CONST, 4)


def test_agrees_with_fast_path_on_grid():
    # the oracle is deliberately naive: keep the values desk-scale
    for M, top in ((CONST, 9), (GEOM, 6)):
        for p in range(1, top + 1):
            for k in (0, 1, 2):
                x = Ratio(p, 3 ** k)
                fast = {tuple(z.as_dict().get(i, 0) for i in range(5))
                        for z in enumerate_all(x, M, 4)}
                assert fast == set(oracle_enumerate(x, M, 4)), (str(M.r), str(x))


def test_length_endpoints_match_lemma_routes():
    # min over oracle lengths is the normal form's length
    zs = enumerate_all(Ratio(4), CONST, 3)
    nf = min_normal_form(zs[0])
    assert min(oracle_lengths(Ratio(4), CONST, 3)) == nf.length
    # max over oracle lengths is the terminating sweep's length
    out = max_length_sweep(Factorization.make(GEOM, {0: 2}), 16)
    assert max(oracle_lengths(Ratio(2), GEOM, out.found.top_index)) == out.found.length


def test_finite_window_clamps_bound():
    fin = parse_monoid("r=2/3; delta=prefix(1,1); finite")
    assert oracle_enumerate(Ratio(2), fin, 9) == oracle_enumerate(Ratio(2), fin, 2)
