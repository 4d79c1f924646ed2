from math import factorial, prod

import numpy as np
import pytest

from helpers import partition_shape_counts
from lmcorrect.faadibruno import (
    MAX_ORDER,
    correction_identity_terms,
    derivative_terms,
    format_correction_formula,
    format_derivative_identity,
)

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}


def test_first_order_is_jacobian_term():
    terms = derivative_terms(1)
    assert len(terms) == 1
    assert (terms[0].coefficient, terms[0].f_order, terms[0].x_orders) == (1, 1, (1,))


def test_second_order_terms():
    terms = derivative_terms(2)
    assert [(t.coefficient, t.f_order, t.x_orders) for t in terms] == [
        (1, 2, (1, 1)),
        (1, 1, (2,)),
    ]


def test_third_order_terms():
    terms = derivative_terms(3)
    assert [(t.coefficient, t.f_order, t.x_orders) for t in terms] == [
        (1, 3, (1, 1, 1)),
        (3, 2, (1, 2)),
        (1, 1, (3,)),
    ]


def test_fourth_order_terms():
    terms = derivative_terms(4)
    assert [(t.coefficient, t.f_order, t.x_orders) for t in terms] == [
        (1, 4, (1, 1, 1, 1)),
        (6, 3, (1, 1, 2)),
        (4, 2, (1, 3)),
        (3, 2, (2, 2)),
        (1, 1, (4,)),
    ]


def test_fifth_order_coefficients():
    # Frozen from the set-partition oracle: 7 shapes, coefficient sum 52.
    terms = derivative_terms(5)
    assert [t.coefficient for t in terms] == [1, 10, 10, 15, 5, 10, 1]
    assert sum(t.coefficient for t in terms) == 52


@pytest.mark.parametrize("n", range(1, 9))
def test_matches_partition_enumeration(n):
    oracle = partition_shape_counts(n)
    terms = derivative_terms(n)
    assert len(terms) == len(oracle)
    for term in terms:
        assert oracle[(term.f_order, term.x_orders)] == term.coefficient


@pytest.mark.parametrize("n", range(1, 9))
def test_coefficient_sum_is_bell_number(n):
    assert sum(t.coefficient for t in derivative_terms(n)) == BELL[n]


@pytest.mark.parametrize("n", range(1, MAX_ORDER + 1))
def test_term_shape_invariants(n):
    # The terms are only ever built by the library, so their invariants are
    # checked here rather than on construction: every order the generator
    # accepts, both forms of the expansion.
    terms = derivative_terms(n)
    if n >= 2:
        lead, rest = correction_identity_terms(n)
        terms += [lead, *rest]
    for term in terms:
        assert sum(term.x_orders) == n
        assert len(term.x_orders) == term.f_order
        assert type(term.coefficient) is int and term.coefficient >= 1
        assert min(term.x_orders) >= 1
        assert term.x_orders == tuple(sorted(term.x_orders))


def test_canonical_ordering_is_deterministic():
    for n in (3, 5, 7):
        terms = derivative_terms(n)
        keys = [(-t.f_order, t.x_orders) for t in terms]
        assert keys == sorted(keys)


def test_order_bounds():
    for bad in (0, -1, 13, 2.5, 3.0, "3", True, np.int64(13)):
        with pytest.raises(ValueError):
            derivative_terms(bad)
    for bad in (1, np.int64(1), True, 2.0):
        with pytest.raises(ValueError):
            correction_identity_terms(bad)
    # Any integer other than a bool is an order, as in correction_series.
    for n in (2, 3, 4):
        assert derivative_terms(np.int64(n)) == derivative_terms(n)
        assert correction_identity_terms(np.int64(n)) == correction_identity_terms(n)
        assert format_correction_formula(np.int64(n)) == format_correction_formula(n)


def test_correction_identity_order2():
    lead, rest = correction_identity_terms(2)
    assert lead.coefficient == 2 and lead.f_order == 1 and lead.x_orders == (2,)
    assert [(t.coefficient, t.f_order, t.x_orders) for t in rest] == [
        (1, 2, (1, 1))
    ]


def test_correction_identity_order3():
    lead, rest = correction_identity_terms(3)
    assert lead.coefficient == 6
    assert [(t.coefficient, t.f_order, t.x_orders) for t in rest] == [
        (1, 3, (1, 1, 1)),
        (6, 2, (1, 2)),
    ]


def test_correction_identity_order4():
    lead, rest = correction_identity_terms(4)
    assert lead.coefficient == 24
    assert [(t.coefficient, t.f_order, t.x_orders) for t in rest] == [
        (1, 4, (1, 1, 1, 1)),
        (12, 3, (1, 1, 2)),
        (24, 2, (1, 3)),
        (12, 2, (2, 2)),
    ]


@pytest.mark.parametrize("n", range(2, 9))
def test_correction_coefficients_scale_by_factorials(n):
    derivative = {(t.f_order, t.x_orders): t.coefficient for t in derivative_terms(n)}
    lead, rest = correction_identity_terms(n)
    assert lead.coefficient == factorial(n)
    for term in rest:
        base = derivative[(term.f_order, term.x_orders)]
        assert type(term.coefficient) is int
        assert term.coefficient == base * prod(map(factorial, term.x_orders))


def test_formatting_smoke():
    identity = format_derivative_identity(2)
    assert "f^(2)[x^(1) x^(1)]" in identity and identity.endswith("= 0")
    formula = format_correction_formula(3)
    assert formula.startswith("c_3 = -1/6")
    assert "6 f^(2)[c_1 c_2]" in formula
