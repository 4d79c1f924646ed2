"""Terms of ``d^n/dt^n f(x(t))`` and the matching finite-step identities.

The n-th total derivative of a composition ``f(x(t))`` is a sum of terms

    coefficient * f^(d)[ x^(a_1), ..., x^(a_d) ]

with ``a_1 + ... + a_d = n`` (Faa di Bruno's formula).  The terms are built
here by repeatedly applying ``d/dt`` as a term-rewriting rule and collecting
like terms; an independent set-partition enumeration cross-checks the
coefficients in the test suite.

Substituting scaled step corrections ``x^(a) = a! c_a`` for the time
derivatives turns the same expansion into the identity used to solve for the
order-n correction of a finite optimization step;
:func:`correction_identity_terms` produces it as the same term type.  Every
coefficient, in either form, is an exact integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod

from .linalg import as_int

__all__ = [
    "MAX_ORDER",
    "DerivativeTerm",
    "derivative_terms",
    "correction_identity_terms",
    "format_derivative_identity",
    "format_correction_formula",
]

# Term counts grow like Bell numbers; 12 keeps generation instant.
MAX_ORDER = 12


@dataclass(frozen=True)
class DerivativeTerm:
    """One collected term ``coefficient * f^(f_order)[x^(a) for a in x_orders]``.

    In the finite-step identity the same term reads
    ``coefficient * f^(f_order)[c_k for k in x_orders]``: there ``x_orders``
    index the corrections c_k.
    """

    coefficient: int
    f_order: int
    x_orders: tuple[int, ...]


def _sort_key(item):
    (f_order, x_orders), _ = item
    return (-f_order, x_orders)


def _differentiate(terms: dict) -> dict:
    """Apply d/dt to a collected term map {(f_order, x_orders): coefficient}."""
    out: dict = {}

    def add(f_order, x_orders, coeff):
        key = (f_order, tuple(sorted(x_orders)))
        out[key] = out.get(key, 0) + coeff

    for (f_order, x_orders), coeff in terms.items():
        # chain rule on f^(d): one extra first-derivative factor
        add(f_order + 1, x_orders + (1,), coeff)
        # product rule: bump each x-derivative factor in turn
        for i, a in enumerate(x_orders):
            add(f_order, x_orders[:i] + (a + 1,) + x_orders[i + 1 :], coeff)
    return out


def derivative_terms(n: int) -> list[DerivativeTerm]:
    """Collected terms of ``d^n/dt^n f(x(t))`` for ``1 <= n <= MAX_ORDER``.

    Terms are sorted by descending ``f_order`` then lexicographic
    ``x_orders``; the coefficient sum equals the n-th Bell number.
    """
    as_int(n, "order", 1, MAX_ORDER)
    terms = {(1, (1,)): 1}
    for _ in range(n - 1):
        terms = _differentiate(terms)
    return [
        DerivativeTerm(coefficient=c, f_order=d, x_orders=xo)
        for (d, xo), c in sorted(terms.items(), key=_sort_key)
    ]


def correction_identity_terms(n: int) -> tuple[DerivativeTerm, list[DerivativeTerm]]:
    """Finite-step identity at order ``n``: ``lead + sum(rest) = 0``.

    Substituting ``a!-scaled`` corrections for the time derivatives multiplies
    each derivative-term coefficient by the product of factorials of its
    x-derivative orders.  ``lead`` is the unique ``n! * f^(1)[c_n]`` term;
    solving for ``c_n`` divides ``rest`` by ``-n!`` and applies ``J^{-1}``.
    """
    as_int(n, "order", 2, MAX_ORDER)
    lead = None
    rest = []
    for term in derivative_terms(n):
        cterm = DerivativeTerm(
            coefficient=term.coefficient * prod(map(factorial, term.x_orders)),
            f_order=term.f_order, x_orders=term.x_orders)
        if term.f_order == 1 and term.x_orders == (n,):
            lead = cterm
        else:
            rest.append(cterm)
    assert lead is not None and lead.coefficient == factorial(n)
    return lead, rest


def _format_terms(terms, factor) -> str:
    """``c f^(d)[...]`` summands, each factor order rendered by ``factor``."""
    return " + ".join(
        ("" if t.coefficient == 1 else f"{t.coefficient} ")
        + f"f^({t.f_order})[{' '.join(map(factor, t.x_orders))}]"
        for t in terms)


def format_derivative_identity(n: int) -> str:
    """Human-readable expansion of ``d^n/dt^n f(x(t)) = 0``."""
    return _format_terms(derivative_terms(n), "x^({})".format) + " = 0"


def format_correction_formula(n: int) -> str:
    """Human-readable solved form ``c_n = -1/n! Jinv(...)`` of the identity."""
    lead, rest = correction_identity_terms(n)
    return f"c_{n} = -1/{lead.coefficient} Jinv( {_format_terms(rest, 'c_{}'.format)} )"
