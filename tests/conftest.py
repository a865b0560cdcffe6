"""References shared by the frozen values on the lmethod route.

The package takes L(k) from the class number formula; these references take
it from the direct sum l_value instead, so a pinned value is also checked
against an independent computation at a much tighter tolerance.
"""

import math
from functools import lru_cache

import pytest

from quadprime import singular
from quadprime.sieve import build_squarefree_table
from quadprime.singular import dirichlet_partial, l_value, sl_product


@lru_cache(maxsize=None)
def _s_via_l_value(k, tol):
    return sl_product(k, tol) / l_value(k, tol / 100)


@pytest.fixture(scope="session")
def s_via_l_value():
    """(k, tol) -> SL(k)/L(k), the product to tol and L(k) by direct summation to tol/100."""
    return _s_via_l_value


@pytest.fixture(scope="session")
def phi_moment_via_l_value(s_via_l_value):
    """(y, q1, tol) -> sum over squarefree k <= y of (S(k) - partial sum to q1)^2, S from s_via_l_value."""

    def moment(y, q1, tol):
        sf = build_squarefree_table(y)
        return math.fsum(
            (s_via_l_value(k, tol) - dirichlet_partial(k, q1)) ** 2 for k in range(1, y + 1) if sf[k]
        )

    return moment


@pytest.fixture
def largest_counts(monkeypatch):
    """The largest byte count that singular's budget checks asked for, keyed by the first 14 characters of each check."""
    counted = {}
    check = singular._check_budget

    def record(nbytes, what):
        counted[what[:14]] = max(nbytes, counted.get(what[:14], 0))
        check(nbytes, what)

    monkeypatch.setattr(singular, "_check_budget", record)
    return counted
