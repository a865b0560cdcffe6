"""References shared by the frozen values on the lmethod route.

The package takes L(k) from the class number formula; these references take
it from the direct sum l_value instead, so a pinned value is also checked
against an independent computation at a much tighter tolerance.  Two
fixtures measure memory: the byte counts of the budget checks, and the
tracemalloc peak of a call.
"""

import math
import tracemalloc
from functools import lru_cache

import pytest

from quadprime import moments, sieve, singular
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
    """The largest byte count that the budget checks asked for, keyed by the first 14 characters of each check."""
    counted = {}
    check = sieve._check_budget

    def record(nbytes, what):
        counted[what[:14]] = max(nbytes, counted.get(what[:14], 0))
        check(nbytes, what)

    for module in (sieve, singular, moments):
        monkeypatch.setattr(module, "_check_budget", record)
    return counted


@pytest.fixture
def traced_peak():
    """(f, *args) -> (f(*args), the tracemalloc peak of the call), tracing started and reset before it and stopped after."""

    def peak(f, *args):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            return f(*args), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
