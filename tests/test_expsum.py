"""Exponential sums, Dirichlet characters, Gauss sums, the exact major-arc
decompositions, the circle-integral oracle, and the character-walk bound."""

import cmath
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from quadprime import cli, expsum
from quadprime.arith import divisors, mobius_phi
from quadprime.cli import check_pv
from quadprime.expsum import (
    ArcPoint,
    Character,
    _box_diagonal,
    _cached_character_table,
    _character_orders,
    _conjugate_indices,
    _diameter,
    _extent,
    _half_walks,
    _pair_representatives,
    _unit_cycles,
    build_character_table,
    circle_psi_oracle,
    decompose_s1,
    decompose_s2,
    g_quadratic,
    gauss_sum,
    pv_check,
    s1,
    s2,
    weyl_ratio,
)
from quadprime.moments import psi_value
from quadprime.sieve import build_lambda_table


@pytest.fixture(scope="module")
def lam():
    return build_lambda_table(1100 * 1100 + 20)


def brute_s1(theta, z, lam):
    return sum(v * cmath.exp(2j * cmath.pi * theta * m) for m, v in enumerate(lam.window(1, z).tolist(), 1))


def brute_s2(theta, x):
    return sum(cmath.exp(-2j * cmath.pi * theta * n * n) for n in range(1, x + 1))


def brute_gauss(ch):
    return sum(ch(n) * cmath.exp(2j * cmath.pi * n / ch.q) for n in range(ch.q))


def brute_quadratic_gauss(a, q):
    return sum(
        cmath.exp(-2j * cmath.pi * a * l * l / q)
        for l in range(1, q + 1)
        if math.gcd(l, q) == 1
    )


def brute_conductor(ch):
    q = ch.q
    for d in sorted(d for d in range(1, q + 1) if q % d == 0):
        if all(
            abs(ch(n) - 1) < 1e-9
            for n in range(1, q + 1)
            if math.gcd(n, q) == 1 and n % d == 1 % d
        ):
            return d
    return q


def per_character_table(q):
    """The characters mod q one at a time, in index order, each row built on its own.

    Reference oracle for the batched build: the same cycle logs, but one
    exponent row reduced mod lam (the lcm of the cycle orders), one gather
    from the lam-th roots of unity and one conductor scan over every divisor
    per character.
    """
    cycle_logs, unit_mask = _unit_cycles(q)
    cycle_orders = [order for order, _ in cycle_logs]
    lam = math.lcm(*cycle_orders)
    roots = np.exp(2j * np.pi * np.arange(lam) / lam)
    for m in range(1, lam):
        if 2 * m > lam:
            roots[m] = roots[lam - m].conjugate()
        elif 2 * m == lam:
            roots[m] = -1.0
    n = np.arange(q, dtype=np.int64)
    div_masks = [(d, unit_mask & (n % d == 1 % d)) for d in divisors(q)]
    for index in range(math.prod(cycle_orders)):
        rem, exps = index, []
        for o in cycle_orders:
            exps.append(rem % o)
            rem //= o
        m = np.zeros(q, dtype=np.int64)
        for (order, logs), j in zip(cycle_logs, exps):
            m += j * logs * (lam // order)
        values = np.where(unit_mask, roots[m % lam], 0.0 + 0.0j)
        order = 1
        for o, j in zip(cycle_orders, exps):
            order = math.lcm(order, o // math.gcd(o, j))
        conductor = q
        for d, mask in div_masks:
            if np.all(np.abs(values[mask] - 1.0) < 1e-9):
                conductor = d
                break
        yield Character(q, index, values, order, order == 1, order <= 2, conductor)


def exhaustive_max_sum(q):
    """max over non-principal chi mod q of the exact diameter of its walk, no pruning."""
    walks = (
        np.concatenate([[0.0 + 0.0j], np.cumsum(ch.values[1:])])
        for ch in build_character_table(q).chars
        if not ch.is_principal
    )
    return max((_diameter(w) for w in walks), default=0.0)


# ---------------------------------------------------------------------------
# arc points and raw sums


def test_arc_point_validation():
    pt = ArcPoint(2, 5, 1e-4)
    assert pt.theta == pytest.approx(2 / 5 + 1e-4)
    with pytest.raises(ValueError):
        ArcPoint(2, 4, 0.0)  # gcd(a, q) > 1
    with pytest.raises(ValueError):
        ArcPoint(5, 5, 0.0)  # a out of range
    with pytest.raises(ValueError):
        ArcPoint(1, 0, 0.0)


def test_s1_matches_brute_force(lam):
    for theta in (0.0, 1 / 3, 2 / 5 + 1e-4, 0.7071):
        assert s1(theta, 200, lam) == pytest.approx(brute_s1(theta, 200, lam), abs=1e-9)


def test_s2_matches_brute_force():
    for theta in (0.0, 1 / 3, 2 / 7 - 1e-4, 0.3183):
        assert s2(theta, 150) == pytest.approx(brute_s2(theta, 150), abs=1e-9)


S1_FROZEN = {
    (1, 3, 0.0, 100): -40.43098188267004 + 1.0755118221177238j,
    (2, 5, 1e-4, 500): -117.60785869087206 - 28.709486672640544j,
    (0, 1, 0.0, 50): 49.485380792418376 + 0j,
}
S2_FROZEN = {
    (1, 3, 0.0, 50): -0.9999999999951542 - 29.444863728673702j,
    (2, 7, -1e-4, 200): 6.330442143923541 - 8.994355842359596j,
}


@pytest.mark.parametrize("key,expect", sorted(S1_FROZEN.items()))
def test_s1_frozen_values(key, expect, lam):
    a, q, beta, z = key
    got = s1(ArcPoint(a, q, beta).theta, z, lam)
    assert got == pytest.approx(expect, abs=1e-8)


@pytest.mark.parametrize("key,expect", sorted(S2_FROZEN.items()))
def test_s2_frozen_values(key, expect):
    a, q, beta, x = key
    assert s2(ArcPoint(a, q, beta).theta, x) == pytest.approx(expect, abs=1e-8)


# ---------------------------------------------------------------------------
# character tables


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 8, 9, 12, 15, 16, 21, 24, 27, 32, 45])
def test_character_group_structure(q):
    tab = build_character_table(q)
    phi = mobius_phi(q)[1] if q > 1 else 1
    assert len(tab.chars) == phi == tab.phi

    for ch in tab.chars:
        # supported exactly on the units, with modulus-1 values there
        for n in range(q):
            if math.gcd(n, q) == 1:
                assert abs(abs(ch(n)) - 1.0) < 1e-12
            else:
                assert ch(n) == 0
        # multiplicative
        for m in (2, 3, 5, 7):
            for n in (3, 4, 11):
                assert ch(m * n) == pytest.approx(ch(m) * ch(n), abs=1e-12)
        # row orthogonality
        row = sum(ch(n) for n in range(q)) if q > 1 else ch(0)
        if ch.is_principal:
            assert row == pytest.approx(phi if q > 1 else 1, abs=1e-9)
        else:
            assert row == pytest.approx(0, abs=1e-9)

    # column orthogonality at a non-unit-1 point
    if phi > 1:
        n = next(m for m in range(2, q) if math.gcd(m, q) == 1)
        col = sum(ch(n) for ch in tab.chars)
        assert col == pytest.approx(0, abs=1e-9)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 12, 15, 16, 40])
def test_character_order_and_reality(q):
    tab = build_character_table(q)
    reals = 0
    for ch in tab.chars:
        powers = np.ones(q, dtype=np.complex128)
        seen_principal_at = None
        for j in range(1, ch.order + 1):
            powers = powers * ch.values
            on_units = [powers[n] for n in range(q) if math.gcd(n, q) == 1]
            if all(abs(v - 1) < 1e-9 for v in on_units):
                seen_principal_at = j
                break
        assert seen_principal_at == ch.order
        assert ch.is_real == (ch.order <= 2)
        reals += ch.is_real
    # the number of real characters is the number of square roots of chi0
    squares = sum(
        1
        for ch in tab.chars
        if all(abs(ch(n) ** 2 - 1) < 1e-9 for n in range(q) if math.gcd(n, q) == 1)
    )
    assert reals == squares


@pytest.mark.parametrize("q", list(range(1, 41)))
def test_conductor_matches_brute_force(q):
    for ch in build_character_table(q).chars:
        assert ch.conductor == brute_conductor(ch), (q, ch.index)


def test_character_table_ceiling():
    with pytest.raises(ValueError):
        build_character_table(20001)


def assert_table_matches_oracle(q):
    tab = build_character_table(q)
    count = 0
    for ch, ref in zip(tab.chars, per_character_table(q), strict=True):
        assert ch.values.tobytes() == ref.values.tobytes(), (q, ch.index)
        assert (ch.index, ch.order, ch.conductor, ch.is_real, ch.is_principal) == (
            ref.index, ref.order, ref.conductor, ref.is_real, ref.is_principal
        ), (q, ch.index)
        count += 1
    assert count == tab.phi == tab.values.shape[0]


def test_batched_table_equals_per_character_oracle():
    for q in range(1, 301):
        assert_table_matches_oracle(q)


@settings(max_examples=8, deadline=None)
@given(q=st.integers(min_value=301, max_value=3000))
@example(q=2048)
@example(q=2310)
@example(q=2997)
def test_batched_table_equals_per_character_oracle_large_q(q):
    assert_table_matches_oracle(q)


def float_phase_values(q):
    """The characters mod q on the units as exp(2 pi i sum_c j_c log_c / o_c): one float phase sum per entry."""
    cycle_logs, unit_mask = _unit_cycles(q)
    rem = np.arange(math.prod(order for order, _ in cycle_logs))
    frac = np.zeros((len(rem), q))
    for order, logs in cycle_logs:
        frac += np.multiply.outer(rem % order, logs) / order
        rem //= order
    return np.exp(2j * np.pi * frac[:, unit_mask])


def unit_columns(q):
    return np.flatnonzero(np.gcd(np.arange(q), q) == 1)


def test_character_values_match_the_float_phase_route():
    for q in range(1, 301):
        values = build_character_table(q).values[:, unit_columns(q)]
        assert np.abs(values - float_phase_values(q)).max() <= 1e-12, q


def test_character_values_are_multiplicative_to_rounding():
    worst = 0.0
    for q in range(1, 301):
        values, u = build_character_table(q).values, unit_columns(q)
        for b in u[:: max(1, len(u) // 8)]:
            worst = max(worst, np.abs(values[:, u * b % q] - values[:, u] * values[:, [b]]).max())
    assert worst <= 1e-14


def test_character_values_to_their_order_are_one():
    worst = 0.0
    for q in range(1, 301):
        tab = build_character_table(q)
        base = tab.values[:, unit_columns(q)].copy()
        power = np.ones_like(base)
        e = np.array([ch.order for ch in tab.chars])
        while e.any():  # binary powering, one bit of every row's order per step
            odd = (e & 1).astype(bool)
            power[odd] *= base[odd]
            base *= base
            e >>= 1
        worst = max(worst, np.abs(power - 1).max())
    assert worst <= 1e-12


def test_character_values_are_read_only():
    tab = build_character_table(12)
    with pytest.raises(ValueError):
        tab.chars[1].values[1] = 0.0
    with pytest.raises(ValueError):
        tab.values[0, 1] = 0.0
    assert tab.chars[1].values[1] == pytest.approx(1.0)


def test_character_table_budget_counts_the_build_peak(monkeypatch):
    q = 499  # prime: phi = 498
    entries = 498 * q
    monkeypatch.setenv("QUADPRIME_BUDGET_BYTES", str(24 * entries))  # fits 16 B/entry, not 40
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match="budget"):
            build_character_table(q)
        assert tracemalloc.get_traced_memory()[1] < 8 * entries  # refused before the value matrix
        monkeypatch.setenv("QUADPRIME_BUDGET_BYTES", str(40 * entries))
        tracemalloc.reset_peak()
        tab = build_character_table(q)
        assert tracemalloc.get_traced_memory()[1] <= 40 * entries + (1 << 20)
    finally:
        tracemalloc.stop()
    assert tab.phi == 498


def test_pv_check_budget_counts_the_table_peak(monkeypatch):
    q = 499  # prime: phi = 498, 2 real characters, so (498 + 2) / 2 rows are built
    built = 250 * q
    monkeypatch.setenv("QUADPRIME_BUDGET_BYTES", str(33 * built - 1))
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match="character table mod 499"):
            pv_check(q)
        assert tracemalloc.get_traced_memory()[1] < 8 * built  # refused before the value matrix
    finally:
        tracemalloc.stop()
    monkeypatch.setenv("QUADPRIME_BUDGET_BYTES", str(33 * built))
    assert pv_check(q).passed


@pytest.mark.parametrize("q", [499, 840, 997, 1024])
def test_pv_check_peak_fits_its_budget_count(q, monkeypatch, traced_peak):
    counted = []
    monkeypatch.setattr(expsum, "_check_budget", lambda nbytes, what: counted.append(nbytes))
    _, peak = traced_peak(pv_check, q)
    conj = _conjugate_indices(cycle_orders(q))
    built = int(np.count_nonzero(np.arange(len(conj)) <= conj))
    assert counted == [33 * built * q]
    assert peak <= counted[0]


# ---------------------------------------------------------------------------
# Gauss sums


@pytest.mark.parametrize("q", list(range(1, 25)))
def test_gauss_sum_matches_brute_force(q):
    for ch in build_character_table(q).chars:
        assert gauss_sum(ch) == pytest.approx(brute_gauss(ch), abs=1e-9)


@pytest.mark.parametrize("q", list(range(2, 51)))
def test_gauss_modulus_on_primitive_characters(q):
    for ch in build_character_table(q).chars:
        if ch.is_primitive:
            assert abs(gauss_sum(ch)) == pytest.approx(math.sqrt(q), abs=1e-9)


def test_gauss_sum_of_principal_is_mobius():
    for q in (1, 2, 3, 4, 6, 10, 12, 15, 30):
        mu = mobius_phi(q)[0]
        (principal,) = [ch for ch in build_character_table(q).chars if ch.is_principal]
        assert gauss_sum(principal) == pytest.approx(mu, abs=1e-9)


@pytest.mark.parametrize("q", [1, 3, 4, 5, 8, 9, 12, 15, 21, 35])
def test_quadratic_gauss_sum_identity(q):
    """sum over real characters of tau(conj chi) chi(-a) rebuilds the quadratic sum."""
    tab = build_character_table(q)
    for a in range(q):
        if math.gcd(a, q) != 1:
            continue
        lhs = sum(
            gauss_sum_conj(ch) * ch(-a) for ch in tab.chars if ch.order <= 2
        )
        assert lhs == pytest.approx(brute_quadratic_gauss(a, q), abs=1e-9)
        assert g_quadratic(a, q) == pytest.approx(brute_quadratic_gauss(a, q), abs=1e-9)


def gauss_sum_conj(ch):
    return sum(ch(n).conjugate() * cmath.exp(2j * cmath.pi * n / ch.q) for n in range(ch.q))


@pytest.mark.parametrize("q", [1, 5, 12, 15, 16, 21])
def test_cached_tau_bars_are_the_conjugate_gauss_sums(q):
    table, tau_bars = _cached_character_table(q)
    assert len(tau_bars) == table.phi
    for ch, tau_bar in zip(table.chars, tau_bars):
        assert tau_bar == pytest.approx(gauss_sum_conj(ch), abs=1e-9)


# ---------------------------------------------------------------------------
# exact decompositions


DECOMP_GRID = [
    (0, 1, 0.0), (1, 3, 0.0), (2, 3, 1e-4), (1, 4, -1e-4), (3, 8, 0.0),
    (2, 9, 1e-4), (5, 12, 0.0), (7, 30, -1e-4), (10, 49, 0.0), (11, 60, 1e-4),
]


@pytest.mark.parametrize("a,q,beta", DECOMP_GRID)
def test_s1_decomposition_is_exact(a, q, beta, lam):
    arc = ArcPoint(a, q, beta)
    for z in (100, 1000):
        t1, e1, r = decompose_s1(arc, z, lam)
        direct = s1(arc.theta, z, lam)
        assert t1 + e1 + r == pytest.approx(direct, abs=1e-8 * z)
        assert abs(r) <= math.log(z) ** 2 + 1


@pytest.mark.parametrize("a,q,beta", DECOMP_GRID)
def test_s2_decomposition_is_exact(a, q, beta):
    arc = ArcPoint(a, q, beta)
    for x in (10, 100):
        t2, e2 = decompose_s2(arc, x)
        assert t2 + e2 == pytest.approx(s2(arc.theta, x), abs=1e-8 * x)


def test_s1_decomposition_main_term_dominates_at_rational(lam):
    # at theta = 1/3 (beta = 0) the main term carries the full expected size
    arc = ArcPoint(1, 3, 0.0)
    t1, e1, r = decompose_s1(arc, 1000, lam)
    assert abs(t1) == pytest.approx(1000 / 2, rel=0.05)


# ---------------------------------------------------------------------------
# circle-integral oracle


CIRCLE_FROZEN = {
    (10, 1): 13.36183686653575,
    (15, 4): 24.401573704480302,
}


@pytest.mark.parametrize("key,expect", sorted(CIRCLE_FROZEN.items()))
def test_circle_oracle_frozen(key, expect, lam):
    x, k = key
    assert circle_psi_oracle(x, k, lam) == pytest.approx(expect, abs=1e-9)


def test_circle_oracle_equals_direct_count(lam):
    for x in (5, 12, 20):
        for k in (1, 2, 7, 10):
            got = circle_psi_oracle(x, k, lam)
            assert got == pytest.approx(psi_value(x, k, lam), abs=1e-6), (x, k)


def test_circle_oracle_work_ceiling(monkeypatch):
    monkeypatch.setattr(expsum, "ORACLE_WORK_CEILING", 1000)
    small = build_lambda_table(3000)
    with pytest.raises(MemoryError, match="work"):
        circle_psi_oracle(50, 1, small)


# ---------------------------------------------------------------------------
# minor-arc ratio and character-walk bound


WEYL_FROZEN = {
    (100, 1, 7, 0.0): 0.12635837213551576,
    (1000, 3, 11, 5e-5): 0.008407832856030473,
}


@pytest.mark.parametrize("key,expect", sorted(WEYL_FROZEN.items()))
def test_weyl_ratio_frozen(key, expect):
    x, a, q, beta = key
    assert weyl_ratio(ArcPoint(a, q, beta), x) == pytest.approx(expect, rel=1e-12)


def test_weyl_ratio_rejects_wide_beta():
    with pytest.raises(ValueError):
        weyl_ratio(ArcPoint(1, 7, 0.5), 100)


def brute_max_window(ch):
    """max over all windows [a+1, b] of |sum chi(n)|, via the periodic walk."""
    q = ch.q
    walk = [0j]
    for n in range(1, 2 * q + 1):
        walk.append(walk[-1] + ch(n))
    return max(abs(walk[b] - walk[a]) for a in range(q) for b in range(a + 1, a + q + 1))


@pytest.mark.parametrize("q", list(range(2, 41)))
def test_pv_max_window_matches_brute_force(q):
    report = pv_check(q)
    tab = build_character_table(q)
    worst = max(
        (brute_max_window(ch) for ch in tab.chars if not ch.is_principal),
        default=0.0,
    )
    assert report.max_sum == pytest.approx(worst, abs=1e-9)
    assert report.bound == pytest.approx(6 * math.sqrt(q) * math.log(q), rel=1e-12)
    assert report.passed


def test_pv_pruned_max_equals_exhaustive_diameter():
    for q in range(2, 301):
        assert pv_check(q).max_sum == exhaustive_max_sum(q), q


@settings(max_examples=8, deadline=None)
@given(q=st.integers(min_value=301, max_value=2000))
@example(q=1024)
@example(q=1155)
def test_pv_pruned_max_equals_exhaustive_diameter_large_q(q):
    assert pv_check(q).max_sum == exhaustive_max_sum(q)


def cycle_orders(q):
    return [order for order, _ in _unit_cycles(q)[0]]


UNIT_CYCLE_SHA256 = {
    8: "15d5902760638fdd790e11574e7d0c1107e013d0bf938f1f3db5383b73d1ed67",
    16: "4d91a589ac59afebfe0fc02786d18dd282e39abf976475bf1fe34cafa46158ea",
    2048: "849c23b9bc67fb456cffbc11beb22f56e4bf4bfa9f785c10432f610320a9c3f0",
    2310: "788f401b141a826c7701dda3d1794fb15f4ae7addbfdbbaf71f7a46a751436e4",
    4096: "a95324fe5bd8a6b8a25404b502bc5a6f3529220d7b91e768b4f08b7f970d83e8",
    9240: "874d0e03d1021d48e560e370903550d7b936410af783236cfc9303984478c82c",
    9801: "7b4bab6fd7e09d1374d6f0579f61eb2a92975b14d957f42cf61e375760c7ac9c",
}


@pytest.mark.parametrize("q", sorted(UNIT_CYCLE_SHA256))
def test_unit_cycle_logs_are_pinned(q):
    """The generators and the order of the cycles fix every character's index; the oracles above read the same logs."""
    cycle_logs, unit_mask = _unit_cycles(q)
    h = hashlib.sha256()
    for order, logs in cycle_logs:
        h.update(np.int64(order).tobytes())
        h.update(logs[unit_mask].astype(np.int64).tobytes())
    assert h.hexdigest() == UNIT_CYCLE_SHA256[q]


def assert_rows_are_conjugate_symmetric(q):
    tab = build_character_table(q)
    conj = _conjugate_indices(cycle_orders(q))
    for ch in tab.chars:
        assert np.array_equal(tab.values[conj[ch.index]], ch.values.conj()), (q, ch.index)
        if ch.order <= 2:
            assert np.all(ch.values.imag == 0.0), (q, ch.index)


def test_conjugate_rows_are_exact_mirrors():
    for q in range(1, 301):
        assert_rows_are_conjugate_symmetric(q)


@settings(max_examples=8, deadline=None)
@given(q=st.integers(min_value=301, max_value=3000))
@example(q=2048)
@example(q=2310)
def test_conjugate_rows_are_exact_mirrors_large_q(q):
    assert_rows_are_conjugate_symmetric(q)


def test_pair_representatives_cover_every_index_once():
    for q in range(1, 301):
        conj = _conjugate_indices(cycle_orders(q))
        phi, index = len(conj), np.arange(len(conj))
        reals = int(np.count_nonzero(conj == index))
        reps = _pair_representatives(cycle_orders(q))
        assert len(reps) * 2 == phi + reals, q
        covered = np.concatenate([reps, conj[reps][conj[reps] != reps]])
        assert np.array_equal(np.sort(covered), index), q
        assert np.array_equal(conj[conj], index), q
        orders = _character_orders(cycle_orders(q), reps)
        real_chars = sum(ch.is_real for ch in build_character_table(q).chars)
        assert len(orders) == len(reps) and np.count_nonzero(orders <= 2) == reals == real_chars, q


def assert_half_walk_brackets_match_full_walks(q):
    """pv_check's box, from half walks and their images, against the full-period walks."""
    tab = build_character_table(q)
    cycle_logs, unit_mask = _unit_cycles(q)
    index = np.array([ch.index for ch in tab.chars if not ch.is_principal], dtype=np.int64)
    half, even = _half_walks(cycle_logs, unit_mask, index)
    full = np.cumsum(tab.values[index], axis=1)  # [0, S(1), ..., S(q-1)]
    assert np.array_equal(even, tab.values[index, q - 1] == 1.0), q
    tol = 1e-12 * np.abs(full).max(axis=1, initial=1.0)
    for got, want in [
        (_extent(half.real, even), np.ptp(full.real, axis=1)),
        (_extent(half.imag, even), np.ptp(full.imag, axis=1)),
    ]:
        assert np.all(np.abs(got - want) <= tol), q


def test_half_walk_brackets_match_full_walks():
    for q in range(2, 301):
        assert_half_walk_brackets_match_full_walks(q)


@settings(max_examples=8, deadline=None)
@given(q=st.integers(min_value=301, max_value=3000))
@example(q=2048)
@example(q=2310)
def test_half_walk_brackets_match_full_walks_large_q(q):
    assert_half_walk_brackets_match_full_walks(q)


def assert_box_diagonal_bounds_every_walk(q):
    """pv_check's bracket: the half walk's box diagonal, with its margin, is no shorter than the full walk's diameter."""
    tab = build_character_table(q)
    cycle_logs, unit_mask = _unit_cycles(q)
    index = np.array([ch.index for ch in tab.chars if not ch.is_principal], dtype=np.int64)
    half, even = _half_walks(cycle_logs, unit_mask, index)
    bracket = _box_diagonal(half, even) * (1.0 + expsum._PV_MARGIN)
    for i, upper in zip(index.tolist(), bracket.tolist()):
        walk = np.concatenate([[0.0 + 0.0j], np.cumsum(tab.values[i, 1:])])  # the walk of exhaustive_max_sum
        assert upper >= _diameter(walk), (q, i)


def test_box_diagonal_bounds_every_walk():
    for q in range(2, 301):
        assert_box_diagonal_bounds_every_walk(q)


@settings(max_examples=8, deadline=None)
@given(q=st.integers(min_value=301, max_value=3000))
@example(q=2048)
@example(q=2310)
def test_box_diagonal_bounds_every_walk_large_q(q):
    assert_box_diagonal_bounds_every_walk(q)


# moduli where a diameter that depends on the points' orientation gave a walk and its mirror image different
# floats; pv_check walks one character of each conjugate pair, so it needs them equal
@pytest.mark.parametrize("q", [31, 43, 244, 540])
def test_diameter_is_the_same_for_a_walk_and_its_mirror(q):
    for walk in np.cumsum(build_character_table(q).values, axis=1):
        assert _diameter(walk) == _diameter(walk.conj()), q
    assert pv_check(q).max_sum == exhaustive_max_sum(q)


def assert_diameter_is_exact(points):
    """_diameter of the points and of their mirror image is pdist's max over the unique points."""
    pts = np.unique(points)
    want = float(pdist(np.column_stack([pts.real, pts.imag])).max(initial=0.0))
    assert _diameter(points) == want
    assert _diameter(points.conj()) == want


def random_points(rng, shape):
    """1 to 60 points drawn by rng in one of the shapes that a wrong prune of _diameter fails on."""
    n = int(rng.integers(1, 61))
    if shape == "square":
        return rng.uniform(-1e3, 1e3, n) + 1j * rng.uniform(-1e3, 1e3, n)
    if shape == "ring":  # near-antipodal pairs at every angle, most extreme on none of the K directions
        return np.exp(2j * np.pi * rng.uniform(0, 1, n)) * (1 + 1e-3 * rng.uniform(-1, 1, n))
    if shape == "offset":  # the projections' rounding, a few ulps of 1e9-1e13, exceeds the spread
        centre = 10 ** rng.uniform(9, 13) * np.exp(2j * np.pi * rng.uniform())
        return centre + 10 ** rng.uniform(-6, -2) * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    angle = 0.0 if shape == "axis" else rng.uniform(0, np.pi)
    start = rng.uniform(-10, 10) + (0.0 if shape == "axis" else 1j * rng.uniform(-10, 10))
    return start + rng.uniform(-5, 5, n) * np.exp(1j * angle)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(["square", "ring", "offset", "line", "axis"]))
@example(seed=0, shape="ring")  # fails a prune without the W(1/c - 1) slabs
@example(seed=1, shape="offset")  # fails a margin relative to W
def test_diameter_is_pdist_max_on_random_sets(seed, shape):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        assert_diameter_is_exact(random_points(rng, shape))


@settings(max_examples=100, deadline=None)
@given(
    points=st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False), min_size=1, max_size=20),
    copies=st.integers(1, 3),
)
@example(points=[0j], copies=1)
@example(points=[3 - 4j], copies=3)
def test_diameter_is_pdist_max_on_single_and_repeated_points(points, copies):
    assert_diameter_is_exact(np.array(points * copies, dtype=np.complex128))


def test_diameter_is_pdist_max_on_every_walk():
    for q in range(1, 201):
        for walk in np.cumsum(build_character_table(q).values, axis=1):
            assert_diameter_is_exact(np.append(0.0, walk))


def test_check_pv_stdout_is_pinned(capsys):
    assert check_pv(120)
    assert capsys.readouterr().out == "pv: q <= 120, tightest at q=5 (ratio 0.093) -> ok\n"


@pytest.mark.parametrize("q_max", [300, 500])  # the bench size and the CLI default
def test_check_pv_stdout_is_pinned_at_the_bench_and_default_sizes(q_max, capsys):
    assert check_pv(q_max)
    assert capsys.readouterr().out == f"pv: q <= {q_max}, tightest at q=5 (ratio 0.093) -> ok\n"


def check_pv_every_q(q_max):
    """check_pv without the running floor: the full report of every q, printed the same way."""
    worst_q, worst_excess = 0, 0.0
    ok = True
    for q in range(2, q_max + 1):
        rep = pv_check(q)
        if not rep.passed:
            ok = False
            print(f"pv: q={q} max window sum {rep.max_sum:.3f} exceeds bound {rep.bound:.3f}")
        excess = rep.max_sum / rep.bound
        if excess > worst_excess:
            worst_q, worst_excess = q, excess
    print(f"pv: q <= {q_max}, tightest at q={worst_q} (ratio {worst_excess:.3f}) -> {'ok' if ok else 'FAIL'}")
    return ok


@pytest.mark.parametrize("q_max", [3, 4, 5, 120, 300])
def test_check_pv_equals_the_report_of_every_q(q_max, capsys):
    ok = check_pv(q_max)
    out = capsys.readouterr().out
    ok_every_q = check_pv_every_q(q_max)
    assert (out, ok) == (capsys.readouterr().out, ok_every_q)


def test_check_pv_prints_every_failure_of_a_smaller_bound(monkeypatch, capsys):
    def small_bound(q):  # a twentieth of 6 sqrt(q) log q: q = 5 reaches ratio 1.85
        return 0.3 * math.sqrt(q) * math.log(q)

    monkeypatch.setattr(expsum, "_pv_bound", small_bound)
    monkeypatch.setattr(cli, "_pv_bound", small_bound)
    ok = check_pv(120)
    out = capsys.readouterr().out
    ok_every_q = check_pv_every_q(120)
    assert (out, ok) == (capsys.readouterr().out, ok_every_q)
    assert not ok and out.count("exceeds bound") > 10


@pytest.mark.parametrize("q_max", [300, 500])  # the bench size and the CLI default
def test_check_pv_runs_an_exact_diameter_only_where_the_verdict_depends_on_it(q_max, monkeypatch):
    calls = []
    monkeypatch.setattr(expsum, "_diameter", lambda points: calls.append(1) or _diameter(points))
    assert check_pv(q_max)
    assert len(calls) <= 3  # q = 3 and q = 5; pv_check(q) for every q makes 891 at 300, 1,500 at 500


@pytest.mark.parametrize("q", [2, 3, 5, 12, 97, 244, 540])
def test_pv_check_floor_is_inclusive(q):
    rep = pv_check(q)
    assert pv_check(q, rep.max_sum) == rep
    assert pv_check(q, 0.5 * rep.max_sum) == rep
    assert pv_check(q, float(np.nextafter(rep.max_sum, np.inf))) is None


def test_pv_check_leaves_the_table_cache_as_it_was():
    _cached_character_table.cache_clear()  # a full cache would hide an insertion
    _cached_character_table(5)
    before = _cached_character_table.cache_info().currsize
    for q in (7, 12, 97, 300):
        pv_check(q)
        assert _cached_character_table.cache_info().currsize == before, q


def test_pv_check_rejects_modulus_one():
    with pytest.raises(ValueError):
        pv_check(1)
