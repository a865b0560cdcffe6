"""psi(x; k), the error psi - S(k) x, moment sweeps, exceptional sets, tail moments, CSV output.

The prime-power weight oracle at the top is a from-scratch trial-division
implementation so the counting side is checked independently of the sieve.
"""

import csv
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadprime import moments, singular
from quadprime.moments import (
    MomentSummary,
    _psi_bulk,
    phi_moment,
    psi_value,
    run_sweep,
    write_errors_csv,
    write_moments_csv,
)
from quadprime.sieve import build_lambda_table, build_mobius_phi_tables, build_squarefree_table
from quadprime.singular import SingularCfg, singular_series, singular_series_lmethod, tail_phi


def brute_lambda(m):
    if m < 2:
        return 0.0
    d = 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            return math.log(d) if m == 1 else 0.0
        d += 1
    return math.log(m)


def brute_psi(x, k):
    return math.fsum(brute_lambda(n * n + k) for n in range(1, x + 1))


def psi_full_width(x, y, dense):
    """psi(x; k) for k = 0..y by one add per n over all k at once, in ascending n, from dense[m] = Lambda(m)."""
    psi = np.zeros(y + 1, dtype=np.float64)
    for n in range(1, x + 1):
        psi[1:] += dense[n * n + 1 : n * n + y + 1]
    return psi


@pytest.fixture(scope="module")
def lam():
    return build_lambda_table(1000 * 1000 + 20)


@pytest.fixture(scope="module")
def dense(lam):
    """Lambda(m) at every m = 0..lam.hi, as the dense table the odd-only one replaced held it."""
    return np.concatenate([[0.0], lam.window(1, lam.hi)])


@pytest.fixture(scope="module")
def cfg():
    return SingularCfg()


# ---------------------------------------------------------------------------
# psi


PSI_FROZEN = {
    (20, 1): 30.188078107475523,
    (100, 1): 117.57519036551795,
    (100, 3): 116.05147856377164,
    (1000, 1): 1239.3369861765805,
    (1000, 7): 1886.890551230662,
}


@pytest.mark.parametrize("x,k,expect", [(x, k, v) for (x, k), v in sorted(PSI_FROZEN.items())])
def test_psi_frozen_values(x, k, expect, lam):
    assert psi_value(x, k, lam) == pytest.approx(expect, rel=1e-13)


def test_psi_matches_brute_force(lam):
    for x in (1, 7, 50):
        for k in (1, 2, 11):
            assert psi_value(x, k, lam) == pytest.approx(brute_psi(x, k), abs=1e-10)


# Blocks of k shorter than y, and y not a multiple of the block, so the
# blocked accumulation is compared over many block edges and a ragged tail.


@settings(max_examples=60, deadline=None)
@given(x=st.integers(1, 60), y=st.integers(1, 400), block=st.integers(1, 64))
@example(x=60, y=400, block=7)
@example(x=1, y=1, block=1)
@example(x=30, y=7, block=7)
def test_psi_bulk_blocks_equal_full_width_oracle(x, y, block, lam, dense):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moments, "_PSI_BLOCK", block)
        got = _psi_bulk(x, y, lam)
    assert np.array_equal(got, psi_full_width(x, y, dense))


# Every x, y and block of the grid, bit for bit: the parity halves, their
# ragged ends, and the n^2 + k = 2^j terms (x = 1, y = 1 is 1 + 1 = 2 alone).
@pytest.mark.parametrize("block", [1, 2, 7, 64, 2**15])
def test_psi_bulk_parity_halves_equal_dense_adds(block, lam, dense, monkeypatch):
    monkeypatch.setattr(moments, "_PSI_BLOCK", block)
    for x in (1, 2, 3, 4, 5, 10, 31, 64):
        for y in (1, 2, 3, 7, 8, 100, 257, 1000, 4097):
            assert np.array_equal(_psi_bulk(x, y, lam), psi_full_width(x, y, dense)), (x, y)


def test_psi_needs_covering_table():
    short = build_lambda_table(50)
    with pytest.raises(IndexError):
        psi_value(10, 1, short)  # needs Lambda up to 101


# ---------------------------------------------------------------------------
# one k


def test_error_arithmetic_at_one_k(lam, cfg):
    psi = psi_value(10, 7, lam)
    sing = singular_series(7, cfg)
    assert psi == 20.30953985760414
    assert sing == 1.9710948911100645
    assert psi - sing * 10 == 0.5985909465034958
    r = run_sweep(10, 100, cfg)
    assert r.squarefree[7]
    assert r.error[7] == pytest.approx(r.psi[7] - r.singular[7] * 10, abs=1e-12)


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_small_frozen(cfg):
    r = run_sweep(10, 100, cfg)
    s = r.summary
    assert s.x == 10 and s.y == 100
    assert s.count_squarefree == 61
    assert s.second_moment == pytest.approx(335.74720278846956, rel=1e-13)
    assert s.normalized == pytest.approx(0.033574720278846955, rel=1e-13)
    assert s.exceptional == {0.5: 1, 1.0: 3, 1.5: 14, 2.0: 24}
    assert len(r.error) == 101  # index = k, slot 0 unused
    assert r.error[1] == pytest.approx(-0.3483882798875584, rel=1e-12)


def test_sweep_medium_frozen(cfg):
    s = run_sweep(40, 1000, cfg).summary
    assert s.count_squarefree == 608
    assert s.second_moment == pytest.approx(26176.68292618025, rel=1e-13)
    assert s.exceptional == {0.5: 0, 1.0: 64, 1.5: 221, 2.0: 405}


def test_sweep_matches_per_k_records(cfg):
    lam = build_lambda_table(15 * 15 + 60)
    r = run_sweep(15, 60, cfg)
    for k in range(1, 61):
        assert r.psi[k] == pytest.approx(psi_value(15, k, lam), abs=1e-12), k
        assert r.singular[k] == pytest.approx(singular_series(k, cfg), rel=1e-13), k


def test_sweep_deterministic_across_runs(cfg):
    runs = [run_sweep(25, 400, cfg) for _ in range(3)]
    base = runs[0]
    for other in runs[1:]:
        assert np.array_equal(base.psi, other.psi)
        assert np.array_equal(base.error, other.error)
        assert base.summary == other.summary


def test_sweep_lmethod_route_matches_per_k(s_via_l_value):
    r = run_sweep(20, 400, SingularCfg(method="lmethod", tol=1e-6))
    for k in range(1, 401):
        assert r.singular[k] == singular_series_lmethod(k, 1e-6), k
    for k in (1, 2, 3, 5, 97, 210, 399, 400):
        assert abs(r.singular[k] - s_via_l_value(k, 1e-8)) <= 1e-6, k


def test_sweep_lmethod_rows_do_not_grow_with_y(largest_counts, monkeypatch):
    x, y, cfg = 91, 4 * singular._LMETHOD_CHUNK, SingularCfg(method="lmethod", tol=1e-4)
    free = run_sweep(x, y, cfg)
    per_chunk = largest_counts["Legendre rows "]
    points = largest_counts["chi and factor"] // (24 * singular._LMETHOD_BLOCK)
    assert per_chunk < (points + 128) * len(singular._odd_primes_upto(y))  # a row for every odd prime <= y
    monkeypatch.setenv("QUADPRIME_BUDGET_BYTES", str(per_chunk))
    assert np.array_equal(run_sweep(x, y, cfg).singular, free.singular)


def test_sweep_warns_on_disproportionate_y(cfg):
    with pytest.warns(UserWarning, match="window"):
        run_sweep(100, 10, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_sweep(10, 100, cfg)  # y = x^2: no warning


def test_sweep_validation(cfg):
    with pytest.raises(ValueError):
        run_sweep(1, 100, cfg)
    with pytest.raises(ValueError):
        run_sweep(10, 0, cfg)


def test_sweep_budget_counts_its_own_arrays(cfg, monkeypatch):
    x, y = 100, 10_000
    # Lambda over [1, 20000] counts 120.6 kB (its odd-m values, primes and logs); psi and S are 160 kB
    monkeypatch.setenv("QUADPRIME_BUDGET_BYTES", "140000")
    build_lambda_table(x * x + y)
    with pytest.raises(MemoryError, match="psi and main-term arrays"):
        run_sweep(x, y, cfg)


def test_sweep_budget_reaches_the_euler_prime_sieve(monkeypatch):
    monkeypatch.setitem(singular._prime_cache, "table", None)
    monkeypatch.setenv("QUADPRIME_BUDGET_BYTES", str(10**5))
    with pytest.raises(MemoryError, match="prime sieve"):
        run_sweep(10, 100, SingularCfg(euler_cutoff=10**6))
    assert singular._prime_cache["table"] is None


# At these sweeps a block summed by np.sum before the fsum gives another
# float at every block size above 1; most sweeps hide that in the last bit.
@pytest.mark.parametrize(
    "x, y, block",
    [
        (120, 3603, 1),
        (120, 3603, 7),  # 3603 = 7 * 514 + 5
        (120, 3603, 3604),  # one block, longer than y
        (140, 2 * 2**13 + 1001, None),  # the module's block: four full and a ragged tail
    ],
)
def test_sweep_summary_does_not_depend_on_the_block(x, y, block, cfg, monkeypatch):
    if block is not None:
        monkeypatch.setattr(moments, "_CSV_BLOCK", block)
    r = run_sweep(x, y, cfg)
    assert np.array_equal(r.error, r.psi - r.singular * float(x))
    sf_errors = r.error[r.squarefree]
    assert r.summary.second_moment == math.fsum(np.square(sf_errors).tolist())
    for b in moments.EXCEPTIONAL_B_GRID:
        assert r.summary.exceptional[b] == int(np.count_nonzero(np.abs(sf_errors) > x / math.log(x) ** b)), b


@pytest.mark.parametrize("x, y", [(640, 640**2), (20, 200_000)])  # Lambda-bound (y = x^2), then array-bound
def test_sweep_peak_is_within_its_counts(x, y, cfg, largest_counts, traced_peak):
    singular._odd_primes_upto(max(cfg.euler_cutoff, x))  # the cached sieve is not the sweep's allocation
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # y > x^2 in the array-bound shape
        _, peak = traced_peak(run_sweep, x, y, cfg)
    arrays = largest_counts["psi and main-t"]  # psi and S: psi lives beside the Lambda table, then the main term
    counted = max(
        arrays // 2 + largest_counts["Lambda table o"],
        arrays // 2 + largest_counts["bulk product o"] + largest_counts["factor rows ov"],
        arrays + largest_counts["squarefree tab"],
    )
    assert peak <= counted + 48 * moments._CSV_BLOCK  # one block of the summary's errors, their squares as floats


# ---------------------------------------------------------------------------
# exceptional sets


def test_exceptional_set_agrees_with_sweep_summary(cfg):
    for x, y in ((20, 300), (30, 500)):
        r = run_sweep(x, y, cfg)
        error = r.error  # derived afresh on each read
        for b in moments.EXCEPTIONAL_B_GRID:
            threshold = x / math.log(x) ** b
            plain = sum(1 for k in range(1, y + 1) if r.squarefree[k] and abs(error[k]) > threshold)
            assert r.summary.exceptional[b] == plain, (x, b)


def test_exceptional_set_monotone_in_b(cfg):
    exceptional = run_sweep(30, 500, cfg).summary.exceptional
    counts = [exceptional[b] for b in (0.5, 1.0, 1.5, 2.0)]
    assert counts == sorted(counts)


# ---------------------------------------------------------------------------
# tail second moment


PHI_MOMENT_FROZEN = {
    (100, 5): 4.480595853285301,
    (100, 20): 1.168808462532083,
    (100, 50): 0.6485293865518802,
}


@pytest.mark.parametrize("y,q1,expect", [(y, q, v) for (y, q), v in sorted(PHI_MOMENT_FROZEN.items())])
def test_phi_moment_frozen(y, q1, expect, phi_moment_via_l_value):
    value = phi_moment(y, q1, 1e-3)
    assert value == pytest.approx(expect, abs=1e-6)
    # S(k) to 1e-7 through the direct-sum L-value, 10^4 times tighter than tol
    assert abs(value - phi_moment_via_l_value(y, q1, 1e-7)) <= 1e-3


@pytest.mark.parametrize(
    "y,q1,tol",
    [
        (1, 5, 1e-3),
        (200, 1, 1e-3),
        (100, 500, 1e-2),  # q1 past every SL cutoff prime
        (1000, 500, 1e-3),
        (3000, 2000, 1e-5),
    ],
)
def test_phi_moment_equals_the_scalar_tails_exactly(y, q1, tol):
    sf = build_squarefree_table(y)
    ks = [k for k in range(1, y + 1) if sf[k]]
    if q1 == 500 and tol == 1e-2:
        l_min = min(math.pi * singular.class_number(k) / ((4 if k == 1 else 2) * math.sqrt(k)) for k in ks)
        assert singular._sl_cutoff(tol * l_min / 2.0) < q1
    mu, phi = build_mobius_phi_tables(q1)
    tails = [tail_phi(k, q1, tol, mu=mu, phi=phi) for k in ks]
    assert phi_moment(y, q1, tol) == math.fsum(t * t for t in tails)


def test_phi_moment_decreasing_in_cutoff():
    vals = [phi_moment(100, q1, 1e-3) for q1 in (5, 20, 50)]
    assert vals[0] > vals[1] > vals[2]


def test_phi_moment_validation():
    with pytest.raises(ValueError):
        phi_moment(0, 5, 1e-3)
    with pytest.raises(ValueError):
        phi_moment(100, 0, 1e-3)
    with pytest.raises(ValueError):
        phi_moment(100, 5, 0.0)


# ---------------------------------------------------------------------------
# CSV output


def test_errors_csv_golden(tmp_path, cfg):
    r = run_sweep(10, 100, cfg)
    path = tmp_path / "errors.csv"
    write_errors_csv(r, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "k,squarefree,psi,singular,error"
    assert lines[1] == "1,1,13.3618368665,1.37102251464,-0.348388279888"
    assert lines[2] == "2,1,9.01396045793,0.712544427995,1.88851617798"
    assert len(lines) == 101


def csv_writer_bytes(r, path):
    """errors.csv as csv.writer writes it: the reference for write_errors_csv."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "squarefree", "psi", "singular", "error"])
        error = r.error  # derived afresh on each read of a SweepResult
        for k in range(1, r.summary.y + 1):
            floats = (r.psi[k], r.singular[k], error[k])
            w.writerow([k, int(r.squarefree[k])] + [format(float(v), ".12g") for v in floats])
    return path.read_bytes()


class FloatColumns:
    """Three independent float columns at k = 1..n, squarefree at odd k, as the rows of errors.csv."""

    def __init__(self, psi, singular, error):
        self.cols = [np.concatenate([[0.0], np.asarray(c, dtype=np.float64)]) for c in (psi, singular, error)]
        self.squarefree = np.arange(len(psi) + 1) % 2 == 1
        self.summary = MomentSummary(x=2, y=len(psi), count_squarefree=0, second_moment=0.0, normalized=0.0)
        self.psi, self.singular, self.error = self.cols

    def write(self, path):
        """errors.csv through the writer's kernel, which reads these columns as they are."""
        moments._write_rows(str(path), self.squarefree, lambda lo, hi: [c[lo:hi] for c in self.cols])



@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


def test_errors_csv_bytes_match_csv_writer_across_blocks(tmp_path, cfg, monkeypatch):
    r = run_sweep(10, 100, cfg)
    want = csv_writer_bytes(r, tmp_path / "want.csv")
    monkeypatch.setattr(moments, "_CSV_BLOCK", 7)  # 100 rows: 14 full blocks and a partial one
    got = tmp_path / "got.csv"
    write_errors_csv(r, str(got))
    assert got.read_bytes() == want


def test_errors_csv_whole_file_is_pinned(tmp_path, cfg):
    path = tmp_path / "errors.csv"
    write_errors_csv(run_sweep(100, 10_000, cfg), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "f25a30a7b737c517aa307f2924699c5f709a1cb91356ce2e3b5ff17fe6712632"
    )


# Values at the edges of the numpy kernel in write_errors_csv.  The last four
# were found by a search: for each, rint(fl(a 10^(11-e))) is not the correctly
# rounded 12-digit significand, because the product rounds onto a half.
KERNEL_EDGES = [
    *(b for v in (0.0, 5e-324, 1e-4, 1e11) for b in (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf))),
    *(np.nextafter(10.0**j, 0) for j in range(-3, 11)),  # log10 rounds most of these up to j
    -0.0,
    9.9999999999995,
    0.99999999999995,
    1200.0,
    100.0,
    2.5,
    1234.5,
    0.0009537845024235,
    3360820063.975,
    3.492020836405,
    75231094.66965,
]
FALLBACK_CLASSES = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308,  # zeros, non-finite, tiny
    9.99e-5, 1e-300, 1e11, 123456789012.0, 1.5e300,  # outside [1e-4, 1e11)
    0.0009537845024235, 3360820063.975, 3.492020836405,  # within the half-window
]


def with_examples(values):
    def apply(test):
        for v in values:
            test = example(float(v))(test)
        return test

    return apply


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@with_examples(KERNEL_EDGES)
def test_errors_csv_floats_are_written_as_format_writes_them(csv_dir, v):
    path = csv_dir / "one.csv"
    FloatColumns([v], [-v], [v]).write(path)
    row = ",".join(format(u, ".12g") for u in (v, -v, v))
    assert path.read_bytes() == f"k,squarefree,psi,singular,error\r\n1,1,{row}\r\n".encode()


def test_errors_csv_every_fallback_class_matches_csv_writer(tmp_path, monkeypatch):
    fast = [1.0, -0.5, 13.3618368665, 99999999999.0, 1e-4, 0.000123, 9.9999999999995]
    values = FALLBACK_CLASSES + fast
    r = FloatColumns(values, values[::-1], values[7:] + values[:7])
    want = csv_writer_bytes(r, tmp_path / "want.csv")
    monkeypatch.setattr(moments, "_CSV_BLOCK", 5)  # some blocks all fallback, some mixed
    got = tmp_path / "got.csv"
    r.write(got)
    assert got.read_bytes() == want


def test_errors_csv_bytes_match_format_over_a_broad_sample(tmp_path):
    rng = np.random.default_rng(20)
    values = np.concatenate(
        [
            10 ** rng.uniform(-6, 13, 20_000),
            np.arange(1, 10_001) / 8,
            np.arange(1, 10_001) / 1000,
            rng.integers(0, 2**63, 10_000, dtype=np.uint64).view(np.float64),
        ]
    )
    values.view(np.uint64)[::2] ^= np.uint64(1 << 63)  # flip the sign bit, NaNs included
    r = FloatColumns(values, values[::-1], np.roll(values, 1))
    got = tmp_path / "got.csv"
    r.write(got)
    assert got.read_bytes() == csv_writer_bytes(r, tmp_path / "want.csv")


def test_moments_csv_golden(tmp_path, cfg):
    s = run_sweep(10, 100, cfg).summary
    path = tmp_path / "moments.csv"
    write_moments_csv([s], str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,count_squarefree,second_moment,normalized,exc_B0.5,exc_B1,exc_B1.5,exc_B2"
    assert lines[1] == "10,100,61,335.747202788,0.0335747202788,1,3,14,24"


def test_csv_bytes_identical_across_runs(tmp_path, cfg):
    paths = []
    for tag in ("a", "b"):
        r = run_sweep(30, 900, cfg)
        p = tmp_path / f"errors_{tag}.csv"
        write_errors_csv(r, str(p))
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()
