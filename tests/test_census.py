from fractions import Fraction

import pytest

from indecpoly.fields import GuardExceeded
from indecpoly.census import (bd_lemma_check, bounds_check_n2, count_closed_small,
                              count_recursive, count_total, count_uni, enumerate_census,
                              enumerate_census_parallel, merge_reports, partition_ranges,
                              trend_table)


def test_count_total_values():
    assert count_total(2, 2, 2) == 56
    assert count_total(3, 1, 4) == 162
    assert count_total(2, 2, 1) == 6
    assert count_total(2, 2, 3) == 960
    assert count_total(2, 2, 4) == 31744


def test_recursion_small_values():
    r2 = count_recursive(2, 2, 2)
    assert (r2.decomposable, r2.indecomposable) == (12, 44)
    r3 = count_recursive(2, 2, 3)
    assert (r3.decomposable, r3.indecomposable) == (24, 936)
    r4 = count_recursive(2, 2, 4)
    assert r4.decomposable == 136
    r1 = count_recursive(2, 2, 1)
    assert r1.indecomposable == 6 and r1.decomposable == 0


def test_recursion_rejects_one_variable():
    with pytest.raises(ValueError):
        count_recursive(3, 1, 4)


def test_closed_forms_match_recursion():
    for q in (2, 3):
        for d in (2, 3, 4, 6, 9, 10):
            closed = count_closed_small(q, 2, d)
            rec = count_recursive(q, 2, d)
            if d in (8, 12):
                assert closed is None
            else:
                assert closed == rec.decomposable, (q, d)
    assert count_closed_small(2, 2, 8) is None
    assert count_closed_small(2, 2, 6) == 2240


def test_count_uni_closed_values():
    assert count_uni(3, 4).exact == 54
    assert count_uni(2, 9).exact == 32
    assert count_uni(5, 3).exact == 0
    u = count_uni(2, 15)
    assert (u.lower, u.upper) == (224, 256)
    u = count_uni(3, 10)
    assert (u.lower, u.upper) == (2673, 2916)
    with pytest.raises(ValueError):
        count_uni(2, 4)  # gcd(q, d) != 1


def test_count_uni_omega3_bounds_hold_against_enumeration():
    u = count_uni(3, 8)
    rep = enumerate_census(3, 1, 8)
    assert u.lower <= rep.decomposable <= u.upper
    assert u.alpha == Fraction(2, 3 ** (8 - 2 - 4 + 1))


def test_enumeration_matches_recursion_grid():
    for q, n, d in [(2, 2, 1), (2, 2, 2), (2, 2, 3), (3, 2, 2), (4, 2, 2), (5, 2, 2)]:
        rep = enumerate_census(q, n, d)
        rec = count_recursive(q, n, d)
        assert (rep.total, rep.indecomposable, rep.decomposable) == (
            rec.total,
            rec.indecomposable,
            rec.decomposable,
        ), (q, n, d)


def test_enumeration_total_matches_formula_uni():
    rep = enumerate_census(3, 1, 4)
    assert rep.total == count_total(3, 1, 4)
    assert rep.decomposable == 54


def test_partition_merge_determinism():
    full = enumerate_census(2, 2, 3)
    space = 2 ** 10
    cuts = [0, 100, 257, 800, space]
    parts = [
        enumerate_census(2, 2, 3, part=(lo, hi)) for lo, hi in zip(cuts, cuts[1:])
    ]
    merged = merge_reports(parts)
    assert (merged.total, merged.indecomposable, merged.decomposable) == (
        full.total,
        full.indecomposable,
        full.decomposable,
    )
    ranges = partition_ranges(2, 2, 3, 7)
    assert ranges[0][0] == 0 and ranges[-1][1] == space
    parts2 = [enumerate_census(2, 2, 3, part=r) for r in ranges]
    merged2 = merge_reports(parts2)
    assert merged2.decomposable == full.decomposable


def test_parallel_census_pool_no_larger_than_its_parts(monkeypatch):
    # a fork pool starts all its workers at once, so --jobs beyond the
    # number of parts must not start idle processes; the fake pool runs the
    # parts in this process and records the size it was asked for
    import concurrent.futures

    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    rep = enumerate_census_parallel(2, 2, 1, 500)
    assert sizes == [8]  # the scan space of degree <= 1 in two variables over F_2
    assert rep == enumerate_census(2, 2, 1)


def test_parallel_census_checks_the_guard_before_any_worker_starts(monkeypatch):
    import concurrent.futures

    def no_pool(max_workers):
        raise AssertionError(f"a pool of {max_workers} workers was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with pytest.raises(GuardExceeded, match="scan space 1024 exceeds guard 10"):
        enumerate_census_parallel(2, 2, 3, 2, guard=10)


def test_guard_raises():
    with pytest.raises(GuardExceeded):
        enumerate_census(5, 2, 5, guard=10_000)


def test_census_guard_ignores_environment(monkeypatch):
    # SPEC_GUARD is read by the command line front end only
    monkeypatch.setenv("SPEC_GUARD", "10")
    assert enumerate_census(2, 2, 3) == enumerate_census(2, 2, 3, guard=1 << 24)


def test_bounds_check_n2_examples():
    rep = bounds_check_n2(2, 8)
    assert rep.alpha == Fraction(2 ** 16, 2 ** 45)
    assert rep.beta == Fraction(1, 2)
    assert rep.holds
    assert bounds_check_n2(2, 12).holds
    with pytest.raises(ValueError):
        bounds_check_n2(2, 6)


def test_bd_lemma_small_and_large():
    assert bd_lemma_check(1000)
    assert bd_lemma_check(10000)
    with pytest.raises(ValueError):
        bd_lemma_check(4)


def test_trend_table_monotone_on_doublings():
    table = dict(trend_table(2, 2, 20))
    gaps = [table[d] for d in (2, 4, 8, 16)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    for d in range(2, 21):
        n_half = count_total(2, 2, d // 2)
        bound = Fraction(d * 2 ** d * n_half, count_total(2, 2, d))
        assert table[d] <= bound
