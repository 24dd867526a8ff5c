"""Sandwich bounds, exactness ranges, and TC lower-bound table structure."""

from fractions import Fraction

import pytest

from w23.bounds import (
    BoundsRow,
    TcBand,
    bounds_row,
    exactness_established,
    exceptional_degrees,
    height_z_w2,
    tc_table_rows,
)
from w23.quotient import build_quotient, heights_closed_form
from w23 import verify
from w23.verify import (
    exactness_edge_disagreements,
    failures,
    run_suites,
    verify_ineq_arithmetic,
)
from w23.zcl import zcl_closed_form, zcl_search


def _computed_zcl(n):
    return zcl_search(build_quotient(n)).value


def test_exceptional_degrees_examples():
    assert exceptional_degrees(15) == (12, None)
    assert exceptional_degrees(24) == (28, 39)
    assert exceptional_degrees(20) == (27, 28)


def test_exceptional_degrees_absent_b():
    for t in (4, 5, 6):
        p = 1 << t
        for n in (p - 1, p, 2 * p - 3, 2 * p - 2):
            assert exceptional_degrees(n)[1] is None
    with_b = [n for n in range(15, 63) if exceptional_degrees(n)[1] is not None]
    assert len(with_b) == 48 - 8


def test_exceptional_degrees_sum_and_order():
    for n in range(15, 127):
        a, b = exceptional_degrees(n)
        if b is not None:
            assert a < b
            assert a + b == 3 * n - 5


def test_exceptional_degree_band_switch():
    # min{3n - 2^(t+1) - 1, 2^(t+1) - 4} switches branch exactly at the
    # integer edge 2^t + floor(2^t/3).
    for t in range(4, 11):
        p = 1 << t
        edge = p + p // 3
        for n in range(p - 1, 2 * p - 1):
            a, _ = exceptional_degrees(n)
            if n < edge:
                assert a == 3 * n - 2 * p - 1
            else:
                assert a == 2 * p - 4


def test_exceptional_degrees_reject_small_n():
    with pytest.raises(ValueError):
        exceptional_degrees(14)


def test_height_z_w2_matches_height_cap():
    for n in range(7, 127):
        h2 = heights_closed_form(n).h2
        assert height_z_w2(n) == (1 << h2.bit_length()) - 1
    with pytest.raises(ValueError):
        height_z_w2(6)


def test_exactness_ranges():
    exact4 = {n for n in range(15, 31) if exactness_established(n)}
    assert exact4 == set(range(15, 20)) | {29, 30}
    exact5 = {n for n in range(31, 63) if exactness_established(n)}
    assert exact5 == set(range(31, 39)) | set(range(57, 63))
    with pytest.raises(ValueError):
        exactness_established(14)


def test_exactness_matches_rational_oracle():
    # the integer edge 6n < 7p + 6 against the rational statement of the ranges
    for n in range(15, 4095):
        p = 1 << ((n + 1).bit_length() - 1)
        oracle = Fraction(n) < p + Fraction(p, 6) + 1 or n >= p + p // 2 + p // 4 + 1
        assert exactness_established(n) == oracle, n


def test_exactness_edge_readings_agree():
    for t in range(4, 13):
        assert exactness_edge_disagreements(t) == []
    with pytest.raises(ValueError):
        exactness_edge_disagreements(3)


def test_bounds_row_examples():
    assert bounds_row(15, zcl_closed_form(15)) == BoundsRow(
        n=15,
        zcl_wn=20,
        zcl_oriented_lo=21,
        zcl_oriented_hi=22,
        zcl_oriented_exact=21,
        tc_lower=22,
        a_deg=12,
        b_deg=None,
    )
    row30 = bounds_row(30, zcl_closed_form(30))
    assert row30.zcl_oriented_exact == 1 + 42 == 43
    assert row30.tc_lower == 44
    row22 = bounds_row(22, zcl_closed_form(22))
    assert row22.zcl_oriented_exact is None
    assert (row22.zcl_oriented_lo, row22.zcl_oriented_hi) == (23, 24)


def test_bounds_row_invariants():
    for n in range(15, 127):
        row = bounds_row(n, zcl_closed_form(n))
        assert row.zcl_oriented_lo == 1 + row.zcl_wn
        assert row.zcl_oriented_hi == 2 + row.zcl_wn
        assert row.zcl_oriented_exact in (None, row.zcl_oriented_lo)
        assert row.tc_lower == 1 + row.zcl_oriented_lo
    with pytest.raises(ValueError):
        bounds_row(14, 16)


def test_bounds_row_computed_matches_closed_form():
    for n in range(15, 63):
        assert bounds_row(n, _computed_zcl(n)) == bounds_row(n, zcl_closed_form(n))


def test_ineq_holds_per_level():
    for t in range(4, 11):
        checks = verify_ineq_arithmetic(t)
        assert all(c.ok for c in checks), [c.line() for c in checks]
    with pytest.raises(ValueError):
        verify_ineq_arithmetic(3)


def test_ineq_rederived_exhaustively():
    for t in range(4, 11):
        p = 1 << t
        for n in range(p - 1, 2 * p - 1):
            a, _ = exceptional_degrees(n)
            assert 6 * n + height_z_w2(n) < 3 * (a + zcl_closed_form(n)) + 16


def test_ineq_display_constants():
    # On the merged band 2^t + 2^(t-1) + 1 <= n <= 13*2^(t-3) the two sides
    # peak at 94*2^(t-3) - 1 and bottom out at 99*2^(t-3) - 5.
    for t in range(4, 11):
        p = 1 << t
        unit = p >> 3
        band = range(p + p // 2 + 1, 13 * unit + 1)
        lhs_max = max(6 * n + height_z_w2(n) for n in band)
        rhs_min = min(
            3 * (exceptional_degrees(n)[0] + zcl_closed_form(n)) + 16 for n in band
        )
        assert lhs_max == 94 * unit - 1
        assert rhs_min == 99 * unit - 5
        assert lhs_max < rhs_min


def test_tc_table_t4():
    assert tc_table_rows(4) == [
        TcBand(15, 19, 20, 21, True, 22),
        TcBand(20, 20, 20, 21, False, 22),
        TcBand(21, 21, 21, 22, False, 23),
        TcBand(22, 24, 22, 23, False, 24),
        TcBand(25, 25, 31, 32, False, 33),
        TcBand(26, 26, 32, 33, False, 34),
        TcBand(27, 28, 34, 35, False, 36),
        TcBand(29, 30, 42, 43, True, 44),
    ]


def _expected_bands(t):
    """The [n_first, n_last] runs that tile level t, stated by hand: seven
    fixed runs, then one per s = t-3 down to 1 over
    2^(t+1) - 2^(s+1) + 1 <= n <= 2^(t+1) - 2^s."""
    p = 1 << t
    return [
        (p - 1, p + (p // 2) // 3 + 1),
        (p + (p // 2) // 3 + 2, p + p // 4),
        (p + p // 4 + 1, p + p // 4 + 1),
        (p + p // 4 + 2, p + p // 2),
        (p + p // 2 + 1, p + p // 2 + 1),
        (p + p // 2 + 2, p + p // 2 + p // 8),
        (p + p // 2 + p // 8 + 1, p + p // 2 + p // 4),
    ] + [(2 * p - (2 << s) + 1, 2 * p - (1 << s)) for s in range(t - 3, 0, -1)]


def test_tc_table_band_structure():
    for t in range(4, 13):
        p = 1 << t
        rows = tc_table_rows(t)
        bands = [(row.n_first, row.n_last) for row in rows]
        assert bands == _expected_bands(t)
        assert len(bands) == 7 + (t - 3)
        assert bands[0][0] == p - 1
        assert bands[-1][1] == 2 * p - 2
        for (_, last), (first, _) in zip(bands, bands[1:]):
            assert first == last + 1
        assert rows[0].exact and rows[-1].exact
        assert all(not row.exact for row in rows[1:7])
        assert all(row.exact for row in rows[7:])
        expected_zcl = [
            p + p // 2 - 4,
            p + p // 2 - 4,
            p + p // 2 - 3,
            p + p // 2 - 2,
            2 * p + p // 8 - 3,
            2 * p + p // 8 - 2,
            2 * p + p // 4 - 2,
        ] + [3 * p - (1 << (s + 1)) - 2 for s in range(t - 3, 0, -1)]
        assert [row.zcl_wn for row in rows] == expected_zcl
        for row in rows:
            assert row.zcl_oriented_lo == row.zcl_wn + 1
            assert row.tc_lower == row.zcl_wn + 2
    with pytest.raises(ValueError):
        tc_table_rows(3)


def test_tc_table_computed_zcl_matches_closed_form():
    for t in (4, 5):
        assert tc_table_rows(t, zcl_fn=_computed_zcl) == tc_table_rows(t)


def test_tc_table_rows_are_maximal_runs():
    # a zcl that changes at every n gives one row per n
    rows = tc_table_rows(4, zcl_fn=lambda n: n)
    assert [(row.n_first, row.n_last, row.zcl_wn) for row in rows] == [
        (n, n, n) for n in range(15, 31)
    ]
    # a closed form bumped at one n splits its band around that n
    bumped = tc_table_rows(4, zcl_fn=lambda n: zcl_closed_form(n) + (n == 23))
    assert [(row.n_first, row.n_last, row.zcl_wn) for row in bumped[3:6]] == [
        (22, 22, 22),
        (23, 23, 23),
        (24, 24, 22),
    ]
    assert bumped[:3] + bumped[6:] == tc_table_rows(4)[:3] + tc_table_rows(4)[4:]


def test_bounds_suite_reports_a_mismatch_without_raising(monkeypatch):
    # a searched zcl(W_23) one too high fails both searched-vs-closed-form
    # checks; the suite still returns every check
    real = verify.zcl_results

    def off_by_one(ns, *args, **kwargs):
        results = real(ns, *args, **kwargs)
        results[23] = results[23]._replace(gamma=results[23].gamma + 1)
        return results

    monkeypatch.setattr(verify, "zcl_results", off_by_one)
    checks = run_suites(["bounds"], t_max=4)
    failed = [c.name for c in failures(checks)]
    assert failed == [
        "bounds rows agree between searched and closed-form zcl, 15 <= n <= 30",
        "TC table rows agree between searched and closed-form zcl, t = 4..4",
    ]
    assert len(checks) == 11


def test_bounds_suite_at_level_3():
    # the sweep stops at n = 14; the checks on searched zcl start at n = 15
    checks = run_suites(["bounds"], t_max=3)
    assert checks and failures(checks) == []
    assert not any("searched" in c.name for c in checks)
    labels = [c.name for c in run_suites(["bounds"], t_max=4)]
    assert "TC table rows agree between searched and closed-form zcl, t = 4..4" in labels
