"""Additive bases, normal forms, and heights of the quotient rings."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from w23 import verify, zcl
from w23.groebner import GroebnerBasis, basis_for, binary_profile, normal_form
from w23.poly import Poly, deg, lucas_binom_mod2
from w23.quotient import (
    Heights,
    QuotientRing,
    _tail_rules,
    brute_heights,
    build_quotient,
    heights_closed_form,
)


def monomials_of_degree(r):
    out = []
    for c in range(r // 3 + 1):
        rem = r - 3 * c
        if rem % 2 == 0:
            out.append((rem // 2, c))
    return out


def test_basis_membership_examples():
    assert (3, 6) in build_quotient(15).basis
    q21 = build_quotient(21).basis
    assert (3, 6) in q21 and (6, 4) in q21
    for n in (6, 7, 15, 30):
        assert (0, 0) in build_quotient(n).basis


def test_basis_n6():
    assert build_quotient(6).basis == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_basis_respects_top_dimension():
    for n in range(6, 65):
        q = build_quotient(n)
        assert q.max_degree < 3 * n - 9
        assert all(deg(m) < 3 * n - 9 for m in q.basis)


def test_degree_grouping():
    q = build_quotient(15)
    rows = q.by_degree()
    for r, members in rows.items():
        assert all(deg(m) == r for m in members)
    assert rows[0] == [(0, 0)]


def test_nf_examples():
    q21 = build_quotient(21)
    assert q21.nf_set(9, 2) == {(3, 6)}
    assert q21.nf_set(12, 0) == {(3, 6)}
    q22 = build_quotient(22)
    assert not q22.nf_set(12, 1)
    assert q22.nf_set(3, 6) == {(3, 6)}


def test_nf_fixes_basis():
    for n in (6, 9, 21):
        q = build_quotient(n)
        for m in q.basis:
            assert q.nf_set(*m) == frozenset((m,))


def test_nf_rejects_negative():
    with pytest.raises(ValueError):
        build_quotient(9).nf_set(-1, 0)
    # a negative slot would read a row from its end; both must raise before
    # any lookup (one is a would-be reduction, one lies above max_degree)
    q = build_quotient(21)
    for b, c in ((-1, 5), (-3, 40), (4, -1)):
        with pytest.raises(ValueError):
            q.nf_bits(b, c)


def test_fast_path_matches_division():
    rng = random.Random(1105)
    for n in (7, 12, 15, 21, 22, 27, 33, 48, 126, 254):
        q = build_quotient(n)
        gb = basis_for(n)
        for _ in range(120):
            b, c = rng.randrange(2 * n), rng.randrange(n)
            assert q.nf_set(b, c) == normal_form(Poly({(b, c)}), gb).terms, (n, b, c)


def _decoded(bits, d):
    # the packed memo, decoded by hand through the bit rule: bit i of a
    # degree-d form is the monomial with w2 exponent 3i + (2d) % 3
    out = set()
    for i in range(bits.bit_length()):
        if bits >> i & 1:
            mb = 3 * i + 2 * d % 3
            assert 2 * mb <= d, (bits, d)
            out.add((mb, (d - 2 * mb) // 3))
    return out


def test_nf_bits_decode_to_division():
    # the packed memo, decoded, against heap division
    rng = random.Random(2024)
    for n in (6, 9, 21, 22, 40, 63):
        q = build_quotient(n)
        gb = basis_for(n)
        for _ in range(150):
            b, c = rng.randrange(2 * n), rng.randrange(n)
            decoded = _decoded(q.nf_bits(b, c), 2 * b + 3 * c)
            assert decoded == normal_form(Poly({(b, c)}), gb).terms, (n, b, c)


@settings(max_examples=60)
@given(n=st.integers(6, 80), data=st.data())
def test_nf_bits_decode_to_division_on_drawn_monomials(n, data):
    # any monomial up to just past the top degree, on a fresh ring
    q = build_quotient(n)
    c = data.draw(st.integers(0, q.max_degree // 3 + 1), label="c")
    b = data.draw(st.integers(0, (q.max_degree - 3 * c) // 2 + 2), label="b")
    decoded = _decoded(q.nf_bits(b, c), 2 * b + 3 * c)
    assert decoded == normal_form(Poly({(b, c)}), basis_for(n)).terms


def test_generic_rows_match_division_on_w6():
    # every monomial of W_6 up to one past the top degree, against heap division
    q = build_quotient(6)
    gb = basis_for(6)
    for r in range(q.max_degree + 2):
        for b, c in monomials_of_degree(r):
            assert q.nf_set(b, c) == normal_form(Poly({(b, c)}), gb).terms, (b, c)


def test_tail_rules_match_division():
    # the rule table on bases with real tails, against heap division
    rng = random.Random(606)
    for n in (9, 21, 22, 40):
        gb = basis_for(n)
        q = QuotientRing(n, gb)
        for _ in range(150):
            b, c = rng.randrange(2 * n), rng.randrange(n)
            assert q.nf_set(b, c) == normal_form(Poly({(b, c)}), gb).terms, (n, b, c)


def test_tail_rules_are_the_closed_form_rewrite():
    # the tail of f_i drops b // 3 by e/2 << i for every even e > 0 with
    # C(l_i - e/2, e) odd; largest i first
    for n in range(6, 301):
        gb = basis_for(n)
        prof = binary_profile(n)
        expected = tuple(
            (
                *gb.lms[i],
                tuple(
                    e // 2 << i
                    for e in range(2, 2 * prof.l[i] // 3 + 1, 2)
                    if lucas_binom_mod2(prof.l[i] - e // 2, e)
                ),
            )
            for i in reversed(range(prof.t))
        )
        assert _tail_rules(gb) == expected, n


def _rectangle_basis(gb):
    """Every cell of the min(pure2) x min(pure3) rectangle that no leading
    monomial divides: the reference for the staircase walk.  Row b starts
    all open, and each LM w2^l0*w3^l1 with l0 <= b closes its quadrant,
    the cells c >= l1."""
    b_end = min(lm[0] for lm in gb.lms if lm[1] == 0)
    c_end = min(lm[1] for lm in gb.lms if lm[0] == 0)
    cells = set()
    for b in range(b_end):
        row = bytearray(b"\x01") * c_end
        for l0, l1 in gb.lms:
            if l0 <= b and l1 < c_end:
                row[l1:] = bytes(c_end - l1)
        cells.update((b, c) for c in itertools.compress(range(c_end), row))
    return cells


def test_staircase_basis_matches_rectangle_scan():
    # n = 6 is the first ring; 1408 and 1535 end levels of t = 10
    for n in [*range(6, 301), 1408, 1535]:
        gb = basis_for(n)
        q = QuotientRing(n, gb)
        oracle = _rectangle_basis(gb)
        assert q.basis == oracle, n
        assert len(q.basis) == len(oracle), n
        assert q.max_degree == max(map(deg, oracle)), n
        b_end = min(lm[0] for lm in gb.lms if lm[1] == 0)
        c_end = min(lm[1] for lm in gb.lms if lm[0] == 0)
        for b in range(b_end + 1):
            for c in range(c_end + 1):
                assert ((b, c) in q.basis) == ((b, c) in oracle), (n, b, c)
        counts = [0] * (q.max_degree + 1)
        for m in oracle:
            counts[deg(m)] += 1
        in_order = list(q.basis)
        assert in_order == sorted(in_order), n  # lex order
        rows = q.by_degree()
        assert [len(rows.get(r, ())) for r in range(q.max_degree + 1)] == counts, n
        for r, row in rows.items():
            assert row == sorted(row) and all(deg(m) == r for m in row), (n, r)


def test_basis_view_rejects_non_monomials():
    q = build_quotient(21)
    for m in ((-1, 0), (0, -1), (3,), "ab", None, (3, 6, 0)):
        assert m not in q.basis, m
    assert (3, 6) in q.basis


def _filled_slots(q):
    return sum(got is not None for row in q._rows.values() for got in row)


def test_ring_stays_lazy_through_a_search():
    # the row slots filled hold only what the walk reduced, far below
    # dim(W_1408); the rows allocated stay below dim
    q = QuotientRing(1408, basis_for(1408))
    assert _filled_slots(q) == 0
    zcl.zcl_search(q)
    assert 0 < _filled_slots(q) < len(q.basis) / 16
    assert sum(map(len, q._rows.values())) < len(q.basis)


def test_quotient_suite_builds_one_ring_per_n(monkeypatch):
    built = []

    def counted(n):
        built.append(n)
        return build_quotient(n)

    monkeypatch.setattr(verify, "build_quotient", counted)
    assert verify.failures(verify.run_suites(["quotient"], t_max=5)) == []
    assert sorted(built) == list(range(6, 63))


def test_upper_bound_lemmas_build_one_ring_per_n(monkeypatch):
    # the stated vanishings come in runs of cells that share n: one ring
    # per run, in the order of the cells
    built = []

    def counted(n):
        built.append(n)
        return build_quotient(n)

    monkeypatch.setattr(verify, "build_quotient", counted)
    for t in range(4, 8):
        built.clear()
        p = 1 << t
        checks = verify.verify_upper_bound_lemmas(t)
        assert verify.failures(checks) == [] and len(checks) == 2 * t - 3, t
        assert built == [p + p // 4, p + p // 4 + 1, *(2 * p - (1 << s) for s in range(1, t - 2))]


def test_nonzero_staircase_matches_box_scan():
    # top(c) against nf_bits over the whole box past both heights, with the
    # columns asked in a shuffled order
    rng = random.Random(20)
    for n in range(6, 65):
        q = QuotientRing(n, basis_for(n))
        h2, h3 = brute_heights(q)
        cols = list(range(h3 + 2))
        rng.shuffle(cols)
        top = dict(zip(cols, map(q.top, cols)))
        cols.sort()
        assert top[0] == h2 and top[h3 + 1] == -1, n
        assert all(top[c] >= top[c + 1] for c in range(h3 + 1)), n
        for c in range(h3 + 1):
            assert q.nf_bits(top[c], c) and not q.nf_bits(top[c] + 1, c), (n, c)
        for b in range(h2 + 2):
            for c in range(h3 + 2):
                assert bool(q.nf_bits(b, c)) == (b <= top[c]), (n, b, c)
        assert sorted(q._top) == cols, n
        q.nf_bits = None  # each column is read once: asking again probes nothing
        assert [q.top(c) for c in cols] == [top[c] for c in cols], n
        with pytest.raises(ValueError):
            q.top(-1)


def test_edge_search_reads_few_columns():
    # at W_1408 the walk's vanishing cells need at most two columns of the
    # nonzero staircase, not all h3 + 1 = 512; and the heights bisect no
    # powers of w2 beyond those top(0) reads, so the search fills 1,056
    # memo slots (1,264 when a basis monomial's slot held its own bit, and
    # 2,032 when height(w2) had its own bisection)
    q = QuotientRing(1408, basis_for(1408))
    zcl.zcl_search(q)
    assert 0 < len(q._top) <= 2
    assert _filled_slots(q) < 1600


def test_row_ends_bisect_after_a_cap_probe(monkeypatch):
    # a row open to the cap asks the cap cell's balanced piece before any
    # cell test: at the edges W_1408 and W_1535 it ends the one flat row,
    # so the walk scans 1 cell (10 under a doubling gallop); at the level
    # top W_1022 the cap cell vanishes and one bisection ends the row, so
    # the walk scans 13 cells and fills 63,352 slots (21 and 102,096 under
    # the gallop, whose probes 2^k - 1 hit the vanishing all-ones cell)
    cells = []
    cell_test = zcl.zero_divisor_product_nonzero

    def counted(q, beta, gamma):
        cells.append((beta, gamma))
        return cell_test(q, beta, gamma)

    monkeypatch.setattr(zcl, "zero_divisor_product_nonzero", counted)
    for n, most in ((1408, 2), (1535, 2), (1022, 16)):
        cells.clear()
        q = QuotientRing(n, basis_for(n))
        zcl.zcl_search(q)
        assert len(cells) <= most, (n, len(cells))
    assert _filled_slots(q) < 75000, _filled_slots(q)  # W_1022's


@settings(max_examples=40)
@given(n=st.integers(6, 120), data=st.data())
def test_top_matches_linear_scan(n, data):
    # top(c) against a linear scan of its column and a linear walk on the
    # powers of w3, neither of which reads top or the heights
    q = build_quotient(n)
    h3 = max(k for k in range(q.max_degree // 3 + 1) if q.nf_bits(0, k))
    c = data.draw(st.integers(0, h3 + 1), label="c")
    scan = [b for b in range(q.max_degree // 2 + 1) if q.nf_bits(b, c)]
    assert q.top(c) == (scan[-1] if scan else -1)
    assert q.top(h3 + 1) == -1


@settings(max_examples=40)
@given(data=st.data())
def test_ceiling_gives_the_same_column_tops(data):
    # W_m maps onto W_n for m > n, so W_m's column tops bound W_n's, and a
    # ring built under the columns W_m read finds the tops a plain ring finds,
    # whichever columns W_m read and in whatever order W_n asks
    n = data.draw(st.integers(6, 149), label="n")
    m = data.draw(st.integers(n + 1, 150), label="m")
    plain, above = build_quotient(n), build_quotient(m)
    cols = list(range(brute_heights(plain).h3 + 2))
    for c in data.draw(st.lists(st.sampled_from(cols), unique=True), label="read on W_m"):
        above.top(c)
    under = build_quotient(n, ceiling=(m, dict(above._top)))
    for c in data.draw(st.permutations(cols), label="asked on W_n"):
        assert under.top(c) == plain.top(c) <= above.top(c), (n, m, c)
    for k in (n, n - 1):
        with pytest.raises(ValueError):
            build_quotient(n, ceiling=(k, dict(above._top)))


def test_ring_rejects_basis_reaching_top_degree():
    # the basis of I_20 leaves monomials of degree >= 3*9-9 standing
    with pytest.raises(RuntimeError):
        QuotientRing(9, basis_for(20))


def test_ring_rejects_unusable_basis():
    with pytest.raises(ValueError):  # not homogeneous
        QuotientRing(9, GroebnerBasis((Poly({(3, 0), (0, 1)}), Poly({(0, 3)})), ((3, 0), (0, 3))))
    with pytest.raises(ValueError):  # no pure power of w3 among the leading monomials
        QuotientRing(9, GroebnerBasis((Poly({(3, 0)}), Poly({(1, 2)})), ((3, 0), (1, 2))))


def test_nf_is_multiplicative_through_reduction():
    # NF(w2^a * w2^b) computed in one go vs reducing the product of NFs
    rng = random.Random(3)
    q = build_quotient(18)
    for _ in range(60):
        b1, c1 = rng.randrange(12), rng.randrange(8)
        b2, c2 = rng.randrange(12), rng.randrange(8)
        direct = q.nf_set(b1 + b2, c1 + c2)
        acc = set()
        for m1 in q.nf_set(b1, c1):
            for m2 in q.nf_set(b2, c2):
                acc ^= q.nf_set(m1[0] + m2[0], m1[1] + m2[1])
        assert direct == frozenset(acc)


def test_heights_examples():
    assert brute_heights(build_quotient(15)) == Heights(12, 6)
    assert brute_heights(build_quotient(24)) == Heights(12, 7)
    assert brute_heights(build_quotient(30)) == Heights(25, 13)
    assert heights_closed_form(15) == Heights(12, 6)
    assert heights_closed_form(28).h2 == 19
    assert heights_closed_form(24) == Heights(12, 7)


def test_heights_closed_form_edges():
    with pytest.raises(ValueError):
        heights_closed_form(6)
    # n = 2^t+2^(t-1) sits at the end of the first band in both coordinates
    for t in (4, 5):
        n = (1 << t) + (1 << (t - 1))
        assert heights_closed_form(n) == Heights((1 << t) - 4, (1 << (t - 1)) - 1)


def test_heights_brute_vs_closed_small():
    for n in range(7, 41):
        q = build_quotient(n)
        assert brute_heights(q) == heights_closed_form(n), n


def _linear_heights(q):
    # the walk brute_heights used before bisection: raise until zero
    h2 = 1
    while q.nf_bits(h2 + 1, 0):
        h2 += 1
    h3 = 1
    while q.nf_bits(0, h3 + 1):
        h3 += 1
    return Heights(h2, h3)


def test_bisected_heights_match_closed_form_and_linear_walk():
    for n in range(6, 65):
        assert brute_heights(build_quotient(n)) == _linear_heights(build_quotient(n)), n
    for n in (*range(7, 301), 1022, 2046):
        assert brute_heights(build_quotient(n)) == heights_closed_form(n), n


@settings(max_examples=40)
@given(n=st.integers(7, 600))
def test_heights_match_closed_form_on_drawn_n(n):
    assert brute_heights(build_quotient(n)) == heights_closed_form(n)


def test_powers_vanish_beyond_height():
    q = build_quotient(15)
    h2, h3 = brute_heights(q)
    assert q.nf_set(h2, 0) and not q.nf_set(h2 + 1, 0)
    assert q.nf_set(0, h3) and not q.nf_set(0, h3 + 1)


def test_class_nonzero_basics():
    q = build_quotient(27)
    assert q.nf_bits(19, 2) != 0
    assert q.nf_bits(0, 0) != 0
    # anything at or above the manifold dimension dies
    n = 27
    for b, c in ((3 * n // 2, 0), (0, n), (n, n)):
        if 2 * b + 3 * c >= 3 * n - 9:
            assert q.nf_bits(b, c) == 0


def test_nonvanishing_band_classes():
    # w2^(2^(t+1)-3*2^s-1) * w3^(n-2^(t+1)+2^(s+1)-1) survives in W_n
    # whenever 2^(t+1)-2^(s+1)+1 <= n <= 2^(t+1)-2^s, 1 <= s <= t-2
    for n in range(7, 65):
        t = (n + 1).bit_length() - 1
        for s in range(1, t - 1):
            if (2 << t) - (2 << s) + 1 <= n <= (2 << t) - (1 << s):
                q = build_quotient(n)
                assert q.nf_bits(
                    (2 << t) - 3 * (1 << s) - 1, n - (2 << t) + (2 << s) - 1
                ) != 0, (n, s)


def classify(n, r):
    q = build_quotient(n)
    alive = [m for m in monomials_of_degree(r) if q.nf_bits(*m) != 0]
    forms = {q.nf_set(*m) for m in alive}
    return alive, forms


def test_degree_minus_11_classification():
    # W_{2^t-1} in degree 2^(t+1)-11: alive monomials are exactly
    # (2^t-3*2^(k-1)-1, 2^k-3) for 2 <= k <= t-1, all with one normal form
    for t in (4, 5, 6):
        n = (1 << t) - 1
        alive, forms = classify(n, (2 << t) - 11)
        expected = {((1 << t) - 3 * (1 << (k - 1)) - 1, (1 << k) - 3) for k in range(2, t)}
        assert set(alive) == expected
        rep = ((1 << (t - 2)) - 1, (1 << (t - 1)) - 3)
        assert forms == {frozenset((rep,))}
        assert rep in build_quotient(n).basis


def test_degree_minus_8_classification():
    # W_{2^t+2^(t-2)+eps}, eps in {1,2}, degree 2^(t+1)-8
    for t in (5, 6):
        for eps in (1, 2):
            n = (1 << t) + (1 << (t - 2)) + eps
            alive, forms = classify(n, (2 << t) - 8)
            expected = {
                ((1 << t) - 3 * (1 << (k - 1)) - 1, (1 << k) - 2) for k in range(1, t)
            }
            assert set(alive) == expected
            rep = ((1 << (t - 2)) - 1, (1 << (t - 1)) - 2)
            assert forms == {frozenset((rep,))}
            assert rep in build_quotient(n).basis


def test_near_top_band_classification():
    # W_{2^(t+1)-2^(s+1)+1} in degree 2^(t+2)-3*2^(s+1)-5
    for t in (5, 6):
        for s in range(1, t - 2):
            n = (2 << t) - (2 << s) + 1
            alive, forms = classify(n, (4 << t) - 3 * (2 << s) - 5)
            expected = {
                ((2 << t) - 3 * (1 << (k - 1)) - 1, (1 << k) - (2 << s) - 1)
                for k in range(s + 2, t + 1)
            }
            assert set(alive) == expected
            rep = ((1 << (t - 1)) - 1, (1 << t) - (2 << s) - 1)
            assert forms == {frozenset((rep,))}
            assert rep in build_quotient(n).basis
