"""End-to-end acceptance gates, one test per headline requirement.

Each test re-derives the claim from scratch (no shared caches beyond the
per-process ring memo), asserts exactness, and enforces its runtime budget
where one is stated.  Run with -v for one pass/fail line per criterion.
"""

import json
import random
import time
from pathlib import Path

from w23.bounds import bounds_row, exceptional_degrees, tc_table_rows
from w23.cache import zcl_results
from w23.cli import main
from w23.groebner import (
    basis_for,
    binary_profile,
    buchberger,
    normal_form,
    reduce_basis,
)
from w23.gseries import g_recurrence
from w23.poly import W3, Poly, deg
from w23.quotient import brute_heights, build_quotient, heights_closed_form
from w23.verify import (
    failures,
    g_explicit,
    graded_piece,
    ideal_member,
    verify_doubling,
    verify_g3_lemma,
    verify_ineq_arithmetic,
    verify_kvadriranje,
    verify_membership_lemmas,
    verify_upper_bound_lemmas,
    w3_ideal_member,
)
from w23.zcl import SMALL_N_ZCL, zcl_closed_form, zcl_search

GOLDEN = Path(__file__).parent / "golden"


def _stamp(k: int, label: str, t0: float, budget: float | None = None) -> None:
    dt = time.perf_counter() - t0
    if budget is not None:
        assert dt < budget, f"criterion {k} took {dt:.2f}s, budget {budget}s"
    print(f"criterion {k} ({label}): PASS in {dt:.2f}s")


def test_criterion_1_series_table_and_explicit_form(capsys):
    t0 = time.perf_counter()
    assert main(["table", "g", "0..26"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "table_g.txt").read_text()
    for r in range(513):
        assert g_recurrence(r) == g_explicit(r), r
    with capsys.disabled():
        _stamp(1, "series table exact, recurrence = explicit for r <= 512", t0, 1.0)


def test_criterion_2_groebner_differential():
    t0 = time.perf_counter()
    for n in range(2, 65):
        direct = basis_for(n)
        generic = reduce_basis(
            buchberger([g_recurrence(n - 2), g_recurrence(n - 1), g_recurrence(n)])
        )
        # the LMs of the Buchberger basis: the closed form sets its own by the formula
        prof = binary_profile(n)
        for i, lm in enumerate(generic.lms):
            assert lm == (
                prof.l[i] << i,
                prof.alpha[i] * prof.s_prev(i) + (1 << i) - 1,
            ), (n, i)
        assert direct.polys == generic.polys, n
    _stamp(2, "closed-form basis = Buchberger basis, LMs exact, n in [2,64]", t0, 30.0)


def test_criterion_3_heights():
    t0 = time.perf_counter()
    for n in range(7, 65):
        assert brute_heights(build_quotient(n)) == heights_closed_form(n), n
    _stamp(3, "brute heights = closed form, n in [7,64]", t0, 30.0)


def test_criterion_4_zcl_values_and_closed_form():
    t0 = time.perf_counter()
    for n, expected in SMALL_N_ZCL.items():
        assert zcl_search(build_quotient(n)).value == expected, n
    cases_hit = {4: set(), 5: set()}
    for n in range(15, 63):
        assert zcl_search(build_quotient(n)).value == zcl_closed_form(n), n
        t = (n + 1).bit_length() - 1
        p = 1 << t
        if n <= p + p // 4:
            case = 1
        elif n == p + p // 4 + 1:
            case = 2
        elif n <= p + p // 2:
            case = 3
        elif n == p + p // 2 + 1:
            case = 4
        elif n <= p + p // 2 + p // 8:
            case = 5
        elif n <= p + p // 2 + p // 4:
            case = 6
        else:
            case = 7
        cases_hit[t].add(case)
    assert cases_hit[4] == cases_hit[5] == set(range(1, 8))
    _stamp(4, "zcl matches the small-n table and the closed form, n in [6,62]", t0, 600.0)


def test_criterion_5_identity_suite():
    t0 = time.perf_counter()
    for t in range(2, 8):
        assert not failures(verify_g3_lemma(t)), t
    assert all(verify_kvadriranje(i, r) for i in range(5) for r in range(41))
    assert all(verify_doubling(n) for n in range(1, 201))
    rng = random.Random(5)
    for n in range(7, 25):
        polys = basis_for(n).polys
        f = W3 * polys[rng.randrange(len(polys))] + W3 * polys[rng.randrange(len(polys))]
        assert w3_ideal_member(f * f, 2 * n + 1), n
    for t in range(3, 7):
        assert not failures(verify_membership_lemmas(t)), t
    for n in range(7, 65):
        assert all(ideal_member(W3 * f, n + 1) for f in basis_for(n).polys), n
    _stamp(5, "series and ideal identities across their stated ranges", t0, 60.0)


def test_criterion_6_proof_witnesses():
    t0 = time.perf_counter()
    gp = graded_piece(build_quotient(21), 15, 6, 24)
    assert gp.element.pairs == {((3, 6), (6, 4)), ((6, 4), (3, 6))}
    gp = graded_piece(build_quotient(22), 15, 7, 24)
    assert gp.element.pairs == {((3, 6), (6, 5))}
    for t in (4, 5):
        assert not failures(verify_upper_bound_lemmas(t)), t

    def monomials_of_degree(r):
        return [
            ((r - 3 * c) // 2, c)
            for c in range(r // 3 + 1)
            if (r - 3 * c) % 2 == 0
        ]

    def classify(n, r):
        q = build_quotient(n)
        alive = [m for m in monomials_of_degree(r) if q.nf_bits(*m) != 0]
        return set(alive), {q.nf_set(*m) for m in alive}

    for t in (4, 5, 6):
        n = (1 << t) - 1
        alive, forms = classify(n, (2 << t) - 11)
        assert alive == {
            ((1 << t) - 3 * (1 << (k - 1)) - 1, (1 << k) - 3) for k in range(2, t)
        }
        assert forms == {frozenset((((1 << (t - 2)) - 1, (1 << (t - 1)) - 3),))}
    for t in (5, 6):
        for eps in (1, 2):
            alive, forms = classify((1 << t) + (1 << (t - 2)) + eps, (2 << t) - 8)
            assert alive == {
                ((1 << t) - 3 * (1 << (k - 1)) - 1, (1 << k) - 2) for k in range(1, t)
            }
            assert forms == {frozenset((((1 << (t - 2)) - 1, (1 << (t - 1)) - 2),))}
    for t in (5, 6):
        for s in range(1, t - 2):
            n = (2 << t) - (2 << s) + 1
            alive, forms = classify(n, (4 << t) - 3 * (2 << s) - 5)
            assert alive == {
                ((2 << t) - 3 * (1 << (k - 1)) - 1, (1 << k) - (2 << s) - 1)
                for k in range(s + 2, t + 1)
            }
            assert forms == {
                frozenset((((1 << (t - 1)) - 1, (1 << t) - (2 << s) - 1),))
            }
    _stamp(6, "graded-piece witnesses, vanishings, and classifications", t0)


def test_criterion_7_property_suite():
    t0 = time.perf_counter()
    prev = 0
    for n in range(6, 63):
        v = zcl_search(build_quotient(n)).value
        assert v >= prev, n
        prev = v

    rings = [(n, build_quotient(n), basis_for(n)) for n in (7, 12, 15, 21, 22, 27, 33, 48)]
    rng = random.Random(7)
    for n, q, gb in rings:
        prev = (0, 0)
        for _ in range(1250):
            b, c = rng.randrange(2 * n), rng.randrange(n)
            fast = q.nf_set(b, c)
            assert fast == normal_form(Poly({(b, c)}), gb).terms, (n, b, c)
            for m in fast:
                assert q.nf_set(*m) == frozenset((m,)), (n, m)
            if (b, c) != prev:
                both = normal_form(Poly({(b, c), prev}), gb).terms
                assert both == fast ^ q.nf_set(*prev), (n, (b, c), prev)
            prev = (b, c)

    from w23.verify import z
    from w23.poly import W2

    for n in (8, 15, 21):
        q = build_quotient(n)
        h2, h3 = brute_heights(q)
        elt = z(q, W2) ** min(h2, 5) * z(q, W3) ** min(h3, 4)
        assert elt
        assert elt.swap().swap() == elt
        assert elt.swap().pairs == {(m2, m1) for m1, m2 in elt.pairs}

    for n in range(6, 65):
        q = build_quotient(n)
        assert all(deg(m) < 3 * n - 9 for m in q.basis), n
        t = (n + 1).bit_length() - 1
        for s in range(1, t - 1):
            if (2 << t) - (2 << s) + 1 <= n <= (2 << t) - (1 << s):
                assert q.nf_bits(
                    (2 << t) - 3 * (1 << s) - 1, n - (2 << t) + (2 << s) - 1
                ) != 0, (n, s)
    _stamp(7, "monotonicity, 10^4 reduction checks, symmetry, degree bounds", t0)


def test_criterion_8_bounds_layer():
    t0 = time.perf_counter()
    for t in range(4, 11):
        assert not failures(verify_ineq_arithmetic(t)), t
    computed = {n: zcl_search(build_quotient(n)).value for n in range(15, 63)}
    for t in (4, 5):
        assert tc_table_rows(t, zcl_fn=computed.__getitem__) == tc_table_rows(t)
    for n in range(15, 63):
        assert bounds_row(n, computed[n]) == bounds_row(n, zcl_closed_form(n)), n
        a, b = exceptional_degrees(n)
        if b is not None:
            assert a < b and a + b == 3 * n - 5, n
    _stamp(8, "inequality scan, TC table, bounds rows", t0, 5.0)


def test_criterion_9_chained_sweep_matches_per_n_walk():
    t0 = time.perf_counter()
    chained = zcl_results(range(6, 511))
    assert list(chained) == list(range(6, 511))
    for n in range(6, 511):
        assert chained[n] == zcl_search(build_quotient(n)), n
    _stamp(9, "the chained sweep equals the per-n walk, n in [6,510]", t0, 60.0)
