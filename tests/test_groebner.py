"""Both basis constructions, division, and the membership lemmas."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from w23 import groebner as groebner_module
from w23.gseries import g_recurrence
from w23.groebner import (
    BinaryProfile,
    GroebnerBasis,
    basis_for,
    binary_profile,
    buchberger,
    normal_form,
    reduce_basis,
)
from w23.poly import ONE, W2, W3, ZERO, Poly
from w23.verify import failures, ideal_member, verify_membership_lemmas, w3_ideal_member


def mono(b, c):
    return Poly({(b, c)})


def w3_shift(p, e):
    return Poly((b, c + e) for b, c in p.terms)


# ---------------------------------------------------------------- profiles


def test_profile_n21():
    prof = binary_profile(21)
    assert (prof.t, prof.alpha, prof.s) == (4, (0, 1, 1, 0), (0, 2, 6, 6))
    assert prof.l == (10, 4, 1, 0)
    assert prof.s_prev(0) == 0
    with pytest.raises(AttributeError):
        prof.t = 5


def test_profile_rejects_inconsistent_digits():
    with pytest.raises(ValueError):
        BinaryProfile(21, 4, (1, 1, 1, 0), (0, 2, 6, 6), (10, 4, 1, 0))
    with pytest.raises(ValueError):
        binary_profile(21)._replace(t=5)


def test_closed_form_rejects_wrong_generator(monkeypatch):
    monkeypatch.setattr(groebner_module, "g_recurrence", lambda r: g_recurrence(r) + ONE)
    with pytest.raises(RuntimeError):
        basis_for(21)


def test_profile_n15():
    prof = binary_profile(15)
    assert (prof.t, prof.alpha, prof.s) == (4, (0, 0, 0, 0), (0, 0, 0, 0))


def test_profile_all_ones():
    # n = 2^(t+1)-2 makes n-2^t+1 = 2^t-1, i.e. every digit set
    for t in (3, 4, 5):
        prof = binary_profile((1 << (t + 1)) - 2)
        assert prof.alpha == (1,) * t


def test_profile_rejects_small_n():
    with pytest.raises(ValueError):
        binary_profile(1)
    with pytest.raises(ValueError):
        basis_for(1)


def test_profile_invariants_sweep():
    # the dataclass asserts its own arithmetic; just exercise a wide range
    for n in range(2, 260):
        prof = binary_profile(n)
        assert len(prof.alpha) == len(prof.s) == len(prof.l) == prof.t


# ------------------------------------------------------- closed-form bases


def test_closed_form_n21():
    gb = basis_for(21)
    assert gb.polys[2] == mono(4, 5)
    assert gb.polys[3] == mono(0, 7)
    assert gb.polys[0] == g_recurrence(20)
    assert gb.polys[1] == mono(8, 1) + mono(2, 5)


def test_closed_form_n15():
    gb = basis_for(15)
    assert gb.polys[0] == g_recurrence(14)
    assert gb.polys[0] == Poly({(7, 0), (4, 2), (1, 4)})


def test_closed_form_n22():
    assert basis_for(22).polys[1] == mono(8, 2) + mono(2, 6)


def test_closed_form_staircase_closes():
    for n in range(2, 70):
        gb = basis_for(n)
        assert gb.lms[0][1] == 0 and gb.lms[-1][0] == 0


def test_case_power_of_two_minus_one():
    # n = 2^t-1: every f_i = g_{2^t+2^i-3} with LM w2^(2^(t-1)-2^i)*w3^(2^i-1)
    for t in (3, 4, 5, 6):
        gb = basis_for((1 << t) - 1)
        for i in range(t):
            assert gb.polys[i] == g_recurrence((1 << t) + (1 << i) - 3)
            assert gb.lms[i] == ((1 << (t - 1)) - (1 << i), (1 << i) - 1)


def test_case_quarter_plus_eps():
    # n = 2^t+2^(t-2)+eps, eps in {0,1}
    for t in (4, 5, 6):
        h = 1 << (t - 1)
        for eps in (0, 1):
            gb = basis_for((h << 1) + (h >> 1) + eps)
            assert gb.polys[0] == g_recurrence((h << 1) + (h >> 1) + 2 * eps - 2)
            assert gb.lms[0] == (h + (h >> 2) + eps - 1, 0)
            for i in range(1, t - 2):
                q = 1 << i
                expect = w3_shift(g_recurrence((h >> (i - 1)) + (h >> (i + 1)) - 2) ** q, q - 1)
                assert gb.polys[i] == expect
                assert gb.lms[i] == (h + (h >> 2) - q, q - 1)
            assert gb.polys[t - 3] == mono(h, (h >> 2) - 1) + mono(h >> 2, (h >> 1) + (h >> 2) - 1)
            assert gb.polys[t - 2] == mono(h >> 1, (h >> 1) + eps)
            assert gb.polys[t - 1] == mono(0, h - 1)


def test_case_quarter_plus_two():
    # n = 2^t+2^(t-2)+2
    for t in (4, 5, 6):
        h = 1 << (t - 1)
        gb = basis_for((h << 1) + (h >> 1) + 2)
        assert gb.polys[0] == g_recurrence((h << 1) + (h >> 1))
        assert gb.lms[0] == (h + (h >> 2), 0)
        assert gb.polys[1] == w3_shift(g_recurrence(h + (h >> 2) - 2) ** 2, 2)
        assert gb.lms[1] == (h + (h >> 2) - 2, 2)
        for i in range(2, t - 2):
            q = 1 << i
            expect = w3_shift(g_recurrence((h >> (i - 1)) + (h >> (i + 1)) - 2) ** q, q - 1)
            assert gb.polys[i] == expect
            assert gb.lms[i] == (h + (h >> 2) - q, q - 1)
        if t == 4:
            assert gb.polys[t - 3] == mono(8, 2) + mono(2, 6)
        else:
            assert gb.polys[t - 3] == mono(h, (h >> 2) - 1) + mono(h >> 2, (h >> 1) + (h >> 2) - 1)
        assert gb.polys[t - 2] == mono(h >> 1, (h >> 1) + 2)
        assert gb.polys[t - 1] == mono(0, h - 1)


def test_case_half_plus_one():
    # n = 2^t+2^(t-1)+1
    for t in (4, 5, 6):
        h = 1 << (t - 1)
        gb = basis_for(3 * h + 1)
        assert gb.polys[0] == g_recurrence(3 * h)
        assert gb.lms[0] == (h + (h >> 1), 0)
        for i in range(1, t - 1):
            q = 1 << i
            expect = w3_shift(g_recurrence((h >> (i - 1)) + (h >> i) - 2) ** q, q - 1)
            assert gb.polys[i] == expect
            assert gb.lms[i] == (h + (h >> 1) - q, q - 1)
        assert gb.polys[t - 2] == mono(h, (h >> 1) - 1)
        assert gb.polys[t - 1] == mono(0, h + 1)


def test_case_near_top():
    # n = 2^(t+1)-2^(s+1)+1
    for t in (4, 5, 6):
        for s in range(1, t - 2):
            p, q = 1 << t, 1 << s
            gb = basis_for(2 * p - 2 * q + 1)
            assert gb.polys[0] == g_recurrence(2 * p - 2 * q)
            assert gb.lms[0] == (p - q, 0)
            for i in range(1, s + 1):
                e = 1 << i
                expect = w3_shift(g_recurrence((p >> (i - 1)) - (q >> (i - 1)) - 2) ** e, e - 1)
                assert gb.polys[i] == expect
                assert gb.lms[i] == (p - q - e, e - 1)
            for i in range(s + 1, t):
                e = 1 << i
                expect = w3_shift(g_recurrence((p >> (i - 1)) - 4) ** e, 2 * e - 2 * q + 1)
                assert gb.polys[i] == expect
                assert gb.lms[i] == (p - 2 * e, 2 * e - 2 * q + 1)
            assert gb.polys[t - 2] == mono(p // 2, p // 2 - 2 * q + 1)
            assert gb.polys[t - 1] == mono(0, p - 2 * q + 1)


def test_case_top_relations():
    # in the quotient by I_{2^(t+1)-2^s}:
    #   w2^(2^(t-1)+2^(t-2)) * w3^(2^(t-2)-2^s) = w3^(2^(t-1)+2^(t-2)-2^s)
    #   w2^(2^(t-1)) * w3^(2^(t-1)-2^s) = 0,   w3^(2^t-2^s) = 0
    for t in (4, 5, 6):
        for s in range(1, t - 2):
            p, q = 1 << t, 1 << s
            n = 2 * p - q
            assert ideal_member(
                mono(p // 2 + p // 4, p // 4 - q) + mono(0, p // 2 + p // 4 - q), n
            )
            assert ideal_member(mono(p // 2, p // 2 - q), n)
            assert ideal_member(mono(0, p - q), n)


# --------------------------------------------------- division / membership


def test_normal_form_examples():
    f15 = basis_for(15)
    assert normal_form(mono(0, 7), f15) == ZERO
    assert normal_form(mono(2, 3), f15) == mono(2, 3)
    assert normal_form(ZERO, f15) == ZERO


def test_normal_form_no_reducible_monomials():
    rng = random.Random(7)
    for n in (9, 15, 21, 26):
        gb = basis_for(n)
        for _ in range(50):
            p = Poly((rng.randrange(20), rng.randrange(14)) for _ in range(4))
            r = normal_form(p, gb)
            for m in r.terms:
                assert not any(lm[0] <= m[0] and lm[1] <= m[1] for lm in gb.lms)


@given(
    st.frozensets(st.tuples(st.integers(0, 24), st.integers(0, 16)), max_size=5),
    st.frozensets(st.tuples(st.integers(0, 24), st.integers(0, 16)), max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_normal_form_idempotent_linear(a_terms, b_terms):
    gb = basis_for(17)
    a, b = Poly(a_terms), Poly(b_terms)
    nfa = normal_form(a, gb)
    assert normal_form(nfa, gb) == nfa
    assert normal_form(a + b, gb) == nfa + normal_form(b, gb)


def test_generators_reduce_to_zero():
    for n in range(7, 40):
        for r in (n - 2, n - 1, n):
            assert ideal_member(g_recurrence(r), n)


def test_one_not_member():
    for n in (6, 7, 15, 30):
        assert not ideal_member(ONE, n)


def test_w2_six_in_i12():
    assert ideal_member(W2 ** 6, 12)


def test_ideals_descend():
    # I_{n+1} is contained in I_n
    for n in range(7, 65):
        for r in (n - 1, n, n + 1):
            assert ideal_member(g_recurrence(r), n)


def test_w3_shift_lands_one_higher():
    # w3*I_n is contained in I_{n+1}
    for n in range(7, 65):
        for r in (n - 2, n - 1, n):
            assert ideal_member(W3 * g_recurrence(r), n + 1)


def test_w3_ideal_membership():
    assert w3_ideal_member(ZERO, 9)
    assert not w3_ideal_member(W2, 9)
    assert w3_ideal_member(g_recurrence(24) + W2 ** 12 + mono(3, 6), 21)


def test_squares_of_w3_multiples():
    # f in w3*I_n forces f^2 into w3*I_{2n+1} (hence also w3*I_{2n})
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randrange(7, 25)
        combo = ZERO
        for r in (n - 2, n - 1, n):
            if rng.randrange(2):
                coeff = Poly((rng.randrange(4), rng.randrange(3)) for _ in range(2))
                combo = combo + coeff * g_recurrence(r)
        f = W3 * combo
        assert w3_ideal_member(f, n)
        assert w3_ideal_member(f ** 2, 2 * n + 1)
        assert w3_ideal_member(f ** 2, 2 * n)


def test_membership_lemmas():
    for t in range(3, 7):
        assert failures(verify_membership_lemmas(t)) == []
    with pytest.raises(ValueError):
        verify_membership_lemmas(2)


# ------------------------------------------------------- buchberger oracle


def test_buchberger_units_and_principal():
    assert buchberger([ONE]).polys == (ONE,)
    assert buchberger([W2]).polys == (W2,)
    with pytest.raises(ValueError):
        buchberger([ZERO, ZERO])


def test_reduce_basis_drops_redundant():
    gb = reduce_basis(buchberger([W2, W2 ** 2 + W3]))
    assert set(gb.polys) == {W2, W3}


def test_reduce_basis_fixpoint():
    gb = reduce_basis(buchberger([W2 ** 2, W3 ** 2]))
    assert reduce_basis(gb).polys == gb.polys


def test_basis_for_n6():
    gb = basis_for(6)
    assert set(gb.polys) == {W2 ** 2, W3 ** 2}


def test_basis_for_is_already_reduced():
    # F_n is the reduced basis itself, so reducing it changes nothing
    for n in range(2, 1101):
        gb = basis_for(n)
        assert reduce_basis(gb).polys == gb.polys, n


def test_basis_for_builds_afresh():
    # no process-wide basis cache: callers that reuse a basis hold it
    for n in (6, 21):
        first, second = basis_for(n), basis_for(n)
        assert first.polys == second.polys
        assert first is not second


def test_differential_small_range():
    # closed form vs Buchberger on the raw generators; the reduced basis of
    # an ideal is unique, so after reduce_basis they must agree exactly
    for n in range(2, 33):
        direct = reduce_basis(basis_for(n))
        generic = reduce_basis(
            buchberger([g_recurrence(n - 2), g_recurrence(n - 1), g_recurrence(n)], n=n)
        )
        assert direct.polys == generic.polys, n
