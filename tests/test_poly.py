"""Ring axioms and rendering for the GF(2) polynomial core."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from w23.poly import (
    ONE,
    W2,
    W3,
    ZERO,
    Poly,
    deg,
    lucas_binom_mod2,
    mono_text,
    poly_text,
)


def pascal_mod2(rows: int) -> list[list[int]]:
    """Independent binomial oracle: Pascal's triangle reduced mod 2."""
    tri = [[1]]
    for _ in range(rows - 1):
        prev = tri[-1]
        row = [1]
        for i in range(len(prev) - 1):
            row.append((prev[i] + prev[i + 1]) % 2)
        row.append(1)
        tri.append(row)
    return tri


def test_lucas_against_pascal():
    tri = pascal_mod2(65)
    for a in range(65):
        for k in range(a + 1):
            assert lucas_binom_mod2(a, k) == tri[a][k], (a, k)


def test_lucas_out_of_range():
    assert lucas_binom_mod2(5, -1) == 0
    assert lucas_binom_mod2(5, 6) == 0
    assert lucas_binom_mod2(-1, 0) == 0
    assert lucas_binom_mod2(0, 0) == 1


monomials = st.tuples(st.integers(0, 9), st.integers(0, 9))
polys = st.frozensets(monomials, max_size=6).map(Poly)


@given(polys, polys)
def test_add_commutes(p, q):
    assert p + q == q + p


@given(polys, polys, polys)
def test_add_associates(p, q, r):
    assert (p + q) + r == p + (q + r)


@given(polys)
def test_add_self_cancels(p):
    assert p + p == ZERO
    assert p + ZERO == p


@given(polys, polys)
def test_mul_commutes(p, q):
    assert p * q == q * p


@given(polys, polys, polys)
def test_mul_associates(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polys, polys, polys)
def test_mul_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys)
def test_mul_units(p):
    assert p * ONE == p
    assert p * ZERO == ZERO


@given(polys, polys)
def test_frobenius(p, q):
    assert p ** 2 == p * p
    assert (p + q) ** 2 == p ** 2 + q ** 2


@given(polys, st.integers(0, 6))
def test_pow_is_repeated_mul(p, e):
    expected = ONE
    for _ in range(e):
        expected = expected * p
    assert p ** e == expected


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        W2 ** -1


def test_leading_monomial_is_lex_max():
    # lex with w2 > w3: compare the w2 exponent first
    p = Poly({(1, 5), (2, 0), (0, 9)})
    assert p.leading_monomial() == (2, 0)
    with pytest.raises(ValueError):
        ZERO.leading_monomial()


def test_homogeneous_degree():
    assert ZERO.homogeneous_degree() == 0
    assert ONE.homogeneous_degree() == 0
    assert (W2 * W3).homogeneous_degree() == 5
    assert (W2 ** 3 + W3 ** 2).homogeneous_degree() == 6
    assert (W2 + W3).homogeneous_degree() is None


def test_monomial_helpers():
    assert deg((4, 1)) == 11
    with pytest.raises(ValueError):
        Poly({(0, -2)})


def test_immutable_and_hashable():
    p = W2 + W3
    with pytest.raises(AttributeError):
        p.terms = frozenset()
    assert len({p, W2 + W3, W2}) == 2


def test_rendering():
    assert poly_text(ZERO) == "0"
    assert poly_text(ONE) == "1"
    assert mono_text((1, 1)) == "w2*w3"
    assert mono_text((0, 3)) == "w3^3"
    assert poly_text(W2 ** 4 + W2 * W3 ** 2) == "w2^4 + w2*w3^2"
    assert str(W2 + W3) == "w2 + w3"


def test_bulk_random_products_stay_consistent():
    # brute-force coefficient count vs set-based product
    rng = random.Random(20230916)
    for _ in range(200):
        a = frozenset((rng.randrange(6), rng.randrange(6)) for _ in range(rng.randrange(5)))
        b = frozenset((rng.randrange(6), rng.randrange(6)) for _ in range(rng.randrange(5)))
        counts: dict = {}
        for b1, c1 in a:
            for b2, c2 in b:
                k = (b1 + b2, c1 + c2)
                counts[k] = counts.get(k, 0) + 1
        expected = frozenset(k for k, v in counts.items() if v % 2)
        assert (Poly(a) * Poly(b)).terms == expected
