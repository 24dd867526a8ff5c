"""The g-family: golden table, recurrence vs explicit formula, identities."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from w23 import gseries as gseries_module
from w23.groebner import binary_profile
from w23.gseries import GSeries, g_recurrence
from w23.poly import W2, W3, ZERO, poly_text
from w23.verify import (
    failures,
    g_explicit,
    verify_doubling,
    verify_g3_lemma,
    verify_kvadriranje,
)

GOLDEN = Path(__file__).parent / "golden"


def test_golden_table():
    """g_0 through g_26 against the frozen table."""
    expected = (GOLDEN / "table_g.txt").read_text().splitlines()
    got = [f"g_{r} = {poly_text(g_recurrence(r))}" for r in range(27)]
    assert got == expected


def test_recurrence_matches_explicit_formula():
    # covers every generator the closed-form basis reads for n up to 1535
    for r in range(2601):
        assert g_recurrence(r) == g_explicit(r), r


def test_recurrence_relation_direct():
    # g_k = w2*g_{k-2} + w3*g_{k-3}, straight from the defining relation
    for k in range(3, 60):
        assert g_recurrence(k) == W2 * g_recurrence(k - 2) + W3 * g_recurrence(k - 3)


def test_homogeneous():
    for r in range(1, 80):
        g = g_recurrence(r)
        assert g.homogeneous_degree() in (0, r)


def test_inverts_total_class():
    # (1 + w2 + w3) * (g_0 + ... + g_N) has no terms in degrees <= N
    one_plus = ZERO + g_recurrence(0) + W2 + W3
    total = ZERO
    for r in range(25):
        total = total + g_recurrence(r)
    prod = one_plus * total
    low = {m for m in prod.terms if 2 * m[0] + 3 * m[1] <= 24}
    assert low == {(0, 0)}


def test_fresh_cache_independent():
    s = GSeries()
    assert s.g(12) == g_recurrence(12)
    with pytest.raises(ValueError):
        s.g(-1)


def test_g3_lemma():
    for t in range(2, 8):
        assert failures(verify_g3_lemma(t)) == []
    with pytest.raises(ValueError):
        verify_g3_lemma(1)


def test_squaring_identity():
    for i in range(5):
        for r in range(41):
            assert verify_kvadriranje(i, r), (i, r)


def test_doubling_identity():
    for n in range(1, 201):
        assert verify_doubling(n), n


def test_vanishing_indices_small():
    # within the first 27 only g_1, g_5, g_13 vanish (indices 2^t - 3)
    zero_at = [r for r in range(27) if not g_recurrence(r)]
    assert zero_at == [1, 5, 13]


def test_series_rejects_inhomogeneous_term():
    series = GSeries()
    series._bits[2] = 0b11  # corrupt a seed: g_4 = w2*g_2 gets a w3-odd term
    with pytest.raises(RuntimeError):
        series.g(4)


def test_series_rejects_term_of_negative_w2_exponent():
    series = GSeries()
    series._bits[0] = 0b100  # corrupt a seed: g_3 = w3*g_0 gets bit 3 > 3 // 3, odd
    with pytest.raises(RuntimeError):
        series.g(3)


def test_basis_decodes_only_the_generators_it_reads():
    n = 1408
    prof = binary_profile(n)
    read = sorted({n - 2 + (1 << i) - prof.s[i] for i in range(prof.t)})
    assert len(read) == prof.t == 10
    probe = (
        "from w23 import groebner, gseries; groebner.basis_for(1408); "
        "print(sorted(gseries._shared._decoded))"
    )
    src = str(Path(gseries_module.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == f"{read}\n"
