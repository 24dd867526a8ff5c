"""Groebner bases for the ideals I_n = (g_{n-2}, g_{n-1}, g_n).

basis_for builds, for every n >= 2, the known basis

    F_n = {f_0, ..., f_{t-1}},   f_i = w3^(alpha_i*s_{i-1}) * g_{n-2+2^i-s_i},

where 2^t-1 <= n < 2^{t+1}-1 and alpha/s come from the binary digits of
n - 2^t + 1.  F_n is already reduced.  buchberger computes a basis from
arbitrary generators and, with reduce_basis, is the cross-check oracle for
the closed form (the reduced basis is unique, so F_n must equal the reduced
Buchberger basis); normal_form, heap division, is the oracle for the
quotient ring's rewriting.  No command runs them; they stay in this module
because the benchmark tracer wraps groebner.buchberger and
groebner.normal_form here.  Ideal membership by reduction to zero, which
only the checks read, is verify.ideal_member.

BinaryProfile and GroebnerBasis are plain NamedTuples, each built one way:
binary_profile checks the digits, and basis_for, buchberger and
reduce_basis pass in the leading monomials they already hold.  Everything
uses the one fixed monomial order of this package: lex with w2 > w3.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple, Sequence

from .gseries import g_recurrence
from .poly import Monomial, Poly


class BinaryProfile(NamedTuple):
    """The digit data (t, alpha, s, l) attached to n.

    alpha holds the binary digits of n - 2^t + 1, s the partial sums
    s_i = sum of alpha_j*2^j for j <= i (with s_{-1} = 0 by convention),
    and l_i = 2^(t-1-i) + sum of alpha_j*2^(j-i-1) for j > i, minus 1.
    binary_profile, its one constructor, checks that the fields agree.
    """

    n: int
    t: int
    alpha: tuple
    s: tuple
    l: tuple

    def s_prev(self, i: int) -> int:
        return self.s[i - 1] if i > 0 else 0


def level(n: int) -> int:
    """The level t of n: 2^t - 1 <= n <= 2^(t+1) - 2."""
    return (n + 1).bit_length() - 1


def binary_profile(n: int) -> BinaryProfile:
    if n < 2:
        raise ValueError("the ideal chain starts at n = 2")
    t = level(n)
    m = n - (1 << t) + 1
    alpha = tuple((m >> j) & 1 for j in range(t))
    s = tuple(m & ((2 << i) - 1) for i in range(t))
    l = tuple((1 << (t - 1 - i)) + (m >> (i + 1)) - 1 for i in range(t))
    if not (
        len(alpha) == len(s) == len(l) == t
        and sum(a << j for j, a in enumerate(alpha)) == m
        and s[t - 1] == m
        and all(x <= y for x, y in zip(s, s[1:]))
        and all((n + 1 - s[i]) // 2 - (1 << i) == l[i] << i for i in range(t))
    ):
        raise ValueError(f"inconsistent binary profile for n={n}")
    return BinaryProfile(n, t, alpha, s, l)


class GroebnerBasis(NamedTuple):
    """Nonzero basis polynomials and their leading monomials, index for
    index.  Each constructor passes in LMs it holds; nothing recomputes them."""

    polys: tuple
    lms: tuple


def basis_for(n: int) -> GroebnerBasis:
    """F_n, the reduced basis of I_n, for n >= 2, with every leading monomial
    checked against

    LM(f_i) = w2^(2^i*l_i) * w3^(alpha_i*s_{i-1}+2^i-1).

    Built afresh on every call; a caller that reads one basis many times
    holds it, as a QuotientRing does in `gb`.
    """
    prof = binary_profile(n)
    polys, lms = [], []
    for i in range(prof.t):
        e3 = prof.alpha[i] * prof.s_prev(i)
        g = g_recurrence(n - 2 + (1 << i) - prof.s[i])
        f = Poly._raw(frozenset((b, c + e3) for b, c in g.terms)) if e3 else g
        lm = (prof.l[i] << i, e3 + (1 << i) - 1)
        if f.homogeneous_degree() is None or f.leading_monomial() != lm:
            raise RuntimeError(f"F_{n}: f_{i} is not homogeneous with leading monomial {lm}")
        polys.append(f)
        lms.append(lm)
    # the staircase must close off both axes: a pure w2 power and a pure w3 power
    if lms[0][1] != 0 or lms[-1][0] != 0:
        raise RuntimeError(f"F_{n}: the leading monomials leave an axis open")
    return GroebnerBasis(tuple(polys), tuple(lms))


def normal_form(p: Poly, gb: GroebnerBasis) -> Poly:
    """Remainder of p under division by gb.

    Deterministic: always rewrites the lex-greatest monomial still present,
    using the lowest-index basis element whose LM divides it.  No monomial
    of the result is divisible by any LM of gb.
    """
    lms = gb.lms
    polys = gb.polys
    present = set(p.terms)
    heap = [(-b, -c) for b, c in present]
    heapq.heapify(heap)
    remainder = set()
    while heap:
        nb, nc = heapq.heappop(heap)
        m = (-nb, -nc)
        if m not in present:
            continue  # stale entry, already toggled out
        present.discard(m)
        for lm, f in zip(lms, polys):
            if lm[0] <= m[0] and lm[1] <= m[1]:
                db, dc = m[0] - lm[0], m[1] - lm[1]
                for b, c in f.terms:
                    mm = (b + db, c + dc)
                    if mm == m:
                        continue
                    if mm in present:
                        present.discard(mm)
                    else:
                        present.add(mm)
                        heapq.heappush(heap, (-mm[0], -mm[1]))
                break
        else:
            remainder.add(m)
    return Poly._raw(frozenset(remainder))


def _lcm(a: Monomial, b: Monomial) -> Monomial:
    return (max(a[0], b[0]), max(a[1], b[1]))


def _shift(p: Poly, db: int, dc: int) -> Poly:
    return Poly._raw(frozenset((b + db, c + dc) for b, c in p.terms))


def _spoly(f: Poly, mf: Monomial, g: Poly, mg: Monomial) -> Poly:
    l = _lcm(mf, mg)
    return _shift(f, l[0] - mf[0], l[1] - mf[1]) + _shift(g, l[0] - mg[0], l[1] - mg[1])


def buchberger(generators: Sequence[Poly]) -> GroebnerBasis:
    """Buchberger's algorithm with the product and chain criteria (Cox,
    Little and O'Shea, Ideals, Varieties, and Algorithms, Ch. 2 Sec. 10),
    in normal pair order: S-pairs by degree of the lcm, ties by lex.

    A pair (i, j) is skipped when its leading monomials are coprime, or when
    some k outside {i, j} has LM_k | lcm(LM_i, LM_j) and neither (i, k) nor
    (j, k) is still pending.  The basis handed to normal_form is rebuilt only
    when a remainder joins it.
    """
    basis = [p for p in generators if p]
    if not basis:
        raise ValueError("all generators are zero")
    lms = [p.leading_monomial() for p in basis]
    pairs: list = []
    pending: set = set()

    def push_pairs(j: int):
        mj = lms[j]
        for i in range(j):
            mi = lms[i]
            if mi[0] + mj[0] == max(mi[0], mj[0]) and mi[1] + mj[1] == max(mi[1], mj[1]):
                continue  # coprime LMs: S-poly reduces to zero
            l = _lcm(mi, mj)
            heapq.heappush(pairs, (2 * l[0] + 3 * l[1], l, i, j))
            pending.add((i, j))

    def chain(i: int, j: int, l: Monomial) -> bool:
        return any(
            k != i and k != j and mk[0] <= l[0] and mk[1] <= l[1]
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k, mk in enumerate(lms)
        )

    for j in range(len(basis)):
        push_pairs(j)
    gb = GroebnerBasis(tuple(basis), tuple(lms))
    while pairs:
        _, l, i, j = heapq.heappop(pairs)
        pending.discard((i, j))
        if chain(i, j, l):
            continue
        r = normal_form(_spoly(basis[i], lms[i], basis[j], lms[j]), gb)
        if r:
            basis.append(r)
            lms.append(r.leading_monomial())
            push_pairs(len(basis) - 1)
            gb = GroebnerBasis(tuple(basis), tuple(lms))
    return gb


def reduce_basis(gb: GroebnerBasis) -> GroebnerBasis:
    """The unique reduced basis of the same ideal: minimal, tails in normal
    form, sorted by decreasing leading monomial."""
    # sorted by key: Poly has no order, so two polys with equal LMs are never
    # compared; a repeated or divisible LM is dropped, so the kept LMs ascend
    lms: list[Monomial] = []
    polys: list[Poly] = []
    for lm, p in sorted(zip(gb.lms, gb.polys), key=lambda lm_p: lm_p[0]):
        if not any(k[0] <= lm[0] and k[1] <= lm[1] for k in lms):
            lms.append(lm)
            polys.append(p)
    # autoreduce tails; LMs are pairwise non-divisible so one pass settles,
    # and each keeps its LM
    for i in range(len(polys)):
        others = GroebnerBasis((*polys[:i], *polys[i + 1 :]), (*lms[:i], *lms[i + 1 :]))
        polys[i] = normal_form(polys[i], others)
    return GroebnerBasis(tuple(reversed(polys)), tuple(reversed(lms)))
