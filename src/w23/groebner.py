"""Groebner bases for the ideals I_n = (g_{n-2}, g_{n-1}, g_n).

Two independent constructions are kept side by side.  closed_form_basis
builds, for n >= 7, the known basis

    F_n = {f_0, ..., f_{t-1}},   f_i = w3^(alpha_i*s_{i-1}) * g_{n-2+2^i-s_i},

where 2^t-1 <= n < 2^{t+1}-1 and alpha/s come from the binary digits of
n - 2^t + 1.  F_n is already reduced.  buchberger computes a basis from
arbitrary generators; it is the fallback for n < 7 and, with reduce_basis,
the cross-check oracle for the closed form (the reduced basis is unique, so
F_n must equal the reduced Buchberger basis).  buchberger, reduce_basis
and normal_form stay in this module because basis_for runs them for
n < 7.  Ideal membership by reduction to zero, which only the checks read,
is verify.ideal_member.

Everything uses the one fixed monomial order of this package: lex with
w2 > w3.
"""

from __future__ import annotations

import heapq
from typing import Iterable, NamedTuple, Sequence

from .gseries import g_recurrence
from .poly import Monomial, Poly


class _ProfileFields(NamedTuple):
    n: int
    t: int
    alpha: tuple
    s: tuple
    l: tuple


class BinaryProfile(_ProfileFields):
    """The digit data (t, alpha, s, l) attached to n.

    alpha holds the binary digits of n - 2^t + 1, s the partial sums
    s_i = sum of alpha_j*2^j for j <= i (with s_{-1} = 0 by convention),
    and l_i = 2^(t-1-i) + sum of alpha_j*2^(j-i-1) for j > i, minus 1.
    Immutable; every construction checks that the fields agree.
    """

    __slots__ = ()

    def __new__(cls, n: int, t: int, alpha: tuple, s: tuple, l: tuple):
        m = n - (1 << t) + 1
        if not (
            len(alpha) == len(s) == len(l) == t
            and sum(a << j for j, a in enumerate(alpha)) == m
            and s[t - 1] == m
            and all(x <= y for x, y in zip(s, s[1:]))
            and all((n + 1 - s[i]) // 2 - (1 << i) == l[i] << i for i in range(t))
        ):
            raise ValueError(f"inconsistent binary profile for n={n}")
        return super().__new__(cls, n, t, alpha, s, l)

    @classmethod
    def _make(cls, iterable):
        # `_replace` builds through `_make`; route it through the check too
        return cls(*iterable)

    def s_prev(self, i: int) -> int:
        return self.s[i - 1] if i > 0 else 0


def binary_profile(n: int) -> BinaryProfile:
    if n < 7:
        raise ValueError("binary profile backs the closed form, stated for n >= 7")
    t = (n + 1).bit_length() - 1
    m = n - (1 << t) + 1
    alpha = tuple((m >> j) & 1 for j in range(t))
    s = tuple(m & ((2 << i) - 1) for i in range(t))
    l = tuple((1 << (t - 1 - i)) + (m >> (i + 1)) - 1 for i in range(t))
    return BinaryProfile(n, t, alpha, s, l)


class GroebnerBasis:
    """An ordered list of basis polynomials with cached leading monomials."""

    __slots__ = ("n", "polys", "lms")

    def __init__(self, polys: Iterable[Poly], n: int | None = None):
        ps = tuple(p for p in polys if p)
        if not ps:
            raise ValueError("empty Groebner basis")
        object.__setattr__(self, "polys", ps)
        object.__setattr__(self, "lms", tuple(p.leading_monomial() for p in ps))
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("GroebnerBasis is immutable")

    def __len__(self) -> int:
        return len(self.polys)

    def __repr__(self) -> str:
        tag = f"I_{self.n}" if self.n is not None else "ideal"
        return f"GroebnerBasis({tag}, {len(self.polys)} polynomials)"


def closed_form_basis(n: int) -> GroebnerBasis:
    """F_n for n >= 7, with every leading monomial checked against

    LM(f_i) = w2^(2^i*l_i) * w3^(alpha_i*s_{i-1}+2^i-1).
    """
    prof = binary_profile(n)
    polys = []
    for i in range(prof.t):
        e3 = prof.alpha[i] * prof.s_prev(i)
        g = g_recurrence(n - 2 + (1 << i) - prof.s[i])
        f = Poly._raw(frozenset((b, c + e3) for b, c in g.terms)) if e3 else g
        lm = (prof.l[i] << i, e3 + (1 << i) - 1)
        if f.homogeneous_degree() is None or f.leading_monomial() != lm:
            raise RuntimeError(f"F_{n}: f_{i} is not homogeneous with leading monomial {lm}")
        polys.append(f)
    gb = GroebnerBasis(polys, n=n)
    # the staircase must close off both axes: a pure w2 power and a pure w3 power
    if gb.lms[0][1] != 0 or gb.lms[-1][0] != 0:
        raise RuntimeError(f"F_{n}: the leading monomials leave an axis open")
    return gb


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


def _spoly(f: Poly, g: Poly) -> Poly:
    mf, mg = f.leading_monomial(), g.leading_monomial()
    l = _lcm(mf, mg)
    return _shift(f, l[0] - mf[0], l[1] - mf[1]) + _shift(g, l[0] - mg[0], l[1] - mg[1])


def buchberger(generators: Sequence[Poly], n: int | None = None) -> GroebnerBasis:
    """Textbook Buchberger with the product criterion, normal pair order
    (S-pairs by degree of the lcm, ties by lex)."""
    basis = [p for p in generators if p]
    if not basis:
        raise ValueError("all generators are zero")
    pairs: list = []

    def push_pairs(j: int):
        mj = basis[j].leading_monomial()
        for i in range(j):
            mi = basis[i].leading_monomial()
            if mi[0] + mj[0] == max(mi[0], mj[0]) and mi[1] + mj[1] == max(mi[1], mj[1]):
                continue  # coprime LMs: S-poly reduces to zero
            l = _lcm(mi, mj)
            heapq.heappush(pairs, (2 * l[0] + 3 * l[1], l, i, j))

    for j in range(len(basis)):
        push_pairs(j)
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        r = normal_form(_spoly(basis[i], basis[j]), GroebnerBasis(basis))
        if r:
            basis.append(r)
            push_pairs(len(basis) - 1)
    return GroebnerBasis(basis, n=n)


def reduce_basis(gb: GroebnerBasis) -> GroebnerBasis:
    """The unique reduced basis of the same ideal: minimal, tails in normal
    form, sorted by decreasing leading monomial."""
    by_lm = sorted(set(gb.polys), key=Poly.leading_monomial)
    minimal: list[Poly] = []
    kept_lms: list[Monomial] = []
    for p in by_lm:
        lm = p.leading_monomial()
        if not any(k[0] <= lm[0] and k[1] <= lm[1] for k in kept_lms):
            minimal.append(p)
            kept_lms.append(lm)
    # autoreduce tails; LMs are pairwise non-divisible so one pass settles
    for i in range(len(minimal)):
        others = minimal[:i] + minimal[i + 1 :]
        if others:
            minimal[i] = normal_form(minimal[i], GroebnerBasis(others))
    minimal.sort(key=Poly.leading_monomial, reverse=True)
    return GroebnerBasis(minimal, n=gb.n)


def basis_for(n: int) -> GroebnerBasis:
    """The reduced basis of I_n: the closed form for n >= 7, Buchberger below.

    Built afresh on every call; a caller that reads one basis many times
    holds it, as a QuotientRing does in `gb`.
    """
    if n >= 7:
        return closed_form_basis(n)
    if n < 2:
        raise ValueError("ideal index must be at least 2")
    gens = [g_recurrence(n - 2), g_recurrence(n - 1), g_recurrence(n)]
    return reduce_basis(buchberger(gens, n=n))

