"""The generator family g_0, g_1, g_2, ...

These are the homogeneous polynomials defined by inverting 1 + w2 + w3 in
the power-series ring: (1 + w2 + w3)(g_0 + g_1 + g_2 + ...) = 1, where g_r
collects the degree-r part.  Two independent constructions are provided:

* the three-term recurrence g_{r+3} = w2*g_{r+1} + w3*g_r with seeds
  g_0 = 1, g_1 = 0, g_2 = w2 (the production path), and
* the explicit sum g_r = sum of C(d+e, e)*w2^d*w3^e over 2d+3e = r with
  the binomial taken mod 2 (the test oracle).

The ideal studied elsewhere in this package is I_n = (g_{n-2}, g_{n-1}, g_n).
"""

from __future__ import annotations

from .poly import ONE, W2, ZERO, Poly, lucas_binom_mod2
from .report import Check, check_eq


class GSeries:
    """Append-only cache of the g_r, grown by the recurrence."""

    def __init__(self):
        self._polys: list[Poly] = [ONE, ZERO, W2]

    def g(self, r: int) -> Poly:
        if r < 0:
            raise ValueError("g_r is defined for r >= 0")
        polys = self._polys
        while len(polys) <= r:
            k = len(polys)
            by_w2 = {(b + 1, c) for b, c in polys[k - 2].terms}
            by_w3 = {(b, c + 1) for b, c in polys[k - 3].terms}
            gk = Poly._raw(frozenset(by_w2 ^ by_w3))
            if any(2 * b + 3 * c != k for b, c in gk.terms):
                raise RuntimeError(f"g_{k} is not homogeneous of degree {k}")
            polys.append(gk)
        return polys[r]


_shared = GSeries()


def g_recurrence(r: int, series: GSeries | None = None) -> Poly:
    """g_r from the recurrence (memoized in a shared cache by default)."""
    return (_shared if series is None else series).g(r)


def g_explicit(r: int) -> Poly:
    """g_r from the explicit formula; pure, no cache."""
    if r < 0:
        raise ValueError("g_r is defined for r >= 0")
    terms = []
    for e in range(r // 3 + 1):
        rem = r - 3 * e
        if rem % 2:
            continue
        d = rem // 2
        if lucas_binom_mod2(d + e, e):
            terms.append((d, e))
    return Poly._raw(frozenset(terms))


def _single(b: int, c: int) -> Poly:
    return Poly._raw(frozenset({(b, c)}))


def verify_g3_lemma(t: int) -> list[Check]:
    """The five closed-form evaluations of g at indices near 2^t.

    (a) g_{2^t-3} = 0
    (b) g_{2^t+2^{t-1}-3} = w3^(2^{t-1}-1)
    (c) g_{2^t+2^{t-2}-3} = w2^(2^{t-2}) * w3^(2^{t-2}-1)
    (d) g_{2^t+2^{t-1}+2^{t-2}-3} = w2^(2^{t-1}) * w3^(2^{t-2}-1)
    (e) g_{2^t+2^{t-1}+2^{t-3}-3} = w2^(2^{t-1}+2^{t-3}) * w3^(2^{t-3}-1),
        for t >= 3 only.
    """
    if t < 2:
        raise ValueError("requires t >= 2")
    p = 1 << t
    cases = [
        ("a", p - 3, ZERO),
        ("b", p + p // 2 - 3, _single(0, p // 2 - 1)),
        ("c", p + p // 4 - 3, _single(p // 4, p // 4 - 1)),
        ("d", p + p // 2 + p // 4 - 3, _single(p // 2, p // 4 - 1)),
    ]
    if t >= 3:
        cases.append(("e", p + p // 2 + p // 8 - 3, _single(p // 2 + p // 8, p // 8 - 1)))
    return [
        check_eq(f"g3({part}) t={t}: g_{r}", expect, g_recurrence(r))
        for part, r, expect in cases
    ]


def verify_kvadriranje(i: int, r: int) -> bool:
    """g_{2^i*(r+3)-3} = w3^(2^i-1) * g_r^(2^i)."""
    q = 1 << i
    rhs = frozenset((b, c + q - 1) for b, c in (g_recurrence(r) ** q).terms)
    return g_recurrence(q * (r + 3) - 3).terms == rhs


def verify_doubling(n: int) -> bool:
    """g_{2n} = g_n^2 + w2 * g_{n-1}^2."""
    if n < 1:
        raise ValueError("requires n >= 1")
    return g_recurrence(2 * n) == g_recurrence(n) ** 2 + W2 * g_recurrence(n - 1) ** 2
