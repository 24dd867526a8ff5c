"""The generator family g_0, g_1, g_2, ...

These are the homogeneous polynomials defined by inverting 1 + w2 + w3 in
the power-series ring: (1 + w2 + w3)(g_0 + g_1 + g_2 + ...) = 1, where g_r
collects the degree-r part.  They are built here by the three-term
recurrence g_{r+3} = w2*g_{r+1} + w3*g_r with seeds g_0 = 1, g_1 = 0,
g_2 = w2 (`g_recurrence`).  The independent construction it is checked
against, the explicit sum g_r = sum of C(d+e, e)*w2^d*w3^e over 2d+3e = r
with the binomial taken mod 2, is `verify.g_explicit`.

The recurrence runs on packed rows.  Since g_r is homogeneous of degree r,
the w3 exponent c fixes its term: bit c of the int row r stands for
w2^((r-3c)/2)*w3^c, and only bits c <= r//3 with c = r (mod 2) may be set.
Multiplying by w2 keeps a row's bits and multiplying by w3 shifts them up by
one, so one step is row_k = row_{k-2} ^ (row_{k-3} << 1).

The ideal studied elsewhere in this package is I_n = (g_{n-2}, g_{n-1}, g_n).
"""

from __future__ import annotations

from .poly import Poly


class GSeries:
    """Append-only cache of the g_r, grown by the recurrence on packed rows.

    `_bits[k]` is g_k packed by its w3 exponents (see the module docstring);
    every new row is checked to be homogeneous of degree k.  A row becomes a
    `Poly` only when `g` is asked for it, and that `Poly` is kept here, so
    every reader of the same series shares it.
    """

    def __init__(self):
        self._bits: list[int] = [1, 0, 1]
        self._decoded: dict[int, Poly] = {}

    def g(self, r: int) -> Poly:
        if r < 0:
            raise ValueError("g_r is defined for r >= 0")
        poly = self._decoded.get(r)
        if poly is not None:
            return poly
        bits = self._bits
        if len(bits) <= r:
            # even sets bits 0, 2, 4, ... and odd bits 1, 3, 5, ..., both past r // 3;
            # row k may only use the bits of k's parity
            even = ((1 << 2 * (r // 6 + 1)) - 1) // 3
            odd = even << 1
            for k in range(len(bits), r + 1):
                row = bits[k - 2] ^ (bits[k - 3] << 1)
                if row >> (k // 3 + 1) or row & (even if k & 1 else odd):
                    raise RuntimeError(f"g_{k} is not homogeneous of degree {k}")
                bits.append(row)
        row = bits[r]
        cs = range(r % 2, r // 3 + 1, 2)
        terms = frozenset(((r - 3 * c) // 2, c) for c in cs if row >> c & 1)
        poly = self._decoded[r] = Poly._raw(terms)
        return poly


_shared = GSeries()


def g_recurrence(r: int) -> Poly:
    """g_r from the recurrence, memoized in the process-wide series."""
    return _shared.g(r)

