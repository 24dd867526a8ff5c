"""Integer arithmetic layered over zcl(W_n): sandwich bounds for the
zero-divisor cup-length of the oriented Grassmannian G~(n,3), and the lower
bounds for topological complexity that follow.

For n >= 15 the cup-length zcl(G~(n,3)) of the full cohomology ring is pinned
between 1 + zcl(W_n) and 2 + zcl(W_n).  On two sub-ranges of every level
[2^t - 1, 2^(t+1) - 2] the lower value is known to be exact; elsewhere
equality with the lower value is conjectured for all n >= 6, and everything
in this module keeps that epistemic split explicit (an optional `exact` field
rather than a claimed value).  No quotient ring is ever built here: callers
supply zcl(W_n) and the rest is arithmetic.

The TC table of a level is read off these closed forms: its rows are the
maximal runs of n on which zcl(W_n) and the exactness status are constant,
so the boundaries live only in zcl_closed_form and exactness_established.
"""

from __future__ import annotations

from itertools import groupby
from typing import Callable, NamedTuple, Optional

from .groebner import level
from .zcl import zcl_closed_form


def exceptional_degrees(n: int) -> tuple[int, Optional[int]]:
    """Degrees of the indecomposable classes of H*(G~(n,3)) outside W_n.

    There are at most two, a and b with |a| < |b| and |a| + |b| = 3n - 5;
    b is absent exactly for n in {2^t - 1, 2^t, 2^(t+1) - 3, 2^(t+1) - 2}.
    Returns (|a|, |b| or None).
    """
    if n < 15:
        raise ValueError(f"exceptional degrees are tabulated for n >= 15, got {n}")
    p = 1 << level(n)
    first = 3 * n - 2 * p - 1
    second = 2 * p - 4
    if n in {p - 1, p, 2 * p - 3, 2 * p - 2}:
        return min(first, second), None
    return min(first, second), max(first, second)


def height_z_w2(n: int) -> int:
    """Height of z(w2) = w2 (x) 1 + 1 (x) w2 in W_n (x) W_n.

    Squaring is additive across the tensor factors, so the height of a
    z-class is the height of its argument rounded up to the next 2^k - 1.
    For w2 that closed form collapses to two bands per level: 2^t - 1 while
    n <= 2^t + 2^(t-1), then 2^(t+1) - 1.
    """
    if n < 7:
        raise ValueError(f"closed form needs n >= 7, got {n}")
    p = 1 << level(n)
    return p - 1 if n <= p + p // 2 else 2 * p - 1


def exactness_established(n: int) -> bool:
    """Whether zcl(G~(n,3)) = 1 + zcl(W_n) is known, not just conjectured.

    True on roughly the first sixth and the last quarter of each level:
    either n < 2^t + 2^(t-1)/3 + 1, with the edge compared exactly as
    6n < 7*2^t + 6 (it is never an integer), or n >= 2^t + 2^(t-1) + 2^(t-2) + 1.
    """
    if n < 15:
        raise ValueError(f"exactness ranges start at n = 15, got {n}")
    t = level(n)
    p = 1 << t
    if 6 * n < 7 * p + 6:
        return True
    return n >= p + p // 2 + p // 4 + 1


class BoundsRow(NamedTuple):
    """Everything known about zcl(G~(n,3)) and TC(G~(n,3)) for one n.

    `zcl_oriented_exact` is the established value when equality with the
    lower bound is proved and None otherwise; the hi bound always stays two
    above zcl(W_n) regardless.
    """

    n: int
    zcl_wn: int
    zcl_oriented_lo: int
    zcl_oriented_hi: int
    zcl_oriented_exact: Optional[int]
    tc_lower: int
    a_deg: int
    b_deg: Optional[int]


def bounds_row(n: int, zcl_value: int) -> BoundsRow:
    """Assemble the bounds ledger for one n from a supplied zcl(W_n).

    lo = 1 + zcl(W_n) and hi = 2 + zcl(W_n) sandwich zcl(G~(n,3));
    TC(G~(n,3)) >= 1 + lo.  The caller chooses where zcl_value comes from
    (search or closed form), which keeps this layer pure arithmetic.
    """
    if n < 15:
        raise ValueError(f"bounds rows start at n = 15, got {n}")
    a_deg, b_deg = exceptional_degrees(n)
    lo = 1 + zcl_value
    return BoundsRow(
        n=n,
        zcl_wn=zcl_value,
        zcl_oriented_lo=lo,
        zcl_oriented_hi=2 + zcl_value,
        zcl_oriented_exact=lo if exactness_established(n) else None,
        tc_lower=1 + lo,
        a_deg=a_deg,
        b_deg=b_deg,
    )


class TcBand(NamedTuple):
    """One row of the TC lower-bound table: a maximal run of n sharing one
    zcl value and one exactness status.

    `exact` marks rows where zcl(G~(n,3)) = zcl_oriented_lo is established;
    elsewhere the lo value is only a bound (and conjecturally the truth).
    """

    n_first: int
    n_last: int
    zcl_wn: int
    zcl_oriented_lo: int
    exact: bool
    tc_lower: int


def tc_table_rows(
    t: int, zcl_fn: Callable[[int], int] = zcl_closed_form
) -> list[TcBand]:
    """TC lower-bound rows for level t: one TcBand per maximal run of n in
    [2^t - 1, 2^(t+1) - 2] sharing zcl_fn(n) and exactness_established(n).

    zcl_fn supplies zcl(W_n); every n is evaluated, so a search-based zcl_fn
    that differs from the closed form anywhere yields different rows.
    """
    if t < 4:
        raise ValueError(f"levels start at t = 4, got {t}")
    rows = []
    ns = range((1 << t) - 1, (2 << t) - 1)
    for (v, exact), run in groupby(ns, lambda n: (zcl_fn(n), exactness_established(n))):
        run = list(run)
        rows.append(TcBand(run[0], run[-1], v, v + 1, exact, v + 2))
    return rows
