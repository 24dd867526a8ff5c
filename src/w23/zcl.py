"""Zero-divisor arithmetic in the tensor square W_n (x) W_n.

Elements are sets of pairs (m1, m2) of basis monomials: the pairs e (x) f
with e, f ranging over the additive basis B_n form a basis of the tensor
square, so an element is zero exactly when its pair set is empty.  For a
ring class a, the zero divisor z(a) = a (x) 1 + 1 (x) a.

The quantity computed here is the largest beta + gamma with

    z(w2)^beta * z(w3)^gamma != 0,

which realizes the zero-divisor cup-length of W_n (w2 and w3 are the only
indecomposables).  The product decomposes into bigraded pieces indexed by
the left degree r, each piece a Lucas-filtered sum of nf(b, c) (x)
nf(beta-b, gamma-c) over 2b+3c = r; the product is nonzero iff some piece
is nonempty.  Only the upper half of the degrees is read: the coordinate
swap is a ring automorphism fixing every z(w2)^beta z(w3)^gamma, so the
piece at r mirrors the piece at 2*beta+3*gamma-r.

One generator, _pieces, walks a cell's terms; its docstring states the scan
order and the prune by the ring's nonzero staircase.  C(gamma, c) is odd
exactly for the submasks c of gamma, so the terms are found by walking
c = (c - 1) & gamma and keeping the b that are submasks of beta.  The
cell test sums each piece on packed GF(2) rows (the idea of M4RI): per set
bit of a left QuotientRing.nf_bits form, the XOR of the right forms paired
with it; the piece is nonzero iff some row is.  `witness` sums the same
pieces as sets of monomial pairs (nf_set) and reads the least pair off the
first nonzero one.  The oracle both are checked against, the full Lucas
scan verify.graded_piece, lives with the checks.

The (beta, gamma) search walks a staircase instead of the full grid:
multiplying a zero element by further zero divisors keeps it zero, so
vanishing is upward-closed in each exponent and the boundary is monotone.
It is also bounded: a row stops at the floor best - gamma, below which no
cell beats the best value so far, and the walk ends once no later row can.
Where the boundary runs flat the walk jumps: once (beta, gamma) is
nonzero, it bisects for the last nonzero gamma' at that beta (_row_end)
and resumes one row higher at beta - 1, with the row-by-row walk's final
cell (zcl_search).  At W_1408, one flat row, that is one cell test and
one probe of the cap cell's balanced piece instead of 512 cells.
The search returns that cell, ZclResult(beta, gamma), and its value is
derived, beta + gamma: the nonzero product is the whole fact the lower
bound rests on.  A pair (m1, m2) that survives in it only illustrates the
fact, so it is built apart, by `witness`, and only `w23 zcl` asks for it.
Exponent caps come from the heights of w2 and w3: an element of height h,
2^u <= h < 2^(u+1), gives z of height 2^(u+1)-1.

A sweep over n runs down one Chain, whose search of W_n starts from what
the larger rings learned (its docstring says why that is sound).  The
search reads the ring's known-vanishing staircase: a probe at or above it
answers "vanishes" without a piece scan, and where it closes a row below
the cap, its last open cell, most often where the row ended in the ring
above, is probed first (_row_end).  The answers are the scan's, so each
result is the per-n walk's.  A fresh ring's staircase answers no cell of
its first search: the walk scans every cell it tests and stays the oracle.
The sweep, with its stored results and pool, is cache.zcl_results.
"""

from __future__ import annotations

from typing import NamedTuple

from .groebner import level
from .quotient import QuotientRing, brute_heights, build_quotient, last_true

SMALL_N_ZCL = {6: 2, 7: 7, 8: 7, 9: 7, 10: 8, 11: 9, 12: 10, 13: 15, 14: 16}

Pair = tuple  # (Monomial, Monomial)


def _scan_degrees(q: QuotientRing, beta: int, gamma: int):
    # balanced degree first, upper half only (swap symmetry covers the rest)
    total = 2 * beta + 3 * gamma
    lo = max((total + 1) // 2, total - q.max_degree)
    return range(lo, min(total, q.max_degree) + 1)


def _piece_nonzero(nf_bits, beta: int, gamma: int, terms: list) -> bool:
    """Whether the sum of nf(b, c) (x) nf(beta-b, gamma-c) over the (b, c)
    terms, one piece's, is nonzero.

    The piece is held as packed rows: for every left basis monomial (a set
    bit of some nf_bits), the XOR of the right-hand bitmasks paired with it.
    """
    rows: dict[int, int] = {}  # left bit -> XOR of its right bitmasks
    for b, c in terms:
        left = nf_bits(b, c)
        if not left:
            continue
        right = nf_bits(beta - b, gamma - c)
        if not right:
            continue
        while left:
            low = left & -left
            rows[low] = rows.get(low, 0) ^ right
            left ^= low
    return any(rows.values())


def _pieces(q: QuotientRing, beta: int, gamma: int):
    """The pieces of z(w2)^beta*z(w3)^gamma a scan reads, in scan order, as
    (r, terms): the (b, c) whose nf(b, c) (x) nf(beta-b, gamma-c) sum to the
    left-degree-r piece, where a term with a zero factor may be left out.

    The balanced piece, of left degree r0, comes first, with all its Lucas
    terms: each submask c of gamma with b = (r0 - 3c)/2 a submask of beta.
    Only after it is the nonzero staircase read: w2^b*w3^c != 0 iff b <=
    q.top(c), so a term has both factors nonzero iff max(0, beta -
    top(gamma-c)) <= b <= min(beta, top(c)); top(gamma-c) is read only
    where top(c) >= 0.  Each such term of left degree above r0 is kept
    once, under that degree, and those pieces follow in ascending degree.
    Exact: the terms dropped are those the full scan discards after a zero
    normal form, and a degree with no term left has a zero piece.
    Deferring the staircase keeps it off the cells whose balanced piece is
    nonzero, most cells near the edge.
    """
    if beta < 0 or gamma < 0:
        raise ValueError("exponents must be nonnegative")
    degrees = _scan_degrees(q, beta, gamma)
    if not degrees:
        return
    r0 = degrees[0]
    cs, balanced = [], []  # cs: the c with C(gamma, c) odd, the submasks of gamma
    c = gamma
    while True:
        cs.append(c)
        rem = r0 - 3 * c
        if not rem & 1 and not (rem >> 1) & ~beta:  # C(beta, b) odd; fails for b < 0
            balanced.append((rem >> 1, c))
        if not c:
            break
        c = (c - 1) & gamma
    yield r0, balanced
    top = q.top
    pieces: dict[int, list] = {}  # left degree above r0 -> its kept terms, in cs order
    for c in cs:
        hi = min(beta, top(c))
        if hi >= 0:
            lo = max(0, beta - top(gamma - c), (r0 - 3 * c) // 2 + 1)
            for b in range(lo, hi + 1):
                if not b & ~beta:
                    pieces.setdefault(2 * b + 3 * c, []).append((b, c))
    for r in sorted(pieces):
        yield r, pieces[r]


def zero_divisor_product_nonzero(q: QuotientRing, beta: int, gamma: int) -> bool:
    """Whether z(w2)^beta * z(w3)^gamma != 0 in W_n (x) W_n: whether some
    piece _pieces reads is, on packed rows."""
    nf_bits = q.nf_bits
    pieces = _pieces(q, beta, gamma)
    return any(_piece_nonzero(nf_bits, beta, gamma, terms) for _, terms in pieces)


class ZclResult(NamedTuple):
    """A nonzero cell z(w2)^beta*z(w3)^gamma; its value is beta + gamma."""

    beta: int
    gamma: int

    @property
    def value(self) -> int:
        return self.beta + self.gamma


def _zcap(h: int) -> int:
    # height h in [2^u, 2^(u+1)) gives height(z) = 2^(u+1)-1
    return (1 << h.bit_length()) - 1


def witness(q: QuotientRing, beta: int, gamma: int) -> tuple[int, Pair]:
    """(r, (m1, m2)): a pair of basis monomials that survives in
    z(w2)^beta*z(w3)^gamma, at the first nonzero piece _pieces reads, the
    lexicographically least pair there.  Raises ValueError on a negative
    exponent or a vanishing product."""
    nf_set = q.nf_set
    for r, terms in _pieces(q, beta, gamma):
        pairs: set = set()
        for b, c in terms:
            left = nf_set(b, c)
            right = left and nf_set(beta - b, gamma - c)
            pairs ^= {(m, mm) for m in left for mm in right}
        if pairs:
            return r, min(pairs)
    raise ValueError(f"W_{q.n}: z(w2)^{beta}*z(w3)^{gamma} vanishes, so it has no witness")


def _nonzero(q: QuotientRing, beta: int, gamma: int, stair: list[int]) -> bool:
    """zero_divisor_product_nonzero, read off the known-vanishing staircase
    where it can be: a cell at or above it vanishes without a scan, and a
    cell the scan finds to vanish lowers it for its gamma and every gamma
    above.
    """
    if beta >= stair[gamma]:
        return False
    if zero_divisor_product_nonzero(q, beta, gamma):
        return True
    while gamma < len(stair) and stair[gamma] > beta:
        stair[gamma] = beta
        gamma += 1
    return False


def _row_end(q: QuotientRing, beta: int, gamma: int, gamma_cap: int, stair: list[int]) -> int:
    """The largest g <= gamma_cap with (beta, g) nonzero, given (beta, gamma)
    nonzero.  Exact, as vanishing is upward-closed in gamma.

    First it asks the known-vanishing staircase for g, the last gamma' <=
    gamma_cap not known to vanish (stair[gamma'] > beta).  Below the cap,
    (beta, g + 1) is known to vanish and the row most often ends at g, as
    it did in the ring above: g is returned if it is the row's start or
    (beta, g) is nonzero, and it bisects below g otherwise.  At the cap,
    always the case in a search of one ring, it first reads the cap cell's
    balanced piece alone, the first _pieces yields: a nonzero piece ends
    the row at the cap, as at most edges; a zero or absent one proves
    nothing, and it bisects up to the cap.
    """
    hi = last_true(lambda g: stair[g] > beta, gamma, gamma_cap)
    if hi == gamma_cap:  # the staircase knows no end in this row
        _, balanced = next(_pieces(q, beta, hi), (None, ()))
        if _piece_nonzero(q.nf_bits, beta, hi, balanced):
            return hi
        hi += 1
    elif hi == gamma or _nonzero(q, beta, hi, stair):
        return hi
    return last_true(lambda g: _nonzero(q, beta, g, stair), gamma, hi - 1)


def zcl_search(q: QuotientRing) -> ZclResult:
    """Branch-and-bound staircase maximum of beta+gamma: the first maximal
    nonzero cell, as ZclResult(beta, gamma); its value is beta + gamma.

    Walks gamma upward.  Vanishing is upward-closed, so the boundary can only
    move left and each row descends from the previous row's beta.  A row
    stops at floor = best - gamma: a cell at or below it cannot beat the
    best value, and the beta it stops at still bounds the next row.  The
    walk ends once no remaining row can beat the best value.  The best
    value only changes on a strict improvement, so the final cell is the
    first maximal cell in this walk.

    A row that finds a nonzero cell bisects up its column (_row_end) to the
    last nonzero gamma at that beta and goes on one row above it at
    beta - 1.  Walking row by row, each skipped row would have found that
    beta nonzero, a strict improvement every time, and the row above would
    have stopped at its floor beta - 1; so the final cell and the result
    are the same.

    The call reads and lowers the ring's known-vanishing staircase,
    q._stair, seeding it with this ring's caps when it is empty, as on a
    fresh ring or a chain's first.  The staircase's answers are the scan's,
    and it only points _row_end at the cell to probe first, so the result
    is unchanged, on a second call on the same ring too.

    No witness is built: `witness(q, result.beta, result.gamma)` gives one.
    No result is kept: each call walks again.
    """
    h2, h3 = brute_heights(q)
    gamma_cap = _zcap(h3)
    beta = _zcap(h2)
    stair = q._stair
    if not stair:  # z(w2)^(beta+1) = 0, and no gamma past the cap is read
        stair += [beta + 1] * (gamma_cap + 1)
    best: ZclResult | None = None
    gamma = 0
    while gamma <= gamma_cap:
        floor = -1 if best is None else max(best.value - gamma, -1)
        while beta > floor and not _nonzero(q, beta, gamma, stair):
            beta -= 1
        if beta > floor:
            gamma = _row_end(q, beta, gamma, gamma_cap, stair)
            best = ZclResult(beta, gamma)
            beta -= 1  # (beta, gamma + 1) vanishes or lies past the cap
        if best is None or beta < 0 or best.value >= beta + gamma_cap:
            break
        gamma += 1
    if best is None:
        raise RuntimeError(f"W_{q.n}: z(w2)^0*z(w3)^0 vanished; the ring is inconsistent")
    return best


class Chain:
    """What a sweep over decreasing n learns, carried from ring to ring.

    Since g_{n+1} = w2*g_{n-1} + w3*g_{n-2}, I_m lies in I_n for m > n, so
    W_m maps onto W_n, and so do the tensor squares, with z(w_i) going to
    z(w_i).  So whatever vanishes in W_m or its square vanishes in W_n: a
    cell, so the known-vanishing staircase `stair` (stair[gamma] the least
    beta known to vanish at gamma, seeded and lowered by zcl_search) holds
    down the chain; a power of w3, so no ring's cap on gamma exceeds the
    first's, which sized `stair`; and a monomial, so the column tops `tops`
    the larger rings read bound W_n's (QuotientRing.top).

    search(n) raises ValueError unless n is below every n before it, then
    builds W_n, searches it (zcl_search) under `tops` as its ceilings and
    `stair` as its staircase, and merges its column tops into `tops`.  No
    ring outlives its search, so none reads what a smaller ring taught.
    """

    def __init__(self) -> None:
        self.n = float("inf")  # the last n searched
        self.stair: list[int] = []
        self.tops: dict[int, int] = {}

    def search(self, n: int) -> ZclResult:
        if n >= self.n:
            raise ValueError(f"a chain of rings must run down: W_{n} cannot follow W_{self.n}")
        q = build_quotient(n)
        q._ceiling, q._stair = self.tops, self.stair
        self.n = n
        res = zcl_search(q)
        self.tops.update(q._top)
        return res


def zcl_closed_form(n: int) -> int:
    """The seven-case evaluation of zcl(W_n) for n >= 15."""
    if n < 15:
        raise ValueError("closed form starts at n = 15; below that use SMALL_N_ZCL")
    p = 1 << level(n)
    if n <= p + p // 4:
        return p + p // 2 - 4
    if n == p + p // 4 + 1:
        return p + p // 2 - 3
    if n <= p + p // 2:
        return p + p // 2 - 2
    if n == p + p // 2 + 1:
        return 2 * p + p // 8 - 3
    if n <= 13 * p // 8:
        return 2 * p + p // 8 - 2
    if n <= p + p // 2 + p // 4:
        return 2 * p + p // 4 - 2
    s = (2 * p - n).bit_length() - 1  # band 2^(t+1)-2^(s+1)+1 <= n <= 2^(t+1)-2^s
    return 3 * p - (2 << s) - 2
