"""The finite rings W_n = Z2[w2, w3] / I_n.

A built QuotientRing carries the additive monomial basis B_n (all w2^b*w3^c
with no leading monomial of the Groebner basis dividing w2^b*w3^c) and maps
arbitrary monomials to their normal forms, memoized per ring.

The ring is lazy: it keeps one list, the leading-monomial staircase.  With
the leading monomials sorted, row b of B_n is every c below

    c_bound[b] = least lm[1] over the lm with lm[0] <= b,

for b below the least pure power of w2, so building a ring costs O(rows)
and w2^b*w3^c is a basis monomial iff b < len(c_bound) and c < c_bound[b].
Nothing of size dim(W_n) is built up front: `basis` is a read-only set view
over the rows (O(1) membership, O(rows) len, lex-order iteration), and
by_degree() derives from it when asked.

Monomial reduction rewrites a monomial that LM(f_i) divides into the tail
of f_i times the quotient, trying the f_i from the last back (the largest i
first).  The bases are homogeneous and each LM is lex-largest, so every
child keeps the degree and drops b by a positive multiple of 3: the basis
compiles into one table of (l0, l1, drops of b // 3) feeding one filler.
For the closed-form basis F_n the drops are the closed-form rewrite
(f_i = w3^(e3+2^i-1)*g_(2l_i)^(2^i), verify.verify_kvadriranje):

    w2^b*w3^c  =  sum over 2d+3e = 2*l_i, e > 0, C(d+e,e) odd
                  of  w2^(b-2^i*(l_i-d)) * w3^(c+2^i*e).

Heap division (groebner.normal_form) stays the oracle the tests compare it with.
A monomial of degree above max_degree is zero: reductions preserve degree.

Normal forms are packed GF(2) rows.  In a fixed degree d the exponent b
decides c, and b % 3 == (2*d) % 3, so slot j = b // 3 names the monomial
w2^(3j + (2d) % 3)*w3^c of degree d and bit j of a packed form stands for
it.  A normal form is the XOR of its children's ints.  nf_bits returns the
int (a basis monomial's is its own bit, read off the staircase); nf_set
decodes it arithmetically into a frozenset of basis monomials.

The memo is one list per degree, `_rows[d]`, of d // 6 + 1 slots (None until
reduced), filled by an explicit-stack depth-first walk over that row's slots:
a slot holds the normal form of a monomial nf_bits reduced, never a whole
row.  A basis monomial's slot stays None: its form, its own bit, is read
off the staircase each time it is asked for.  Fills are idempotent (any two
computations of a slot agree), so readers sharing a ring stay consistent.

top(c) reads the other shape of the ring one column at a time: the largest
b with w2^b*w3^c != 0, or -1 when w3^c = 0.  A divisor of a nonzero
monomial is nonzero, so these monomials form a staircase (w2^b*w3^c != 0 iff
b <= top(c), top non-increasing), and each column asked is found by
bisection on nf_bits probes and kept on the ring.  height(w2) is top(0).
The zcl cell test prunes its scan with it, reading only the columns its
terms use.  A ring's `_ceiling` holds column tops a larger ring read:
W_m maps onto W_n for m > n, so top_n(c) <= top_m(c), and top probes
that bound first, bisecting below it only when the probe is zero.  Only
zcl.Chain.search fills it, with the larger rings' tops, before a search.
"""

from __future__ import annotations

from collections.abc import Callable, Set
from typing import NamedTuple

from .groebner import GroebnerBasis, basis_for, level
from .poly import Monomial


def last_true(pred: Callable[[int], object], lo: int, hi: int) -> int:
    """The largest x in [lo, hi] with pred(x), for a pred true up to a point
    and false after it, taken as true at lo: bisection at upper midpoints."""
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if pred(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


class Heights(NamedTuple):
    h2: int
    h3: int


class StaircaseBasis(Set):
    """B_n as a read-only set of monomials: (b, c) is a member iff
    0 <= b < len(c_bound) and 0 <= c < c_bound[b].  Iterates in lex order."""

    __slots__ = ("c_bound",)

    def __init__(self, c_bound: list[int]):
        self.c_bound = c_bound

    def __contains__(self, m) -> bool:
        try:
            b, c = m
            return 0 <= b < len(self.c_bound) and 0 <= c < self.c_bound[b]
        except (TypeError, ValueError):
            return False

    def __len__(self) -> int:
        return sum(self.c_bound)

    def __iter__(self):
        for b, bound in enumerate(self.c_bound):
            for c in range(bound):
                yield (b, c)


class QuotientRing:
    def __init__(self, n: int, gb: GroebnerBasis):
        self.n = n
        self.gb = gb
        # nf_bits' degree shortcut and rows are sound only for homogeneous bases
        if any(p.homogeneous_degree() is None for p in gb.polys):
            raise ValueError(f"W_{n}: the Groebner basis is not homogeneous")
        pure2 = [lm[0] for lm in gb.lms if lm[1] == 0]
        pure3 = [lm[1] for lm in gb.lms if lm[0] == 0]
        if not (pure2 and pure3):
            raise ValueError(f"W_{n}: the leading-monomial staircase leaves an axis open")
        # row b of the staircase: c < c_bound[b] = min lm[1] over lm[0] <= b
        lms = sorted(gb.lms)
        c_bound: list[int] = []
        bound = min(pure3)
        i = 0
        for b in range(min(pure2)):
            while i < len(lms) and lms[i][0] <= b:
                bound = min(bound, lms[i][1])
                i += 1
            c_bound.append(bound)
        self.c_bound = c_bound
        # each row's top monomial is (b, c_bound[b] - 1)
        self.max_degree = max(2 * b + 3 * bound - 3 for b, bound in enumerate(c_bound))
        if self.max_degree >= 3 * n - 9:
            b = next(
                b for b, bound in enumerate(c_bound) if 2 * b + 3 * bound - 3 == self.max_degree
            )
            raise RuntimeError(
                f"W_{n}: basis monomial ({b},{c_bound[b] - 1}) at degree {self.max_degree}"
                f" >= {3 * n - 9}; the basis of I_{n} is inconsistent"
            )
        self.basis = StaircaseBasis(c_bound)
        self._rows: dict[int, list[int | None]] = {}
        self._top: dict[int, int] = {}  # every column top() was asked, with its top
        self._ceiling: dict[int, int] = {}  # column -> a larger ring's top, bounding top()
        self._stair: list[int] = []  # zcl_search's known-vanishing staircase
        self._rules = _tail_rules(gb)

    def nf_bits(self, b: int, c: int) -> int:
        """Normal form of w2^b*w3^c as a bitmask: bit j stands for the
        monomial of degree 2b+3c whose w2 exponent is 3j + (2*(2b+3c)) % 3."""
        if b < 0 or c < 0:
            raise ValueError(f"negative exponent in w2^{b}*w3^{c}")
        bounds = self.c_bound
        nb = len(bounds)
        if b < nb and c < bounds[b]:
            return 1 << b // 3
        d = 2 * b + 3 * c
        if d > self.max_degree:
            return 0  # sound: reductions preserve degree
        row = self._rows.get(d)
        if row is None:
            row = self._rows[d] = [None] * (d // 6 + 1)
        j = b // 3
        got = row[j]
        if got is not None:
            return got
        off = 2 * d % 3
        rules = self._rules
        stack = [j]
        while stack:
            k = stack[-1]
            if row[k] is not None:
                stack.pop()
                continue
            mb = 3 * k + off
            mc = (d - 2 * mb) // 3
            for l0, l1, djs in rules:
                if l0 <= mb and l1 <= mc:
                    break
            else:
                raise RuntimeError(f"W_{self.n}: ({mb},{mc}) is neither basis nor reducible")
            acc = 0
            top = len(stack)
            for dj in djs:  # every child has degree d and a smaller slot
                ch = k - dj
                got = row[ch]
                if got is None:
                    cb = 3 * ch + off
                    if cb < nb and (d - 2 * cb) // 3 < bounds[cb]:
                        got = 1 << ch
                    else:
                        stack.append(ch)
                        continue
                acc ^= got
            if len(stack) == top:  # every child was ready
                row[k] = acc
                stack.pop()
        return row[j]

    def nf_set(self, b: int, c: int) -> frozenset:
        """Normal form of w2^b*w3^c as a frozenset of basis monomials."""
        bits = self.nf_bits(b, c)
        d = 2 * b + 3 * c
        offset = 2 * d % 3
        out = []
        while bits:
            low = bits & -bits
            mb = 3 * (low.bit_length() - 1) + offset
            out.append((mb, (d - 2 * mb) // 3))
            bits ^= low
        return frozenset(out)

    def top(self, c: int) -> int:
        """The largest b with w2^b*w3^c != 0, or -1 when w3^c = 0.

        The nonzero monomials are closed under division, so w2^b*w3^c != 0
        exactly when b <= top(c), and top never increases in c.  So top(c)
        lies in [-1, top(0)], and column 0 in [-1, max_degree // 2], since
        no monomial above max_degree is nonzero; a bisection on nf_bits
        probes finds it.  A ceiling h for column c, the top a larger ring
        read, bounds it: h = -1 gives -1, a nonzero w2^h*w3^c gives h, and
        otherwise the bisection runs below h.  Memoized per ring.
        """
        got = self._top.get(c)
        if got is not None:
            return got
        if c < 0:
            raise ValueError(f"negative exponent in w3^{c}")
        hi = self.top(0) if c else self.max_degree // 2
        h = self._ceiling.get(c)
        if h is not None:  # top(c) <= h, since w2^(h+1)*w3^c vanished in a larger ring
            if h < 0 or h <= hi and self.nf_bits(h, c):
                self._top[c] = h
                return h
            hi = min(hi, h - 1)
        got = self._top[c] = last_true(lambda b: self.nf_bits(b, c), -1, hi)
        return got

    def by_degree(self) -> dict[int, list[Monomial]]:
        """The basis monomials grouped by degree, each row in lex order."""
        rows: dict[int, list[Monomial]] = {}
        for b, c in self.basis:
            rows.setdefault(2 * b + 3 * c, []).append((b, c))
        return rows

    def __repr__(self) -> str:
        return f"QuotientRing(n={self.n}, dim={len(self.basis)})"


def _tail_rules(gb: GroebnerBasis) -> tuple:
    """Rules (l0, l1, djs), last basis polynomial first, first match wins: slot
    j of degree d, if w2^l0*w3^l1 divides its monomial, reduces to the slots
    j - dj of d, one ascending dj per tail term."""
    return tuple(
        (*lm, tuple(sorted((lm[0] - tb) // 3 for tb, tc in f.terms if (tb, tc) != lm)))
        for lm, f in reversed(list(zip(gb.lms, gb.polys)))
    )


def build_quotient(n: int) -> QuotientRing:
    """A fresh W_n.  Nothing keeps it: a caller that reuses a ring keeps it."""
    if n < 6:
        raise ValueError("quotient rings are built for n >= 6")
    return QuotientRing(n, basis_for(n))


def brute_heights(q: QuotientRing) -> Heights:
    """Heights of w2 and w3 in W_n: height(w2) is q.top(0), and height(w3)
    comes from a bisection on nf_bits probes of its powers: w3^k = 0 implies
    w3^(k+1) = 0, and no power above max_degree is nonzero."""
    return Heights(q.top(0), last_true(lambda k: q.nf_bits(0, k), 1, q.max_degree // 3))


def heights_closed_form(n: int) -> Heights:
    """The known height formulas:

    height(w2) = 2^t-4               for 2^t-1 <= n <= 2^t+2^(t-1),
               = 2^(t+1)-3*2^s-1     for 2^(t+1)-2^(s+1)+1 <= n <= 2^(t+1)-2^s
                                     (1 <= s <= t-2),
    height(w3) = max(2^(t-1)-2, n-2^t-1).
    """
    if n < 7:
        raise ValueError("stated for n >= 7")
    t = level(n)
    if n <= (1 << t) + (1 << (t - 1)):
        h2 = (1 << t) - 4
    else:
        s = ((1 << (t + 1)) - n).bit_length() - 1
        h2 = (1 << (t + 1)) - 3 * (1 << s) - 1
    return Heights(h2, max((1 << (t - 1)) - 2, n - (1 << t) - 1))
