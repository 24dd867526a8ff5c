"""The finite rings W_n = Z2[w2, w3] / I_n.

A built QuotientRing carries the additive monomial basis B_n (all w2^b*w3^c
with no leading monomial of the Groebner basis dividing w2^b*w3^c) and maps
arbitrary monomials to their normal forms, memoized per ring.

The basis is read off the leading-monomial staircase: with the leading
monomials sorted, row b of B_n is every c below the least lm[1] over the
lm with lm[0] <= b, so the walk costs O(dim + number of leading monomials)
and emits the basis in lex order, each by_degree row already sorted.

Monomial reduction has two routes.  The production fast path rewrites, in
the quotient, a monomial divisible by LM(f_i) as

    w2^b*w3^c  =  sum over 2d+3e = 2*l_i, e > 0, C(d+e,e) odd
                  of  w2^(b-2^i*(l_i-d)) * w3^(c+2^i*e),

always choosing the largest applicable i; the generic route is plain
division by the basis (groebner.normal_form).  Both give the same answer
(normal forms are unique); the test suite compares them at scale.  Rings
without a closed-form basis (n = 6) use the generic route only.

All basis polynomials are homogeneous, so normal forms preserve degree;
a monomial of degree above every basis monomial's degree is therefore zero
in the quotient, which shortcuts most of the deep reductions.

Normal forms are memoized per ring as packed GF(2) rows: the memo maps
(b, c) to a Python int whose bit i stands for by_degree[2b+3c][i].  Every
rewrite child of a monomial has that monomial's degree, so a normal form is
the XOR of its children's ints.  nf_bits returns the int; nf_set decodes it
into a frozenset of basis monomials for callers that want monomials.

The memo is a plain dict: fills are idempotent (any two computations of the
same key agree), so concurrent readers sharing a ring stay consistent.
"""

from __future__ import annotations

from typing import NamedTuple

from .groebner import GroebnerBasis, basis_for, binary_profile
from .poly import Monomial, Poly, lucas_binom_mod2


class Heights(NamedTuple):
    h2: int
    h3: int


class QuotientRing:
    def __init__(self, n: int, gb: GroebnerBasis):
        self.n = n
        self.gb = gb
        # nf_bits' degree shortcut and packed rows are sound only for
        # homogeneous bases.
        if any(p.homogeneous_degree() is None for p in gb.polys):
            raise ValueError(f"W_{n}: the Groebner basis is not homogeneous")
        pure2 = [lm[0] for lm in gb.lms if lm[1] == 0]
        pure3 = [lm[1] for lm in gb.lms if lm[0] == 0]
        if not (pure2 and pure3):
            raise ValueError(f"W_{n}: the leading-monomial staircase leaves an axis open")
        # row b of the staircase: c < c_bound = min lm[1] over lm[0] <= b
        lms = sorted(gb.lms)
        by_degree: dict[int, list[Monomial]] = {}
        c_bound = min(pure3)
        i = 0
        for b in range(min(pure2)):
            while i < len(lms) and lms[i][0] <= b:
                c_bound = min(c_bound, lms[i][1])
                i += 1
            for c in range(c_bound):
                by_degree.setdefault(2 * b + 3 * c, []).append((b, c))
        self.by_degree = by_degree
        self.max_degree = max(by_degree)
        if self.max_degree >= 3 * n - 9:
            b, c = by_degree[self.max_degree][0]
            raise RuntimeError(
                f"W_{n}: basis monomial ({b},{c}) at degree {self.max_degree}"
                f" >= {3 * n - 9}; the basis of I_{n} is inconsistent"
            )
        self._nf: dict[Monomial, int] = {
            m: 1 << i for members in by_degree.values() for i, m in enumerate(members)
        }
        # from an iterator, not the dict: frozenset presizes a table for a
        # dict argument, 16 MB instead of 8 MB at 305k monomials
        self.basis: frozenset = frozenset(m for row in by_degree.values() for m in row)
        self._heights: Heights | None = None
        self._rules = self._rewrite_rules()

    def _rewrite_rules(self):
        """Per basis element, largest i first: (LM, replacement exponent shifts)."""
        if self.n < 7:
            return None
        prof = binary_profile(self.n)
        rules = []
        for i in reversed(range(prof.t)):
            l = prof.l[i]
            shifts = []
            for e in range(2, 2 * l // 3 + 1, 2):
                d = l - 3 * e // 2
                if lucas_binom_mod2(d + e, e):
                    shifts.append(((l - d) << i, e << i))
            rules.append((self.gb.lms[i], tuple(shifts)))
        return tuple(rules)

    def _children(self, m: Monomial) -> tuple:
        """One rewrite step in the quotient, as the list of replacement monomials."""
        b, c = m
        if self._rules is not None:
            for lm, shifts in self._rules:
                if lm[0] <= b and lm[1] <= c:
                    return tuple((b - db, c + dc) for db, dc in shifts)
        else:
            for lm, f in zip(self.gb.lms, self.gb.polys):
                if lm[0] <= b and lm[1] <= c:
                    db, dc = b - lm[0], c - lm[1]
                    return tuple(
                        (tb + db, tc + dc) for tb, tc in f.terms if (tb, tc) != lm
                    )
        raise AssertionError(f"({b},{c}) is neither basis nor reducible")

    def nf_bits(self, b: int, c: int) -> int:
        """Normal form of w2^b*w3^c as a bitmask over by_degree[2b+3c]."""
        memo = self._nf
        key = (b, c)
        got = memo.get(key)
        if got is not None:
            return got
        if 2 * b + 3 * c > self.max_degree:
            return 0  # sound: reductions preserve degree
        stack = [key]
        while stack:
            m = stack[-1]
            if m in memo:
                stack.pop()
                continue
            children = self._children(m)  # all of degree deg(m)
            pending = [ch for ch in children if ch not in memo]
            if pending:
                stack.extend(pending)
                continue
            acc = 0
            for ch in children:
                acc ^= memo[ch]
            memo[m] = acc
            stack.pop()
        return memo[key]

    def nf_set(self, b: int, c: int) -> frozenset:
        """Normal form of w2^b*w3^c as a frozenset of basis monomials."""
        bits = self.nf_bits(b, c)
        if not bits:
            return frozenset()
        row = self.by_degree[2 * b + 3 * c]
        return frozenset(m for i, m in enumerate(row) if bits >> i & 1)

    def heights(self) -> Heights:
        if self._heights is None:
            self._heights = brute_heights(self)
        return self._heights

    def degree_counts(self) -> list[int]:
        """Number of basis monomials in each degree, index 0..max_degree."""
        return [len(self.by_degree.get(r, ())) for r in range(self.max_degree + 1)]

    def __repr__(self) -> str:
        return f"QuotientRing(n={self.n}, dim={len(self.basis)})"


_ring_cache: dict[int, QuotientRing] = {}


def build_quotient(n: int) -> QuotientRing:
    if n < 6:
        raise ValueError("quotient rings are built for n >= 6")
    ring = _ring_cache.get(n)
    if ring is None:
        ring = _ring_cache.setdefault(n, QuotientRing(n, basis_for(n)))
    return ring


def nf_monomial(q: QuotientRing, b: int, c: int) -> Poly:
    """Normal form of w2^b*w3^c in W_n, as a polynomial supported on B_n."""
    if b < 0 or c < 0:
        raise ValueError("negative exponent")
    return Poly._raw(q.nf_set(b, c))


def class_nonzero(q: QuotientRing, b: int, c: int) -> bool:
    return q.nf_bits(b, c) != 0


def brute_heights(q: QuotientRing) -> Heights:
    """Heights of w2 and w3 in W_n by raising to powers until zero."""
    h2 = 1
    while q.nf_bits(h2 + 1, 0):
        h2 += 1
    h3 = 1
    while q.nf_bits(0, h3 + 1):
        h3 += 1
    return Heights(h2, h3)


def heights_closed_form(n: int) -> Heights:
    """The known height formulas:

    height(w2) = 2^t-4               for 2^t-1 <= n <= 2^t+2^(t-1),
               = 2^(t+1)-3*2^s-1     for 2^(t+1)-2^(s+1)+1 <= n <= 2^(t+1)-2^s
                                     (1 <= s <= t-2),
    height(w3) = max(2^(t-1)-2, n-2^t-1).
    """
    if n < 7:
        raise ValueError("stated for n >= 7")
    t = (n + 1).bit_length() - 1
    if n <= (1 << t) + (1 << (t - 1)):
        h2 = (1 << t) - 4
    else:
        s = ((1 << (t + 1)) - n).bit_length() - 1
        h2 = (1 << (t + 1)) - 3 * (1 << s) - 1
    return Heights(h2, max((1 << (t - 1)) - 2, n - (1 << t) - 1))
