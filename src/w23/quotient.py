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
by_degree() and degree_counts() derive from c_bound when asked.

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

Normal forms are packed GF(2) rows.  In a fixed degree d the exponent b
decides c, and b % 3 == (2*d) % 3, so bit b // 3 stands for the monomial
w2^b*w3^c of degree d; no per-degree index table is needed.  Every rewrite
child of a monomial has that monomial's degree, so a normal form is the XOR
of its children's ints.  nf_bits returns the int (a basis monomial's is
its own bit, read off the staircase); nf_set decodes it arithmetically into
a frozenset of basis monomials for callers that want monomials.

The memo holds only the monomials nf_bits has reduced and the basis
children it touched on the way.  It is a plain dict: fills are idempotent
(any two computations of the same key agree), so concurrent readers
sharing a ring stay consistent.
"""

from __future__ import annotations

from collections.abc import Set
from typing import NamedTuple

from .groebner import GroebnerBasis, basis_for, binary_profile
from .poly import Monomial, Poly, lucas_binom_mod2


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
        # nf_bits' degree shortcut and packed rows are sound only for
        # homogeneous bases.
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
        self._nf: dict[Monomial, int] = {}
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
        """Normal form of w2^b*w3^c as a bitmask: bit i stands for the
        monomial of degree 2b+3c whose w2 exponent is 3i + (2*(2b+3c)) % 3."""
        bounds = self.c_bound
        if 0 <= b < len(bounds) and 0 <= c < bounds[b]:
            return 1 << b // 3
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
            pending = []
            for ch in children:
                if ch not in memo:
                    cb, cc = ch
                    if cb < len(bounds) and cc < bounds[cb]:
                        memo[ch] = 1 << cb // 3
                    else:
                        pending.append(ch)
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
        d = 2 * b + 3 * c
        offset = 2 * d % 3
        out = []
        while bits:
            low = bits & -bits
            mb = 3 * (low.bit_length() - 1) + offset
            out.append((mb, (d - 2 * mb) // 3))
            bits ^= low
        return frozenset(out)

    def heights(self) -> Heights:
        if self._heights is None:
            self._heights = brute_heights(self)
        return self._heights

    def by_degree(self) -> dict[int, list[Monomial]]:
        """The basis monomials grouped by degree, each row in lex order."""
        rows: dict[int, list[Monomial]] = {}
        for b, c in self.basis:
            rows.setdefault(2 * b + 3 * c, []).append((b, c))
        return rows

    def degree_counts(self) -> list[int]:
        """Number of basis monomials in each degree, index 0..max_degree."""
        # row b adds 1 at degrees 2b, 2b+3, ..., 2b+3*(c_bound[b]-1): a
        # difference array with stride 3
        counts = [0] * (self.max_degree + 4)
        for b, bound in enumerate(self.c_bound):
            counts[2 * b] += 1
            counts[2 * b + 3 * bound] -= 1
        for d in range(3, len(counts)):
            counts[d] += counts[d - 3]
        return counts[: self.max_degree + 1]

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
