"""Every checked statement of the package, and the named suites that run them.

This module is the one home of `Check`, the pass/fail record, and of every
stated identity or vanishing the results rest on: the g3 lemma, the shifted
squares and index doubling of the g-series, the membership lemmas m1, c1, m2
and c2, the z identities, the upper-bound vanishings, the level inequality
6n + height(z(w2)) < 3(|a| + zcl) + 16 and the two readings of the
exactness edge.

It also holds the oracles that only checks read, so that only `w23 verify`
loads them: the explicit sum for g_r (`g_explicit`), ideal membership by
reduction (`ideal_member`), and the tensor square on frozensets of pairs
(`TensorElement`, `z`, `graded_piece`); the product and `graded_piece`
share one pair product, `_outer`, and powers are Poly's, poly.power.
`graded_piece` is the full-Lucas oracle: it sums one piece over every term
with C(beta, b) and C(gamma, c) odd, where the cell test and the witness
read zcl's pruned pieces.
Buchberger and heap division, which no command runs either, stay in
groebner: perfbench/tracer.py wraps them there.

Each suite returns a list of Check records and is deterministic (random
sampling is seeded, parallel runs merge in n order).  `t_max` scales the
n ranges: a suite covers levels up to t_max, i.e. n <= 2^(t_max+1) - 2.
Suites are called as suite(t_max, sweep).  sweep() gives the results of
one cache.zcl_results sweep over 6 <= n <= n_max per run_suites call, keyed
by n and shared by the zcl and bounds suites.
"""

from __future__ import annotations

import random
from functools import cache
from itertools import groupby
from typing import Callable, Iterable, NamedTuple

from . import bounds as bounds_mod
from .cache import zcl_results
from .gseries import g_recurrence
from .groebner import basis_for, buchberger, level, normal_form, reduce_basis
from .poly import W2, W3, ZERO, Poly, deg, lucas_binom_mod2, power
from .quotient import QuotientRing, brute_heights, build_quotient, heights_closed_form
from .zcl import SMALL_N_ZCL, zcl_closed_form, zero_divisor_product_nonzero


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


def ideal_member(p: Poly, n: int) -> bool:
    """p in I_n, decided by reduction to zero."""
    return not normal_form(p, basis_for(n))


def w3_ideal_member(p: Poly, n: int) -> bool:
    """p in w3*I_n: w3 divides every term and the quotient lies in I_n."""
    if any(c == 0 for _, c in p.terms):
        return False
    return ideal_member(Poly._raw(frozenset((b, c - 1) for b, c in p.terms)), n)


def _outer(q: QuotientRing, x: tuple, y: tuple) -> set:
    """The pairs of nf(x) (x) nf(y), for monomials x and y; nf(y) is read
    only when nf(x) is nonzero."""
    left = q.nf_set(*x)
    right = left and q.nf_set(*y)
    return {(m, mm) for m in left for mm in right}


class TensorElement(NamedTuple):
    """An element of W_n (x) W_n: its ring and a frozenset of pairs of basis
    monomials, read off nf_set, none for zero.  Equal elements share a ring."""

    ring: QuotientRing
    pairs: frozenset = frozenset()

    def __bool__(self) -> bool:
        return bool(self.pairs)

    def _check_ring(self, other: "TensorElement") -> None:
        if self.ring is not other.ring:
            raise ValueError("tensor elements of different rings")

    def __add__(self, other: "TensorElement") -> "TensorElement":
        self._check_ring(other)
        return TensorElement(self.ring, self.pairs ^ other.pairs)

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        self._check_ring(other)
        q, acc = self.ring, set()
        for a1, a2 in self.pairs:
            for b1, b2 in other.pairs:
                acc ^= _outer(q, (a1[0] + b1[0], a1[1] + b1[1]), (a2[0] + b2[0], a2[1] + b2[1]))
        return TensorElement(q, frozenset(acc))

    def __pow__(self, e: int) -> "TensorElement":
        return power(self, e, tensor_one(self.ring))

    def swap(self) -> "TensorElement":
        return TensorElement(self.ring, frozenset((m2, m1) for m1, m2 in self.pairs))

    def __repr__(self) -> str:
        return f"TensorElement(n={self.ring.n}, {len(self.pairs)} pairs)"


def tensor_one(q: QuotientRing) -> TensorElement:
    return TensorElement(q, frozenset({((0, 0), (0, 0))}))


def embed_left(q: QuotientRing, p: Poly) -> TensorElement:
    """p (x) 1, for p already in normal form."""
    return TensorElement(q, frozenset((m, (0, 0)) for m in p.terms))


def embed_right(q: QuotientRing, p: Poly) -> TensorElement:
    """1 (x) p, for p already in normal form."""
    return TensorElement(q, frozenset(((0, 0), m) for m in p.terms))


def nf_poly(q: QuotientRing, p: Poly) -> Poly:
    acc: set = set()
    for b, c in p.terms:
        acc ^= q.nf_set(b, c)
    return Poly._raw(frozenset(acc))


def z(q: QuotientRing, p: Poly) -> TensorElement:
    """The zero divisor of a ring class: z(a) = a (x) 1 + 1 (x) a."""
    npoly = nf_poly(q, p)
    return embed_left(q, npoly) + embed_right(q, npoly)


class GradedPiece(NamedTuple):
    r: int
    beta: int
    gamma: int
    element: TensorElement


def graded_piece(q: QuotientRing, beta: int, gamma: int, r: int) -> GradedPiece:
    """The left-degree-r piece of z(w2)^beta*z(w3)^gamma by the full Lucas
    scan, reading no staircase and no packed row."""
    if beta < 0 or gamma < 0 or not 0 <= r <= 2 * beta + 3 * gamma:
        raise ValueError("left degree out of range")
    pairs: set = set()
    for c in range(min(gamma, r // 3) + 1):
        b, odd = divmod(r - 3 * c, 2)
        if odd or b > beta or not (lucas_binom_mod2(gamma, c) and lucas_binom_mod2(beta, b)):
            continue
        pairs ^= _outer(q, (b, c), (beta - b, gamma - c))
    return GradedPiece(r, beta, gamma, TensorElement(q, frozenset(pairs)))


class Check(NamedTuple):
    """One verified statement: a name plus expected/got strings on failure."""

    name: str
    ok: bool
    expected: str = ""
    got: str = ""

    def line(self) -> str:
        if self.ok:
            return f"ok   {self.name}"
        return f"FAIL {self.name}: expected {self.expected}, got {self.got}"


def failures(checks: list[Check]) -> list[Check]:
    return [c for c in checks if not c.ok]


def _n_max(t_max: int) -> int:
    return (1 << (t_max + 1)) - 2


def _scan(name: str, triples: Iterable[tuple]) -> Check:
    """Collapse (label, expected, got) triples into one summary check."""
    for label, expected, got in triples:
        if expected != got:
            return Check(name, False, f"{expected} at {label}", str(got))
    return Check(name, True)


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
        ("b", p + p // 2 - 3, Poly({(0, p // 2 - 1)})),
        ("c", p + p // 4 - 3, Poly({(p // 4, p // 4 - 1)})),
        ("d", p + p // 2 + p // 4 - 3, Poly({(p // 2, p // 4 - 1)})),
    ]
    if t >= 3:
        cases.append(("e", p + p // 2 + p // 8 - 3, Poly({(p // 2 + p // 8, p // 8 - 1)})))
    return [
        Check(f"g3({part}) t={t}: g_{r}", expect == got, str(expect), str(got))
        for part, r, expect in cases
        for got in [g_recurrence(r)]
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

def verify_membership_lemmas(t: int) -> list[Check]:
    """The four ideal-membership statements anchoring the upper bounds.

    For t >= 4:
      (m1) g_{3*2^(t-1)} + w2^(3*2^(t-2)) + sum_{k=1}^{t-3}
           w2^(3*2^(k-1))*w3^(2^(t-1)-2^k)  lies in  w3*I_{2^t+2^(t-2)+2^(t-4)}
      (c1) w2^(3*2^(t-2)) is congruent to that same sum mod I_{2^t+2^(t-2)+2}
           (this one also holds, with an empty sum, for t = 3)
      (m2) g_{2^(t+1)-6} + w2^(2^t-3) + w2^(2^(t-2)-3)*w3^(2^(t-1))
           lies in  w3*I_{2^t+2^(t-1)+2^(t-3)+2^(t-4)}
      (c2) w2^(2^t-3) is congruent to w2^(2^(t-2)-3)*w3^(2^(t-1))
           mod I_{13*2^(t-3)+1}
    """
    if t < 3:
        raise ValueError("requires t >= 3")
    p = 1 << t
    quarter_sum = Poly((3 << (k - 1), (p >> 1) - (1 << k)) for k in range(1, t - 2))
    checks = [
        Check(
            f"c1 t={t}: w2^{3 * p // 4} congruent to the quarter sum mod I_{p + p // 4 + 2}",
            ideal_member(Poly({(3 * p // 4, 0)}) + quarter_sum, p + p // 4 + 2),
        )
    ]
    if t >= 4:
        m1 = g_recurrence(3 * p // 2) + Poly({(3 * p // 4, 0)}) + quarter_sum
        m2 = (
            g_recurrence(2 * p - 6)
            + Poly({(p - 3, 0)})
            + Poly({(p // 4 - 3, p // 2)})
        )
        checks += [
            Check(
                f"m1 t={t}: membership in w3*I_{p + p // 4 + p // 16}",
                w3_ideal_member(m1, p + p // 4 + p // 16),
            ),
            Check(
                f"m2 t={t}: membership in w3*I_{p + p // 2 + p // 8 + p // 16}",
                w3_ideal_member(m2, p + p // 2 + p // 8 + p // 16),
            ),
            Check(
                f"c2 t={t}: w2^{p - 3} congruent to w2^{p // 4 - 3}*w3^{p // 2} mod I_{13 * p // 8 + 1}",
                ideal_member(
                    Poly({(p - 3, 0), (p // 4 - 3, p // 2)}), 13 * p // 8 + 1
                ),
            ),
        ]
    return checks


def verify_zero_divisor_algebra(q: QuotientRing, trials: int, seed: int = 0) -> list[Check]:
    """The three z identities on random low-degree classes:

    z(a+b) = z(a)+z(b),
    z(ab) = z(a)z(b) + (1 (x) b)z(a) + (1 (x) a)z(b),
    z(a^(2^l)) = z(a)^(2^l).
    """
    rng = random.Random(seed)
    checks = []
    for k in range(trials):
        a = Poly((rng.randrange(4), rng.randrange(3)) for _ in range(rng.randrange(1, 4)))
        b = Poly((rng.randrange(4), rng.randrange(3)) for _ in range(rng.randrange(1, 4)))
        za, zb = z(q, a), z(q, b)
        ok_add = z(q, a + b) == za + zb
        ok_mul = z(q, a * b) == za * zb + embed_right(q, nf_poly(q, b)) * za + embed_right(
            q, nf_poly(q, a)
        ) * zb
        l = rng.choice((1, 2, 3))
        ok_pow = z(q, a ** (1 << l)) == za ** (1 << l)
        checks.append(
            Check(
                f"z identities n={q.n} trial={k}",
                ok_add and ok_mul and ok_pow,
                "all three hold",
                f"add={ok_add} mul={ok_mul} pow(2^{l})={ok_pow}",
            )
        )
    return checks


def verify_upper_bound_lemmas(t: int) -> list[Check]:
    """The stated z-product vanishings driving the upper bounds:

    n = 2^t+2^(t-2):   z(w2)^(2^t-1)*z(w3)^(2^(t-1)-2) = 0
                       and z(w2)^(2^t-2)*z(w3)^(2^(t-1)-1) = 0;
    n = 2^t+2^(t-2)+1: z(w2)^(2^t-1)*z(w3)^(2^(t-1)-1) = 0;
    n = 2^(t+1)-2^s (1 <= s <= t-3):
                       z(w2)^(2^(t+1)-2^(s+1))*z(w3)^(2^t-2^s) = 0
                       and z(w2)^(2^(t+1)-2^s)*z(w3)^(2^t-2^(s+1)) = 0.
    """
    if t < 4:
        raise ValueError("stated for t >= 4")
    p = 1 << t
    cells = [
        (p + p // 4, p - 1, p // 2 - 2),
        (p + p // 4, p - 2, p // 2 - 1),
        (p + p // 4 + 1, p - 1, p // 2 - 1),
    ]
    for s in range(1, t - 2):
        e = 1 << s
        cells.append((2 * p - e, 2 * p - 2 * e, p - e))
        cells.append((2 * p - e, 2 * p - e, p - 2 * e))
    checks = []
    for n, run in groupby(cells, key=lambda cell: cell[0]):  # cells sharing n are adjacent
        q = build_quotient(n)
        checks += [
            Check(
                f"vanishing n={n}: z(w2)^{beta}*z(w3)^{gamma} = 0",
                not zero_divisor_product_nonzero(q, beta, gamma),
            )
            for _, beta, gamma in run
        ]
        del q  # one ring alive at a time
    return checks


def exactness_edge_disagreements(t: int) -> list[int]:
    """n where the two readings of the first exactness edge would differ.

    The edge appears once as the strict rational bound
    n < 2^t + 2^(t-1)/3 + 1 and once as the inclusive integer bound
    n <= 2^t + floor(2^(t-1)/3) + 1.  Because 3 never divides a power of
    two, both admit exactly the same integers, so the returned list is
    expected to be empty for every t; a nonempty result means the two
    formulations have drifted apart.
    """
    if t < 4:
        raise ValueError(f"levels start at t = 4, got {t}")
    p = 1 << t
    out = []
    for n in range(p - 1, 2 * p - 1):
        rational = 6 * n < 7 * p + 6  # n < p + p/6 + 1, denominators cleared
        inclusive = n <= p + (p // 2) // 3 + 1
        if rational != inclusive:
            out.append(n)
    return out


def verify_ineq_arithmetic(t: int) -> list[Check]:
    """Check 6n + height(z(w2)) < 3(|a| + zcl(W_n)) + 16 across level t.

    This inequality is the engine of the exactness argument: it rules out a
    maximal zero-divisor product carrying a square of the exceptional class
    z(a).  It must hold for every n in [2^t - 1, 2^(t+1) - 2], and only
    closed forms are consulted.  Returns a single summary check naming the
    first violating n, if any.
    """
    if t < 4:
        raise ValueError(f"levels start at t = 4, got {t}")
    p = 1 << t

    def sides():
        for n in range(p - 1, 2 * p - 1):
            a_deg, _ = bounds_mod.exceptional_degrees(n)
            lhs = 6 * n + bounds_mod.height_z_w2(n)
            rhs = 3 * (a_deg + zcl_closed_form(n)) + 16
            # where the inequality holds, got repeats expected; a failure shows both sides
            yield f"n={n}", "lhs < rhs", "lhs < rhs" if lhs < rhs else f"lhs={lhs}, rhs={rhs}"

    name = f"6n + height(z(w2)) < 3(|a| + zcl(W_n)) + 16 on [2^{t}-1, 2^{t + 1}-2]"
    return [_scan(name, sides())]


def suite_g_series(t_max: int, sweep: Callable[[], dict]) -> list[Check]:
    checks = [
        _scan(
            "recurrence matches the explicit binomial form for r <= 512",
            ((f"r={r}", g_recurrence(r), g_explicit(r)) for r in range(513)),
        ),
        _scan(
            "the series vanishes exactly at indices 2^k - 3 (r <= 512)",
            (
                (f"r={r}", r + 3 == 1 << (r + 3).bit_length() - 1, not g_recurrence(r))
                for r in range(513)
            ),
        ),
    ]
    for t in range(2, 8):
        checks += verify_g3_lemma(t)
    checks.append(
        _scan(
            "shifted squares: g_{2^i(r+3)-3} = w3^(2^i-1) * g_r^(2^i), i <= 4, r <= 40",
            (
                (f"i={i} r={r}", True, verify_kvadriranje(i, r))
                for i in range(5)
                for r in range(41)
            ),
        )
    )
    checks.append(
        _scan(
            "index doubling: g_{2n} = g_n^2 + w2*g_{n-1}^2 for n <= 200",
            ((f"n={n}", True, verify_doubling(n)) for n in range(1, 201)),
        )
    )

    def squares_stay_in_shifted_ideal():
        rng = random.Random(20)
        for n in range(7, 25):
            polys = basis_for(n).polys
            f = W3 * polys[rng.randrange(len(polys))]
            if rng.random() < 0.5:
                f = f + W3 * polys[rng.randrange(len(polys))]
            yield (
                f"n={n}",
                True,
                w3_ideal_member(f, n) and w3_ideal_member(f * f, 2 * n + 1),
            )

    checks.append(
        _scan(
            "f in w3*I_n implies f^2 in w3*I_{2n+1} (seeded samples, n <= 24)",
            squares_stay_in_shifted_ideal(),
        )
    )
    return checks


def suite_groebner(t_max: int, sweep: Callable[[], dict]) -> list[Check]:
    n_max = _n_max(t_max)
    top = min(n_max, 64)
    # one closed-form basis per n, built here and dropped on return
    bases = {n: basis_for(n) for n in range(2, max(n_max, top + 1) + 1)}
    # one reduced Buchberger basis per n: its polys are compared with the
    # closed form's, and its LMs with the closed form's, which basis_for sets
    # by the formula and checks against each f_i; of the polys only a
    # mismatch is kept
    poly_mismatches, lm_formula = [], []
    for n in range(2, n_max + 1):
        gb = reduce_basis(buchberger([g_recurrence(n - 2), g_recurrence(n - 1), g_recurrence(n)]))
        if gb.polys != bases[n].polys:
            poly_mismatches.append((f"n={n}", bases[n].polys, gb.polys))
        lm_formula.append((f"n={n}", bases[n].lms, gb.lms))
    checks = [
        _scan(
            f"closed-form basis = reduced Buchberger basis of the generators, 2 <= n <= {n_max}",
            poly_mismatches,
        ),
        _scan(f"leading monomials follow the two-exponent formula, 2 <= n <= {n_max}", lm_formula),
    ]
    checks.append(
        _scan(
            f"w3*I_n lies in I_(n+1) and I_(n+1) lies in I_n, 2 <= n <= {top}",
            (
                (
                    f"n={n}",
                    True,
                    not any(normal_form(W3 * f, bases[n + 1]) for f in bases[n].polys)
                    and not any(normal_form(f, bases[n]) for f in bases[n + 1].polys),
                )
                for n in range(2, top + 1)
            ),
        )
    )
    for t in range(3, max(t_max, 4) + 1):
        checks += verify_membership_lemmas(t)
    return checks


def suite_quotient(t_max: int, sweep: Callable[[], dict]) -> list[Check]:
    n_max = _n_max(t_max)
    top = min(n_max, 64)
    # the checks on n <= 64 share one ring per n; larger rings are built,
    # read once and dropped
    small = {n: build_quotient(n) for n in range(6, top + 1)}
    checks = [
        _scan(
            f"brute-force heights match the closed form, 7 <= n <= {n_max}",
            (
                (f"n={n}", heights_closed_form(n), brute_heights(ring))
                for n in range(7, n_max + 1)
                for ring in [small[n] if n <= top else build_quotient(n)]
            ),
        ),
        _scan(
            f"every basis monomial sits below the top dimension 3n-9, 6 <= n <= {top}",
            (
                (f"n={n}", True, all(deg(m) < 3 * n - 9 for m in q.basis))
                for n, q in small.items()
            ),
        ),
    ]

    def fast_vs_division():
        rng = random.Random(1105)
        for n in (7, 12, 15, 21, 22, 27, 33, 48):
            if n > n_max:
                continue
            q = small[n]
            for _ in range(200):
                b, c = rng.randrange(2 * n), rng.randrange(n)
                yield (
                    f"n={n} ({b},{c})",
                    normal_form(Poly({(b, c)}), q.gb).terms,
                    q.nf_set(b, c),
                )

    checks.append(
        _scan("memoized rewriting agrees with heap division (seeded samples)", fast_vs_division())
    )

    def band_classes():
        for n in range(7, top + 1):
            t = level(n)
            q = small[n]
            for s in range(1, t - 1):
                if (2 << t) - (2 << s) + 1 <= n <= (2 << t) - (1 << s):
                    yield (
                        f"n={n} s={s}",
                        True,
                        q.nf_bits((2 << t) - 3 * (1 << s) - 1, n - (2 << t) + (2 << s) - 1) != 0,
                    )

    checks.append(
        _scan(
            f"the band classes w2^(2^(t+1)-3*2^s-1)*w3^(n-2^(t+1)+2^(s+1)-1) survive, n <= {top}",
            band_classes(),
        )
    )
    return checks


def suite_zcl(t_max: int, sweep: Callable[[], dict]) -> list[Check]:
    n_max = _n_max(t_max)
    rows = [(n, res.value) for n, res in sweep().items()]
    checks = [
        _scan(
            "zcl(W_n) for n = 6..14 matches the small-n table",
            ((f"n={n}", SMALL_N_ZCL[n], v) for n, v in rows if n <= 14),
        )
    ]
    # The sweep carries vanishing cells down the ideal chain (I_m in I_n for
    # m > n), so monotonicity in n follows from how it searches and is kept
    # only as a consistency check; the closed-form comparison is the
    # independent check of the searched values.
    if n_max >= 15:  # the checks on searched zcl for n >= 15 need level 4
        checks.append(
            _scan(
                f"searched zcl(W_n) matches the closed form, 15 <= n <= {n_max}",
                ((f"n={n}", zcl_closed_form(n), v) for n, v in rows if n >= 15),
            )
        )
    checks += [
        _scan(
            f"zcl(W_n) never decreases in n, 6 <= n <= {n_max}",
            (
                (f"n={b[0]}", True, a[1] <= b[1])
                for a, b in zip(rows, rows[1:])
            ),
        ),
        Check(
            "the graded piece at n=21, beta=15, gamma=6, r=24 is the two-pair element",
            graded_piece(build_quotient(21), 15, 6, 24).element.pairs
            == {((3, 6), (6, 4)), ((6, 4), (3, 6))},
        ),
        Check(
            "the graded piece at n=22, beta=15, gamma=7, r=24 is the one-pair element",
            graded_piece(build_quotient(22), 15, 7, 24).element.pairs
            == {((3, 6), (6, 5))},
        ),
    ]
    for n in (6, 9, 14):
        checks += verify_zero_divisor_algebra(build_quotient(n), trials=25, seed=n)
    for t in range(4, max(t_max, 4) + 1):
        checks += verify_upper_bound_lemmas(t)
    return checks


def suite_bounds(t_max: int, sweep: Callable[[], dict]) -> list[Check]:
    n_max = _n_max(t_max)
    checks = []
    for t in range(4, 11):
        checks += verify_ineq_arithmetic(t)
    if n_max >= 15:  # the checks on searched zcl for n >= 15 need level 4
        computed = {n: res.value for n, res in sweep().items() if n >= 15}
        checks += [
            _scan(
                f"bounds rows agree between searched and closed-form zcl, 15 <= n <= {n_max}",
                (
                    (
                        f"n={n}",
                        bounds_mod.bounds_row(n, zcl_closed_form(n)),
                        bounds_mod.bounds_row(n, computed[n]),
                    )
                    for n in range(15, n_max + 1)
                ),
            ),
            _scan(
                f"TC table rows agree between searched and closed-form zcl, t = 4..{t_max}",
                (
                    (
                        f"t={t}",
                        bounds_mod.tc_table_rows(t),
                        bounds_mod.tc_table_rows(t, zcl_fn=computed.__getitem__),
                    )
                    for t in range(4, t_max + 1)
                ),
            ),
            _scan(
                f"|a| < |b| and |a| + |b| = 3n - 5 whenever b exists, 15 <= n <= {n_max}",
                (
                    (f"n={n}", True, a < b and a + b == 3 * n - 5)
                    for n in range(15, n_max + 1)
                    for a, b in [bounds_mod.exceptional_degrees(n)]
                    if b is not None
                ),
            ),
        ]
    checks.append(
        _scan(
            "both readings of the first exactness edge admit the same n, t = 4..12",
            (
                (f"t={t}", [], exactness_edge_disagreements(t))
                for t in range(4, 13)
            ),
        )
    )
    return checks


SUITES: dict[str, Callable[..., list[Check]]] = {
    "g-series": suite_g_series,
    "groebner": suite_groebner,
    "quotient": suite_quotient,
    "zcl": suite_zcl,
    "bounds": suite_bounds,
}


def run_suites(names: Iterable[str], t_max: int = 5, jobs: int = 1) -> list[Check]:
    """The checks of each named suite, in order.  A suite that raises
    RuntimeError or ValueError, as a ring whose basis reaches the top degree
    does, is one failing check that names it, with the error as got."""
    sweep = cache(lambda: zcl_results(range(6, _n_max(t_max) + 1), jobs=jobs))
    checks = []
    for name in names:
        try:
            checks += SUITES[name](t_max, sweep)
        except (RuntimeError, ValueError) as exc:
            checks.append(
                Check(f"the {name} suite runs to its end", False, "no error", repr(exc))
            )
    return checks
