"""Named verification suites: every headline computation cross-checked.

Each suite returns a list of Check records and is deterministic (random
sampling is seeded, parallel runs merge in n order).  `t_max` scales the
n ranges: a suite covers levels up to t_max, i.e. n <= 2^(t_max+1) - 2.
Suites are called as suite(t_max, sweep).  sweep() gives the rows of one
zcl_range(6, n_max) per run_suites call, shared by the zcl and bounds suites.
"""

from __future__ import annotations

import random
from functools import cache
from typing import Callable, Iterable

from . import bounds as bounds_mod
from .gseries import (
    g_explicit,
    g_recurrence,
    verify_doubling,
    verify_g3_lemma,
    verify_kvadriranje,
)
from .groebner import (
    basis_for,
    buchberger,
    binary_profile,
    normal_form,
    reduce_basis,
    verify_membership_lemmas,
    w3_ideal_member,
)
from .poly import W3, Poly, deg
from .quotient import build_quotient, class_nonzero, heights_closed_form
from .report import Check
from .zcl import (
    SMALL_N_ZCL,
    graded_piece,
    verify_upper_bound_lemmas,
    verify_zero_divisor_algebra,
    zcl_closed_form,
    zcl_range,
)


def _n_max(t_max: int) -> int:
    return (1 << (t_max + 1)) - 2


def _scan(name: str, triples: Iterable[tuple]) -> Check:
    """Collapse (label, expected, got) triples into one summary check."""
    for label, expected, got in triples:
        if expected != got:
            return Check(name, False, f"{expected} at {label}", str(got))
    return Check(name, True)


def suite_g_series(t_max: int, sweep: Callable[[], list]) -> list[Check]:
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


def suite_groebner(t_max: int, sweep: Callable[[], list]) -> list[Check]:
    n_max = _n_max(t_max)
    top = min(n_max, 64)
    # the three checks read one basis per n, built here and dropped on return
    bases = {n: basis_for(n) for n in range(7, max(n_max, top + 1) + 1)}
    checks = [
        _scan(
            f"closed-form basis = reduced Buchberger basis of the generators, 7 <= n <= {n_max}",
            (
                (
                    f"n={n}",
                    bases[n].polys,
                    reduce_basis(
                        buchberger(
                            [g_recurrence(n - 2), g_recurrence(n - 1), g_recurrence(n)],
                            n=n,
                        )
                    ).polys,
                )
                for n in range(7, n_max + 1)
            ),
        )
    ]

    def lm_formula():
        for n in range(7, n_max + 1):
            prof = binary_profile(n)
            for i, lm in enumerate(bases[n].lms):
                expected = (
                    prof.l[i] << i,
                    prof.alpha[i] * prof.s_prev(i) + (1 << i) - 1,
                )
                yield (f"n={n} i={i}", expected, lm)

    checks.append(
        _scan(f"leading monomials follow the two-exponent formula, 7 <= n <= {n_max}", lm_formula())
    )
    checks.append(
        _scan(
            f"w3*I_n lies in I_(n+1) and I_(n+1) lies in I_n, 7 <= n <= {top}",
            (
                (
                    f"n={n}",
                    True,
                    not any(normal_form(W3 * f, bases[n + 1]) for f in bases[n].polys)
                    and not any(normal_form(f, bases[n]) for f in bases[n + 1].polys),
                )
                for n in range(7, top + 1)
            ),
        )
    )
    for t in range(3, max(t_max, 4) + 1):
        checks += verify_membership_lemmas(t)
    return checks


def suite_quotient(t_max: int, sweep: Callable[[], list]) -> list[Check]:
    n_max = _n_max(t_max)
    top = min(n_max, 64)
    # the checks on n <= 64 share one ring per n; larger rings are built,
    # read once and dropped
    small = {n: build_quotient(n) for n in range(6, top + 1)}
    checks = [
        _scan(
            f"brute-force heights match the closed form, 7 <= n <= {n_max}",
            (
                (f"n={n}", heights_closed_form(n), ring.heights())
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
            t = (n + 1).bit_length() - 1
            q = small[n]
            for s in range(1, t - 1):
                if (2 << t) - (2 << s) + 1 <= n <= (2 << t) - (1 << s):
                    yield (
                        f"n={n} s={s}",
                        True,
                        class_nonzero(
                            q,
                            (2 << t) - 3 * (1 << s) - 1,
                            n - (2 << t) + (2 << s) - 1,
                        ),
                    )

    checks.append(
        _scan(
            f"the band classes w2^(2^(t+1)-3*2^s-1)*w3^(n-2^(t+1)+2^(s+1)-1) survive, n <= {top}",
            band_classes(),
        )
    )
    return checks


def suite_zcl(t_max: int, sweep: Callable[[], list]) -> list[Check]:
    n_max = _n_max(t_max)
    rows = sweep()
    checks = [
        _scan(
            "zcl(W_n) for n = 6..14 matches the small-n table",
            ((f"n={n}", SMALL_N_ZCL[n], v) for n, v, _, _ in rows if n <= 14),
        )
    ]
    if n_max >= 15:  # the checks on searched zcl for n >= 15 need level 4
        checks.append(
            _scan(
                f"searched zcl(W_n) matches the closed form, 15 <= n <= {n_max}",
                ((f"n={n}", zcl_closed_form(n), v) for n, v, _, _ in rows if n >= 15),
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


def suite_bounds(t_max: int, sweep: Callable[[], list]) -> list[Check]:
    n_max = _n_max(t_max)
    checks = []
    for t in range(4, 11):
        checks += bounds_mod.verify_ineq_arithmetic(t)
    if n_max >= 15:  # the checks on searched zcl for n >= 15 need level 4
        computed = {n: v for n, v, _, _ in sweep() if n >= 15}
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
                (f"t={t}", [], bounds_mod.exactness_edge_disagreements(t))
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
    sweep = cache(lambda: zcl_range(6, _n_max(t_max), jobs=jobs))
    checks = []
    for name in names:
        checks += SUITES[name](t_max, sweep)
    return checks
