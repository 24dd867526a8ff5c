"""Command-line surface: compute, print tables, run the verification suites.

Exit codes: 0 success, 1 verification or cross-check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import cache
from .bounds import bounds_row, tc_table_rows
from .gseries import g_recurrence
from .groebner import basis_for, binary_profile, reduce_basis
from .poly import Poly, mono_text, poly_text
from .quotient import brute_heights, build_quotient, heights_closed_form, nf_monomial
from .report import failures
from .verify import run_suites
from .zcl import SMALL_N_ZCL, ZclResult, _piece_pairs, parallel_map, search_n, zcl_closed_form


def _range_arg(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected N or LO..HI, got {text!r}") from exc
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _emit_json(obj) -> int:
    print(json.dumps(obj, indent=2))
    return 0


def _emit_csv(header: list[str], rows: list[list]) -> int:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())
    return 0


def _poly_json(p: Poly) -> list[dict]:
    return [{"b": b, "c": c} for b, c in sorted(p.terms, reverse=True)]


def _no_csv(args, parser) -> None:
    if args.format == "csv":
        parser.error(f"csv output is not available for '{args.command}'")


def cmd_g(args, parser) -> int:
    if args.range is not None:
        lo, hi = args.range
        if lo < 0:
            parser.error("series indices start at 0")
        if args.format == "json":
            return _emit_json(
                [{"r": r, "terms": _poly_json(g_recurrence(r))} for r in range(lo, hi + 1)]
            )
        for r in range(lo, hi + 1):
            print(f"g_{r} = {poly_text(g_recurrence(r))}")
        return 0
    if args.r is None:
        parser.error("give an index r or --range LO..HI")
    if args.r < 0:
        parser.error("series indices start at 0")
    p = g_recurrence(args.r)
    if args.format == "json":
        return _emit_json({"r": args.r, "terms": _poly_json(p)})
    print(poly_text(p))
    return 0


def cmd_groebner(args, parser) -> int:
    if args.n < 2:
        parser.error("the ideal chain starts at n = 2")
    gb = basis_for(args.n)
    if args.reduced:
        gb = reduce_basis(gb)
    if args.n >= 7:
        prof = binary_profile(args.n)
        t, alpha, s = prof.t, list(prof.alpha), list(prof.s)
    else:
        t = alpha = s = None
    if args.format == "json":
        return _emit_json(
            {
                "n": args.n,
                "t": t,
                "alpha": alpha,
                "s": s,
                "polys": [
                    {"terms": _poly_json(f), "lm": {"b": lm[0], "c": lm[1]}}
                    for f, lm in zip(gb.polys, gb.lms)
                ],
            }
        )
    if t is not None:
        print(f"n = {args.n}  t = {t}  alpha = {alpha}  s = {s}")
    else:
        print(f"n = {args.n}")
    for i, (f, lm) in enumerate(zip(gb.polys, gb.lms)):
        print(f"f_{i} = {poly_text(f)}   lm = {mono_text(lm)}")
    return 0


def cmd_basis(args, parser) -> int:
    if args.n < 6:
        parser.error("quotient rings start at n = 6")
    q = build_quotient(args.n)
    if args.degree is not None:
        monos = q.by_degree().get(args.degree, [])
        if args.format == "json":
            return _emit_json(
                {
                    "n": args.n,
                    "degree": args.degree,
                    "count": len(monos),
                    "monomials": [[b, c] for b, c in monos],
                }
            )
        if args.format == "csv":
            return _emit_csv(["b", "c", "degree"], [[b, c, args.degree] for b, c in monos])
        print(f"deg {args.degree}: " + (" ".join(map(mono_text, monos)) or "(none)"))
        return 0
    counts = q.degree_counts()
    if args.format == "json":
        return _emit_json(
            {
                "n": args.n,
                "count": len(q.basis),
                "by_degree": counts,
                "monomials": [[b, c] for b, c in q.basis],
            }
        )
    if args.format == "csv":
        return _emit_csv(
            ["b", "c", "degree"],
            [[b, c, 2 * b + 3 * c] for b, c in q.basis],
        )
    print(f"W_{args.n}: {len(q.basis)} basis monomials, top degree {q.max_degree}")
    for d, row in sorted(q.by_degree().items()):
        print(f"deg {d}: " + " ".join(map(mono_text, row)))
    return 0


def cmd_nf(args, parser) -> int:
    _no_csv(args, parser)
    if args.n < 6:
        parser.error("quotient rings start at n = 6")
    if args.b < 0 or args.c < 0:
        parser.error("exponents must be nonnegative")
    p = nf_monomial(build_quotient(args.n), args.b, args.c)
    if args.format == "json":
        return _emit_json({"n": args.n, "b": args.b, "c": args.c, "nf": _poly_json(p)})
    print(poly_text(p))
    return 0


def cmd_height(args, parser) -> int:
    _no_csv(args, parser)
    if args.n < 6:
        parser.error("quotient rings start at n = 6")
    use_brute = args.brute or (args.n < 7 and not args.closed)
    if args.closed and args.n < 7:
        parser.error("the closed form needs n >= 7")
    if use_brute:
        h = brute_heights(build_quotient(args.n))
        method = "brute"
    else:
        h = heights_closed_form(args.n)
        method = "closed"
    if args.format == "json":
        return _emit_json({"n": args.n, "h2": h.h2, "h3": h.h3, "method": method})
    print(f"height(w2) = {h.h2}")
    print(f"height(w3) = {h.h3}")
    return 0


def _witness_payload(res: ZclResult) -> dict:
    (b1, c1), (b2, c2) = res.pair
    return {
        "beta": res.beta,
        "gamma": res.gamma,
        "r": res.r,
        "pair": [[b1, c1], [b2, c2]],
    }


def _decode_zcl(payload: dict | None) -> ZclResult | None:
    """A cached zcl entry, or None (recompute) unless it is self-consistent:
    nonnegative int fields, value = beta + gamma, and a pair whose degrees
    are r and 2*beta + 3*gamma - r."""
    w = None if payload is None else payload.get("witness")
    if not isinstance(w, dict):
        return None
    try:
        (b1, c1), (b2, c2) = w["pair"]
        fields = (payload["value"], w["beta"], w["gamma"], w["r"], b1, c1, b2, c2)
    except (KeyError, TypeError, ValueError):
        return None
    if not all(type(x) is int and x >= 0 for x in fields):
        return None
    value, beta, gamma, r = fields[:4]
    if value != beta + gamma:
        return None
    if 2 * b1 + 3 * c1 != r or 2 * b2 + 3 * c2 != 2 * beta + 3 * gamma - r:
        return None
    return ZclResult(value, beta, gamma, r, ((b1, c1), (b2, c2)))


def _certified(n: int, res: ZclResult) -> bool:
    """Whether the witness pair survives in the left-degree-r piece of
    z(w2)^beta*z(w3)^gamma on W_n, so that product is really nonzero."""
    m1, m2 = res.pair
    return m2 in _piece_pairs(build_quotient(n), res.beta, res.gamma, res.r).get(m1, ())


def _zcl_results(ns: list[int], cache_dir, jobs: int) -> dict[int, ZclResult]:
    out: dict[int, ZclResult] = {}
    missing = []
    for n in ns:
        res = _decode_zcl(cache.load(cache_dir, "zcl", n))
        if res is None or not _certified(n, res):
            missing.append(n)
        else:
            out[n] = res
    if missing:
        for n, res in zip(missing, parallel_map(search_n, missing, jobs)):
            out[n] = res
            cache.store(
                cache_dir, "zcl", n, {"value": res.value, "witness": _witness_payload(res)}
            )
    return out


def _witness_text(res: ZclResult) -> str:
    m1, m2 = res.pair
    return (
        f"witness: beta={res.beta} gamma={res.gamma} r={res.r}"
        f" pair={mono_text(m1)} (x) {mono_text(m2)}"
    )


def cmd_zcl(args, parser) -> int:
    _no_csv(args, parser)
    if args.n < 6:
        parser.error("quotient rings start at n = 6")
    cache_dir = cache.resolve_cache_dir(args.cache_dir)
    res = _zcl_results([args.n], cache_dir, jobs=1)[args.n]
    status = 0
    reference = None
    if args.closed_form_check:
        reference = zcl_closed_form(args.n) if args.n >= 15 else SMALL_N_ZCL[args.n]
        if reference != res.value:
            status = 1
    if args.format == "json":
        payload = {"n": args.n, "zcl": res.value, "witness": _witness_payload(res)}
        if args.closed_form_check:
            payload["closed_form"] = reference
            payload["closed_form_agrees"] = reference == res.value
        _emit_json(payload)
        return status
    print(f"zcl(W_{args.n}) = {res.value}")
    if args.witness:
        print(_witness_text(res))
    if args.closed_form_check:
        if status == 0:
            print(f"closed-form check: ok ({reference})")
        else:
            print(
                f"closed-form check: FAIL n={args.n}: expected {reference}, got {res.value}"
            )
    return status


def cmd_zcl_range(args, parser) -> int:
    if args.lo < 6:
        parser.error("quotient rings start at n = 6")
    if args.lo > args.hi:
        parser.error("empty range")
    cache_dir = cache.resolve_cache_dir(args.cache_dir)
    ns = list(range(args.lo, args.hi + 1))
    results = _zcl_results(ns, cache_dir, jobs=args.jobs)
    if args.format == "json":
        return _emit_json(
            [
                {
                    "n": n,
                    "zcl": results[n].value,
                    "witness_beta": results[n].beta,
                    "witness_gamma": results[n].gamma,
                }
                for n in ns
            ]
        )
    if args.format == "csv":
        return _emit_csv(
            ["n", "zcl", "witness_beta", "witness_gamma"],
            [[n, results[n].value, results[n].beta, results[n].gamma] for n in ns],
        )
    for n in ns:
        res = results[n]
        print(f"zcl(W_{n}) = {res.value}  (beta={res.beta}, gamma={res.gamma})")
    return 0


def cmd_bounds(args, parser) -> int:
    _no_csv(args, parser)
    if args.n < 15:
        parser.error("bounds rows start at n = 15")
    row = bounds_row(args.n, zcl_closed_form(args.n))
    if args.format == "json":
        payload = dict(row._asdict())
        return _emit_json(payload)
    print(f"n = {row.n}")
    print(f"zcl(W_{row.n}) = {row.zcl_wn}")
    if row.zcl_oriented_exact is not None:
        print(f"zcl(G~({row.n},3)) = {row.zcl_oriented_exact}  (established)")
    else:
        print(
            f"zcl(G~({row.n},3)): between {row.zcl_oriented_lo} and {row.zcl_oriented_hi}"
            f"  (conjectured {row.zcl_oriented_lo}, not established)"
        )
    print(f"TC(G~({row.n},3)) >= {row.tc_lower}")
    if row.b_deg is not None:
        print(f"exceptional degrees: |a| = {row.a_deg}, |b| = {row.b_deg}")
    else:
        print(f"exceptional degrees: |a| = {row.a_deg}  (no second exceptional class)")
    return 0


def _table_g(args, parser, lo: int, hi: int) -> int:
    if lo < 0:
        parser.error("series indices start at 0")
    rows = [(r, g_recurrence(r)) for r in range(lo, hi + 1)]
    if args.format == "json":
        return _emit_json([{"r": r, "terms": _poly_json(p)} for r, p in rows])
    if args.format == "csv":
        return _emit_csv(["r", "poly"], [[r, poly_text(p)] for r, p in rows])
    for r, p in rows:
        print(f"g_{r} = {poly_text(p)}")
    return 0


def _table_small_n(args) -> int:
    items = sorted(SMALL_N_ZCL.items())
    if args.format == "json":
        return _emit_json([{"n": n, "zcl": v} for n, v in items])
    if args.format == "csv":
        return _emit_csv(["n", "zcl"], [[n, v] for n, v in items])
    for n, v in items:
        print(f"zcl(W_{n}) = {v}")
    return 0


def _table_heights(args, parser, lo: int, hi: int) -> int:
    if lo < 7:
        parser.error("the heights table starts at n = 7")
    rows = [(n,) + tuple(heights_closed_form(n)) for n in range(lo, hi + 1)]
    if args.format == "json":
        return _emit_json([{"n": n, "h2": h2, "h3": h3} for n, h2, h3 in rows])
    if args.format == "csv":
        return _emit_csv(["n", "h2", "h3"], [list(row) for row in rows])
    print("n h2 h3")
    for n, h2, h3 in rows:
        print(f"{n} {h2} {h3}")
    return 0


def _table_tc(args) -> int:
    t_lo, t_hi = args.t
    data = [(t, tc_table_rows(t)) for t in range(t_lo, t_hi + 1)]
    if args.format == "json":
        return _emit_json(
            [
                {
                    "t": t,
                    "n_first": row.n_first,
                    "n_last": row.n_last,
                    "zcl_wn": row.zcl_wn,
                    "zcl_oriented_lo": row.zcl_oriented_lo,
                    "exact": row.exact,
                    "tc_lower": row.tc_lower,
                }
                for t, rows in data
                for row in rows
            ]
        )
    if args.format == "csv":
        return _emit_csv(
            ["t", "n_first", "n_last", "zcl_wn", "zcl_oriented_lo", "zcl_oriented_exact", "tc_lower"],
            [
                [
                    t,
                    row.n_first,
                    row.n_last,
                    row.zcl_wn,
                    row.zcl_oriented_lo,
                    row.zcl_oriented_lo if row.exact else "",
                    row.tc_lower,
                ]
                for t, rows in data
                for row in rows
            ],
        )
    for t, rows in data:
        print(f"t = {t}")
        for row in rows:
            rel = "=" if row.exact else ">="
            print(
                f"n={row.n_first}..{row.n_last}  zcl(W_n)={row.zcl_wn}"
                f"  zcl(G~(n,3)){rel}{row.zcl_oriented_lo}  TC>={row.tc_lower}"
            )
    return 0


def cmd_table(args, parser) -> int:
    if args.range is not None and args.range_flag is not None:
        parser.error("give the range either positionally or with --range, not both")
    span = args.range if args.range is not None else args.range_flag
    if args.which == "g":
        lo, hi = span if span is not None else (0, 26)
        return _table_g(args, parser, lo, hi)
    if span is not None and args.which != "heights":
        parser.error(f"'table {args.which}' takes no range")
    if args.which == "small-n":
        return _table_small_n(args)
    if args.which == "heights":
        lo, hi = span if span is not None else (7, 62)
        return _table_heights(args, parser, lo, hi)
    return _table_tc(args)


def cmd_verify(args, parser) -> int:
    _no_csv(args, parser)
    if args.t_max < 3:
        parser.error("--t-max must be at least 3")
    names = list(args.suites) if "all" not in args.suites else list(
        ("g-series", "groebner", "quotient", "zcl", "bounds")
    )
    checks = run_suites(names, t_max=args.t_max, jobs=args.jobs)
    bad = failures(checks)
    if args.format == "json":
        _emit_json(
            [
                {"name": c.name, "ok": c.ok, "expected": c.expected, "got": c.got}
                for c in checks
            ]
        )
        return 1 if bad else 0
    for c in checks:
        print(c.line())
    print(f"{len(checks)} checks, {len(bad)} failures")
    return 1 if bad else 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json", "csv"), default="text", help="output format"
    )
    common.add_argument(
        "--cache-dir",
        help=f"directory for resumable results (overrides ${cache.ENV_VAR})",
    )
    common.add_argument("--jobs", type=int, default=1, help="worker processes")

    parser = argparse.ArgumentParser(
        prog="w23",
        description="Exact computations in W_n, the w2/w3-subalgebra of"
        " H*(G~(n,3); Z/2): Groebner bases, normal forms, heights,"
        " zero-divisor cup-length, and TC lower bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("g", parents=[common], help="one series polynomial g_r")
    p.add_argument("r", type=int, nargs="?", help="series index")
    p.add_argument("--range", type=_range_arg, help="LO..HI of indices")
    p.set_defaults(func=cmd_g)

    p = sub.add_parser("groebner", parents=[common], help="Groebner basis of I_n")
    p.add_argument("n", type=int)
    p.add_argument("--reduced", action="store_true", help="print the reduced basis")
    p.set_defaults(func=cmd_groebner)

    p = sub.add_parser("basis", parents=[common], help="additive basis of W_n")
    p.add_argument("n", type=int)
    p.add_argument("--degree", type=int, help="restrict to one degree")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("nf", parents=[common], help="normal form of w2^b*w3^c in W_n")
    p.add_argument("n", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("height", parents=[common], help="heights of w2 and w3 in W_n")
    p.add_argument("n", type=int)
    method = p.add_mutually_exclusive_group()
    method.add_argument("--brute", action="store_true", help="force power iteration")
    method.add_argument("--closed", action="store_true", help="force the closed form")
    p.set_defaults(func=cmd_height)

    p = sub.add_parser("zcl", parents=[common], help="zero-divisor cup-length of W_n")
    p.add_argument("n", type=int)
    p.add_argument("--witness", action="store_true", help="print the maximizing cell")
    p.add_argument(
        "--closed-form-check",
        action="store_true",
        help="compare against the closed form (exit 1 on mismatch)",
    )
    p.set_defaults(func=cmd_zcl)

    p = sub.add_parser("zcl-range", parents=[common], help="zcl(W_n) for a range of n")
    p.add_argument("lo", type=int)
    p.add_argument("hi", type=int)
    p.set_defaults(func=cmd_zcl_range)

    p = sub.add_parser("bounds", parents=[common], help="sandwich bounds and TC lower bound")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("table", parents=[common], help="reproduce a published table")
    p.add_argument("which", choices=("g", "small-n", "heights", "tc"))
    p.add_argument("range", type=_range_arg, nargs="?", help="LO..HI (g and heights)")
    p.add_argument("--range", dest="range_flag", type=_range_arg, help="LO..HI")
    p.add_argument("--t", type=_range_arg, default=(4, 5), help="level range for tc")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument(
        "suites",
        nargs="+",
        choices=("all", "g-series", "groebner", "quotient", "zcl", "bounds"),
    )
    p.add_argument("--t-max", type=int, default=5, help="largest level to cover")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
