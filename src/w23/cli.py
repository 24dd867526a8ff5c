"""Command-line surface: compute, print tables, run the verification suites.

Each integer floor is the argparse type `_at_least(low)`, so a value below
it is a usage error before any command runs. Each `cmd_*` checks the rules
that tie arguments together, computes, and returns a View: a builder per
output format, each run only when its format is asked for, and the exit
status. `main` hands the view to `_render`, the one place that reads
`--format`. Each subcommand declares its own flags: csv only where there is
a table (`basis`, `zcl-range`, `table`), `--jobs` and `--cache-dir` only
where they are read.

Exit codes: 0 success, 1 verification or cross-check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import NamedTuple

from . import cache
from .gseries import g_recurrence
from .groebner import basis_for, binary_profile
from .poly import Poly, mono_text, poly_text
from .quotient import brute_heights, build_quotient, heights_closed_form, nf_monomial
from .zcl import SMALL_N_ZCL, zcl_closed_form


class View(NamedTuple):
    """What a command returns. `json()` gives the object to dump, `text()`
    the lines to print, and `csv()`, on commands that offer csv, the header
    and the rows. `status` is the exit status."""

    json: Callable[[], object]
    text: Callable[[], Iterable[str]]
    csv: Callable[[], tuple[list[str], Iterable]] | None = None
    status: int = 0


def _render(fmt: str, view: View) -> int:
    if fmt == "json":
        print(json.dumps(view.json(), indent=2))
    elif fmt == "csv":
        header, rows = view.csv()
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        for line in view.text():
            print(line)
    return view.status


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


def _at_least(low: int) -> Callable[[str], int]:
    """An argparse type: a plain decimal integer >= low."""

    def integer(text: str) -> int:
        if not (text.isdecimal() and int(text) >= low):
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return int(text)

    return integer


def _cache_dir(args, parser) -> Path | None:
    """The resolved cache directory, created now, so that an unusable path
    is a usage error before any ring is built."""
    cache_dir = cache.resolve_cache_dir(args.cache_dir)
    if cache_dir is not None:
        try:
            cache_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            source = "--cache-dir" if args.cache_dir else f"${cache.ENV_VAR}"
            parser.error(f"{source} {str(cache_dir)!r} is not a usable directory: {exc.strerror}")
    return cache_dir


def _poly_json(p: Poly) -> list[dict]:
    return [{"b": b, "c": c} for b, c in sorted(p.terms, reverse=True)]


def cmd_g(args, parser) -> View:
    p = g_recurrence(args.r)
    return View(json=lambda: {"r": args.r, "terms": _poly_json(p)}, text=lambda: [poly_text(p)])


def cmd_groebner(args, parser) -> View:
    gb = basis_for(args.n)
    if args.n >= 7:
        prof = binary_profile(args.n)
        t, alpha, s = prof.t, list(prof.alpha), list(prof.s)
    else:
        t = alpha = s = None

    def lines():
        if t is not None:
            yield f"n = {args.n}  t = {t}  alpha = {alpha}  s = {s}"
        else:
            yield f"n = {args.n}"
        for i, (f, lm) in enumerate(zip(gb.polys, gb.lms)):
            yield f"f_{i} = {poly_text(f)}   lm = {mono_text(lm)}"

    return View(
        json=lambda: {
            "n": args.n,
            "t": t,
            "alpha": alpha,
            "s": s,
            "polys": [
                {"terms": _poly_json(f), "lm": {"b": lm[0], "c": lm[1]}}
                for f, lm in zip(gb.polys, gb.lms)
            ],
        },
        text=lines,
    )


def cmd_basis(args, parser) -> View:
    q = build_quotient(args.n)
    header = ["b", "c", "degree"]
    if args.degree is not None:
        monos = q.by_degree().get(args.degree, [])
        return View(
            json=lambda: {
                "n": args.n,
                "degree": args.degree,
                "count": len(monos),
                "monomials": [[b, c] for b, c in monos],
            },
            text=lambda: [f"deg {args.degree}: " + (" ".join(map(mono_text, monos)) or "(none)")],
            csv=lambda: (header, [[b, c, args.degree] for b, c in monos]),
        )

    def lines():
        yield f"W_{args.n}: {len(q.basis)} basis monomials, top degree {q.max_degree}"
        for d, row in sorted(q.by_degree().items()):
            yield f"deg {d}: " + " ".join(map(mono_text, row))

    return View(
        json=lambda: {
            "n": args.n,
            "count": len(q.basis),
            "by_degree": q.degree_counts(),
            "monomials": [[b, c] for b, c in q.basis],
        },
        text=lines,
        csv=lambda: (header, [[b, c, 2 * b + 3 * c] for b, c in q.basis]),
    )


def cmd_nf(args, parser) -> View:
    p = nf_monomial(build_quotient(args.n), args.b, args.c)
    return View(
        json=lambda: {"n": args.n, "b": args.b, "c": args.c, "nf": _poly_json(p)},
        text=lambda: [poly_text(p)],
    )


def cmd_height(args, parser) -> View:
    if args.brute or args.n < 7:
        h = brute_heights(build_quotient(args.n))
        method = "brute"
    else:
        h = heights_closed_form(args.n)
        method = "closed"
    return View(
        json=lambda: {"n": args.n, "h2": h.h2, "h3": h.h3, "method": method},
        text=lambda: [f"height(w2) = {h.h2}", f"height(w3) = {h.h3}"],
    )


def cmd_zcl(args, parser) -> View:
    cache_dir = _cache_dir(args, parser)
    res = cache.zcl_results([args.n], cache_dir, args.jobs)[args.n]
    reference = None
    if args.closed_form_check:
        reference = zcl_closed_form(args.n) if args.n >= 15 else SMALL_N_ZCL[args.n]
    failed = args.closed_form_check and reference != res.value

    def data():
        payload = {"n": args.n, "zcl": res.value, "witness": cache.witness_json(res)}
        if args.closed_form_check:
            payload["closed_form"] = reference
            payload["closed_form_agrees"] = reference == res.value
        return payload

    def lines():
        yield f"zcl(W_{args.n}) = {res.value}"
        if args.witness:
            m1, m2 = res.pair
            yield (
                f"witness: beta={res.beta} gamma={res.gamma} r={res.r}"
                f" pair={mono_text(m1)} (x) {mono_text(m2)}"
            )
        if failed:
            yield f"closed-form check: FAIL n={args.n}: expected {reference}, got {res.value}"
        elif args.closed_form_check:
            yield f"closed-form check: ok ({reference})"

    return View(json=data, text=lines, status=1 if failed else 0)


def cmd_zcl_range(args, parser) -> View:
    if args.lo > args.hi:
        parser.error("empty range")
    cache_dir = _cache_dir(args, parser)
    results = cache.zcl_results(range(args.lo, args.hi + 1), cache_dir, args.jobs)
    header = ["n", "zcl", "witness_beta", "witness_gamma"]
    rows = [[n, res.value, res.beta, res.gamma] for n, res in results.items()]
    return View(
        json=lambda: [dict(zip(header, row)) for row in rows],
        text=lambda: (f"zcl(W_{n}) = {v}  (beta={b}, gamma={g})" for n, v, b, g in rows),
        csv=lambda: (header, rows),
    )


def cmd_bounds(args, parser) -> View:
    from .bounds import bounds_row

    row = bounds_row(args.n, zcl_closed_form(args.n))

    def lines():
        yield f"n = {row.n}"
        yield f"zcl(W_{row.n}) = {row.zcl_wn}"
        if row.zcl_oriented_exact is not None:
            yield f"zcl(G~({row.n},3)) = {row.zcl_oriented_exact}  (established)"
        else:
            yield (
                f"zcl(G~({row.n},3)): between {row.zcl_oriented_lo} and {row.zcl_oriented_hi}"
                f"  (conjectured {row.zcl_oriented_lo}, not established)"
            )
        yield f"TC(G~({row.n},3)) >= {row.tc_lower}"
        if row.b_deg is not None:
            yield f"exceptional degrees: |a| = {row.a_deg}, |b| = {row.b_deg}"
        else:
            yield f"exceptional degrees: |a| = {row.a_deg}  (no second exceptional class)"

    return View(json=lambda: dict(row._asdict()), text=lines)


def _table_g(parser, lo: int, hi: int) -> View:
    if lo < 0:
        parser.error("series indices start at 0")
    rows = [(r, g_recurrence(r)) for r in range(lo, hi + 1)]
    return View(
        json=lambda: [{"r": r, "terms": _poly_json(p)} for r, p in rows],
        text=lambda: (f"g_{r} = {poly_text(p)}" for r, p in rows),
        csv=lambda: (["r", "poly"], [[r, poly_text(p)] for r, p in rows]),
    )


def _table_small_n() -> View:
    header = ["n", "zcl"]
    rows = sorted(SMALL_N_ZCL.items())
    return View(
        json=lambda: [dict(zip(header, row)) for row in rows],
        text=lambda: (f"zcl(W_{n}) = {v}" for n, v in rows),
        csv=lambda: (header, rows),
    )


def _table_heights(parser, lo: int, hi: int) -> View:
    if lo < 7:
        parser.error("the heights table starts at n = 7")
    header = ["n", "h2", "h3"]
    rows = [[n, *heights_closed_form(n)] for n in range(lo, hi + 1)]
    return View(
        json=lambda: [dict(zip(header, row)) for row in rows],
        text=lambda: [" ".join(header)] + [f"{n} {h2} {h3}" for n, h2, h3 in rows],
        csv=lambda: (header, rows),
    )


def _table_tc(parser, t_lo: int, t_hi: int) -> View:
    from .bounds import tc_table_rows

    if t_lo < 4:
        parser.error("the tc table starts at level t = 4")
    levels = [(t, tc_table_rows(t)) for t in range(t_lo, t_hi + 1)]
    flat = [(t, row) for t, rows in levels for row in rows]
    header = ["t", "n_first", "n_last", "zcl_wn", "zcl_oriented_lo", "zcl_oriented_exact", "tc_lower"]

    def csv_rows():
        for t, row in flat:
            exact = row.zcl_oriented_lo if row.exact else ""
            yield [t, row.n_first, row.n_last, row.zcl_wn, row.zcl_oriented_lo, exact, row.tc_lower]

    def lines():
        for t, rows in levels:
            yield f"t = {t}"
            for row in rows:
                rel = "=" if row.exact else ">="
                yield (
                    f"n={row.n_first}..{row.n_last}  zcl(W_n)={row.zcl_wn}"
                    f"  zcl(G~(n,3)){rel}{row.zcl_oriented_lo}  TC>={row.tc_lower}"
                )

    return View(
        json=lambda: [{"t": t, **row._asdict()} for t, row in flat],
        text=lines,
        csv=lambda: (header, csv_rows()),
    )


def cmd_table(args, parser) -> View:
    if args.t is not None and args.which != "tc":
        parser.error("--t is read only by 'table tc'")
    if args.which == "g":
        return _table_g(parser, *(args.range or (0, 26)))
    if args.range is not None and args.which != "heights":
        parser.error(f"'table {args.which}' takes no range")
    if args.which == "small-n":
        return _table_small_n()
    if args.which == "heights":
        return _table_heights(parser, *(args.range or (7, 62)))
    return _table_tc(parser, *(args.t or (4, 5)))


# the names of verify.SUITES, spelled out so that parsing does not load the suites
SUITE_CHOICES = ("all", "g-series", "groebner", "quotient", "zcl", "bounds")


def cmd_verify(args, parser) -> View:
    from .verify import SUITES, failures, run_suites

    names = list(SUITES) if "all" in args.suites else args.suites
    checks = run_suites(names, t_max=args.t_max, jobs=args.jobs)
    bad = failures(checks)

    def lines():
        for c in checks:
            yield c.line()
        yield f"{len(checks)} checks, {len(bad)} failures"

    return View(
        json=lambda: [c._asdict() for c in checks],
        text=lines,
        status=1 if bad else 0,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="w23",
        description="Exact computations in W_n, the w2/w3-subalgebra of"
        " H*(G~(n,3); Z/2): Groebner bases, normal forms, heights,"
        " zero-divisor cup-length, and TC lower bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, formats=("text", "json")):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--format", choices=formats, default="text", help="output format")
        p.set_defaults(func=func)
        return p

    cache_help = f"directory for resumable results (overrides ${cache.ENV_VAR})"
    with_csv = ("text", "json", "csv")

    p = command("g", cmd_g, "one series polynomial g_r")
    p.add_argument("r", type=_at_least(0), help="series index")

    p = command("groebner", cmd_groebner, "Groebner basis of I_n")
    p.add_argument("n", type=_at_least(2))

    p = command("basis", cmd_basis, "additive basis of W_n", with_csv)
    p.add_argument("n", type=_at_least(6))
    p.add_argument("--degree", type=_at_least(0), help="restrict to one degree")

    p = command("nf", cmd_nf, "normal form of w2^b*w3^c in W_n")
    p.add_argument("n", type=_at_least(6))
    p.add_argument("b", type=_at_least(0))
    p.add_argument("c", type=_at_least(0))

    p = command("height", cmd_height, "heights of w2 and w3 in W_n")
    p.add_argument("n", type=_at_least(6))
    p.add_argument("--brute", action="store_true", help="force power iteration")

    p = command("zcl", cmd_zcl, "zero-divisor cup-length of W_n")
    p.add_argument("n", type=_at_least(6))
    p.add_argument("--witness", action="store_true", help="print the maximizing cell")
    p.add_argument(
        "--closed-form-check",
        action="store_true",
        help="compare against the closed form (exit 1 on mismatch)",
    )
    p.add_argument("--jobs", type=_at_least(1), default=1, help="worker processes")
    p.add_argument("--cache-dir", help=cache_help)

    p = command("zcl-range", cmd_zcl_range, "zcl(W_n) for a range of n", with_csv)
    p.add_argument("lo", type=_at_least(6))
    p.add_argument("hi", type=int)
    p.add_argument("--jobs", type=_at_least(1), default=1, help="worker processes")
    p.add_argument("--cache-dir", help=cache_help)

    p = command("bounds", cmd_bounds, "sandwich bounds and TC lower bound")
    p.add_argument("n", type=_at_least(15))

    p = command("table", cmd_table, "reproduce a published table", with_csv)
    p.add_argument("which", choices=("g", "small-n", "heights", "tc"))
    p.add_argument("range", type=_range_arg, nargs="?", help="LO..HI (g and heights)")
    p.add_argument("--t", type=_range_arg, help="level range for tc (default 4..5)")

    p = command("verify", cmd_verify, "run a verification suite")
    p.add_argument("suites", nargs="+", choices=SUITE_CHOICES)
    p.add_argument("--t-max", type=_at_least(3), default=5, help="largest level to cover")
    p.add_argument("--jobs", type=_at_least(1), default=1, help="worker processes")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return _render(args.format, args.func(args, parser))


if __name__ == "__main__":
    sys.exit(main())
