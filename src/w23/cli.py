"""Command-line surface: compute, print tables, run the verification suites.

Each integer floor is the argparse type `_at_least(low)`, and each range,
`N` or `LO..HI`, is `_range_from(low)`, which reads both ends through it; so
a value below its floor is a usage error before any command runs, and so is
a `table tc` level above 20 or a `verify --t-max` above 11 (each level
doubles its cost). Each subcommand's parser reports its own unrecognized
arguments. Each `cmd_*` gets its own subcommand's parser, reports there a
broken rule that ties arguments together, computes, and returns a View: one
function per output format, each run only when its format is asked for, and
the exit status. `main` hands the view to `_render`, the one place that
reads `--format`. Each subcommand declares its own flags: csv only where
there is a table (`basis`, `zcl-range`, each `table`), `--jobs` and
`--cache-dir` only where they are read. Each table is a subcommand of
`table`; `g`, `heights` and `tc` take a range, each with its own floor.

Exit codes: 0 success, 1 verification or cross-check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import NamedTuple

from . import cache
from .gseries import g_recurrence
from .groebner import basis_for, binary_profile
from .poly import Poly, mono_text, poly_text
from .quotient import brute_heights, build_quotient, heights_closed_form
from .zcl import SMALL_N_ZCL, witness, zcl_closed_form


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
        import csv  # only csv output needs it; keeps the other commands' start-up light

        header, rows = view.csv()
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        for line in view.text():
            print(line)
    return view.status


def _at_least(low: int, high: int | None = None) -> Callable[[str], int]:
    """An argparse type: a plain decimal integer >= low, and <= high if given."""
    bound = f">= {low}" if high is None else f"in {low}..{high}"

    def integer(text: str) -> int:
        # isdecimal alone would take any Unicode digit, such as '٣'
        plain = text.isascii() and text.isdecimal()
        if not (plain and int(text) >= low and (high is None or int(text) <= high)):
            raise argparse.ArgumentTypeError(f"expected an integer {bound}, got {text!r}")
        return int(text)

    return integer


def _range_from(low: int, high: int | None = None) -> Callable[[str], tuple[int, int]]:
    """An argparse type: N or LO..HI, each end read by _at_least(low, high)."""
    end = _at_least(low, high)

    def span(text: str) -> tuple[int, int]:
        lo_text, dots, hi_text = text.partition("..")
        lo, hi = end(lo_text), end(hi_text if dots else lo_text)
        if lo > hi:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        return lo, hi

    return span


def _cache_dir(args, parser) -> Path | None:
    """The --cache-dir directory, created now, so that an unusable path (an
    empty one would name the working directory) is a usage error at once."""
    if args.cache_dir is None:
        return None
    if not args.cache_dir:
        parser.error("--cache-dir '' is not a usable directory: the path is empty")
    cache_dir = Path(args.cache_dir)
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"--cache-dir {str(cache_dir)!r} is not a usable directory: {exc.strerror}")
    return cache_dir


def _poly_json(p: Poly) -> list[dict]:
    return [{"b": b, "c": c} for b, c in sorted(p.terms, reverse=True)]


def cmd_g(args, parser) -> View:
    p = g_recurrence(args.r)
    return View(json=lambda: {"r": args.r, "terms": _poly_json(p)}, text=lambda: [poly_text(p)])


def cmd_groebner(args, parser) -> View:
    gb = basis_for(args.n)
    prof = binary_profile(args.n)
    t, alpha, s = prof.t, list(prof.alpha), list(prof.s)

    def lines():
        yield f"n = {args.n}  t = {t}  alpha = {alpha}  s = {s}"
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

    def payload():
        by_degree = [0] * (q.max_degree + 1)
        monomials = []
        for b, c in q.basis:
            by_degree[2 * b + 3 * c] += 1
            monomials.append([b, c])
        return {
            "n": args.n,
            "count": len(monomials),
            "by_degree": by_degree,
            "monomials": monomials,
        }

    return View(
        json=payload,
        text=lines,
        csv=lambda: (header, [[b, c, 2 * b + 3 * c] for b, c in q.basis]),
    )


def cmd_nf(args, parser) -> View:
    p = Poly(build_quotient(args.n).nf_set(args.b, args.c))
    return View(
        json=lambda: {"n": args.n, "b": args.b, "c": args.c, "nf": _poly_json(p)},
        text=lambda: [poly_text(p)],
    )


def cmd_height(args, parser) -> View:
    if args.n < 7:
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

    # the witness is built only where it is printed, on a fresh ring
    def data():
        r, ((b1, c1), (b2, c2)) = witness(build_quotient(args.n), res.beta, res.gamma)
        w = {"beta": res.beta, "gamma": res.gamma, "r": r, "pair": [[b1, c1], [b2, c2]]}
        payload = {"n": args.n, "zcl": res.value, "witness": w}
        if args.closed_form_check:
            payload["closed_form"] = reference
            payload["closed_form_agrees"] = reference == res.value
        return payload

    def lines():
        yield f"zcl(W_{args.n}) = {res.value}"
        if args.witness:
            r, (m1, m2) = witness(build_quotient(args.n), res.beta, res.gamma)
            yield (
                f"witness: beta={res.beta} gamma={res.gamma} r={r}"
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


def _table_g(args, parser) -> View:
    lo, hi = args.range
    rows = [(r, g_recurrence(r)) for r in range(lo, hi + 1)]
    return View(
        json=lambda: [{"r": r, "terms": _poly_json(p)} for r, p in rows],
        text=lambda: (f"g_{r} = {poly_text(p)}" for r, p in rows),
        csv=lambda: (["r", "poly"], [[r, poly_text(p)] for r, p in rows]),
    )


def _table_small_n(args, parser) -> View:
    header = ["n", "zcl"]
    rows = sorted(SMALL_N_ZCL.items())
    return View(
        json=lambda: [dict(zip(header, row)) for row in rows],
        text=lambda: (f"zcl(W_{n}) = {v}" for n, v in rows),
        csv=lambda: (header, rows),
    )


def _table_heights(args, parser) -> View:
    lo, hi = args.range
    header = ["n", "h2", "h3"]
    rows = [[n, *heights_closed_form(n)] for n in range(lo, hi + 1)]
    return View(
        json=lambda: [dict(zip(header, row)) for row in rows],
        text=lambda: [" ".join(header)] + [f"{n} {h2} {h3}" for n, h2, h3 in rows],
        csv=lambda: (header, rows),
    )


def _table_tc(args, parser) -> View:
    from .bounds import tc_table_rows

    lo, hi = args.range
    levels = [(t, tc_table_rows(t)) for t in range(lo, hi + 1)]
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


# the names of verify.SUITES, spelled out so that parsing does not load the suites
SUITE_CHOICES = ("all", "g-series", "groebner", "quotient", "zcl", "bounds")


def cmd_verify(args, parser) -> View:
    from .verify import SUITES, failures, run_suites

    # each suite once, in the order named
    names = list(SUITES) if "all" in args.suites else list(dict.fromkeys(args.suites))
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


class _SubcommandParser(argparse.ArgumentParser):
    """Reports leftover arguments on the subcommand that was given them;
    argparse would hand them up to w23's top-level parser."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="w23",
        description="Exact computations in W_n, the w2/w3-subalgebra of"
        " H*(G~(n,3); Z/2): Groebner bases, normal forms, heights,"
        " zero-divisor cup-length, and TC lower bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    def command(name, func, summary, formats=("text", "json"), under=sub):
        p = under.add_parser(name, help=summary)
        p.add_argument("--format", choices=formats, default="text", help="output format")
        p.set_defaults(func=lambda args: func(args, p))
        return p

    cache_help = "directory for resumable results"
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

    p = command("zcl", cmd_zcl, "zero-divisor cup-length of W_n")
    p.add_argument("n", type=_at_least(6))
    p.add_argument("--witness", action="store_true", help="print the maximizing cell")
    p.add_argument(
        "--closed-form-check",
        action="store_true",
        help="compare against the closed form (exit 1 on mismatch)",
    )
    p.add_argument("--jobs", type=_at_least(1), default=1, help="no effect: one n starts no worker")
    p.add_argument("--cache-dir", help=cache_help)

    p = command("zcl-range", cmd_zcl_range, "zcl(W_n) for a range of n", with_csv)
    p.add_argument("lo", type=_at_least(6))
    p.add_argument("hi", type=_at_least(6))
    p.add_argument("--jobs", type=_at_least(1), default=1, help="worker processes")
    p.add_argument("--cache-dir", help=cache_help)

    p = command("bounds", cmd_bounds, "sandwich bounds and TC lower bound")
    p.add_argument("n", type=_at_least(15))

    table = sub.add_parser("table", help="reproduce a published table")
    tables = table.add_subparsers(dest="table", required=True)
    command("small-n", _table_small_n, "zcl(W_n) for n = 6..14", with_csv, tables)
    # tc stops at level 20: each level doubles its cost (level 20 takes about 1 s)
    for name, func, summary, low, hi, ceiling in (
        ("g", _table_g, "the series g_r", 0, 26, None),
        ("heights", _table_heights, "heights of w2 and w3 in W_n", 7, 62, None),
        ("tc", _table_tc, "TC lower bounds of G~(n,3) by level t", 4, 5, 20),
    ):
        p = command(name, func, summary, with_csv, tables)
        ends = f">= {low}" if ceiling is None else f"in {low}..{ceiling}"
        range_help = f"N or LO..HI, each end {ends} (default {low}..{hi})"
        p.add_argument(
            "range", type=_range_from(low, ceiling), nargs="?", default=(low, hi), help=range_help
        )

    p = command("verify", cmd_verify, "run a verification suite")
    p.add_argument("suites", nargs="+", choices=SUITE_CHOICES)
    # t-max stops at 11: each level doubles the sweep (level 11 takes minutes)
    p.add_argument(
        "--t-max", type=_at_least(3, 11), default=5, help="largest level to cover, 3..11"
    )
    p.add_argument("--jobs", type=_at_least(1), default=1, help="worker processes")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return _render(args.format, args.func(args))


if __name__ == "__main__":
    sys.exit(main())
