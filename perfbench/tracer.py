"""Run one w23 command in-process with the layer boundaries traced.

    python3 perfbench/tracer.py OUT.json [--witness-check] -- <w23 arguments>

The tracer wraps public functions and methods of the w23 modules from the
outside, calls the console entry point `w23.cli.main`, and writes the spans
and counters to OUT.json when the command ends.  Nothing under src/ knows it
is being traced.

Two kinds of wrapper are used:

* a span records name, start, end and parent for every call; it is used at
  boundaries crossed a bounded number of times per job (basis, ring build,
  heights, search, cache, suites);
* a counter records only the number of calls and their total time, and adds
  that time to the innermost open span; it is used on the hot entry points
  (normal forms, cells, g-series terms), where a span per call would cost
  memory in proportion to the work.

A wrapper whose target no longer exists is listed under "missing"; the
metrics it feeds then see no calls and are reported as absent, not as zero.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

SUITE_NAMES = ("g-series", "groebner", "quotient", "zcl", "bounds")


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.open: list[dict] = []
        self.counters: dict[str, list] = {}  # name -> [calls, seconds, flagged]
        self.notes: dict[str, float] = {}
        self.missing: list[str] = []
        self.enabled = True

    def span(self, name, fn, after=None):
        """Wrap fn so that each call records one span; after(span, args, result) may annotate."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer.open[-1] if tracer.open else None
            rec = {
                "name": name,
                "id": len(tracer.spans),
                "parent": parent["id"] if parent else None,
                "child_s": 0.0,
                "counted": {},
            }
            tracer.spans.append(rec)
            tracer.open.append(rec)
            rec["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = perf_counter()
                tracer.open.pop()
                if parent is not None:
                    parent["child_s"] += rec["end"] - rec["start"]
            if after is not None:
                after(rec, args, result)
            return result

        return wrapper

    def counter(self, name, fn, flag=None):
        """Wrap fn to count calls and time; flag(result) marks calls for a second count."""
        stats = self.counters.setdefault(name, [0, 0.0, 0])
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            stats[0] += 1
            stats[1] += dt
            if flag is not None and flag(result):
                stats[2] += 1
            if tracer.open:
                counted = tracer.open[-1]["counted"]
                counted[name] = counted.get(name, 0.0) + dt
            return result

        return wrapper

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counters": {
                k: {"calls": v[0], "seconds": v[1], "flagged": v[2]}
                for k, v in self.counters.items()
            },
            "notes": self.notes,
            "missing": self.missing,
        }


def _replace_function(package_modules, original, wrapped) -> None:
    """Rebind every module-level name that refers to `original`."""
    for mod in package_modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap the w23 layer boundaries that the benchmark measures."""
    import w23
    from w23 import cache, cli, groebner, gseries, quotient, verify, zcl

    modules = [w23, cache, cli, groebner, gseries, quotient, verify, zcl]
    seen_bases: set[int] = set()

    def count_lms(_rec, _args, gb):
        if id(gb) not in seen_bases:
            seen_bases.add(id(gb))
            tracer.notes["lm_count"] = tracer.notes.get("lm_count", 0) + len(gb.lms)

    def ring_built(_rec, args, _result):
        ring = args[0]
        tracer.notes["dim"] = tracer.notes.get("dim", 0) + len(ring.basis)
        tracer.notes["rss_ring_mb"] = _rss_mb()

    def search_done(_rec, _args, _result):
        tracer.notes["rss_search_mb"] = _rss_mb()

    def suite_done(name):
        def after(_rec, _args, checks):
            key = name.replace("-", "_")
            tracer.notes[f"{key}_checks"] = tracer.notes.get(f"{key}_checks", 0) + len(checks)
            tracer.notes[f"rss_after_{key}_mb"] = _rss_mb()

        return after

    def wrap_function(module, attr, make):
        original = getattr(module, attr, None)
        if original is None:
            tracer.missing.append(f"{module.__name__}.{attr}")
            return
        _replace_function(modules, original, make(original))

    def wrap_method(cls, attr, make):
        original = cls.__dict__.get(attr)
        if original is None:
            tracer.missing.append(f"{cls.__name__}.{attr}")
            return
        setattr(cls, attr, make(original))

    wrap_function(cli, "main", lambda f: tracer.span("cli.main", f))
    wrap_method(gseries.GSeries, "g", lambda f: tracer.counter("gseries.g", f))
    wrap_function(groebner, "basis_for", lambda f: tracer.span("groebner.basis_for", f, count_lms))
    wrap_function(groebner, "buchberger", lambda f: tracer.span("groebner.buchberger", f))
    wrap_function(groebner, "normal_form", lambda f: tracer.counter("groebner.normal_form", f))
    wrap_method(
        quotient.QuotientRing, "__init__", lambda f: tracer.span("quotient.ring", f, ring_built)
    )
    wrap_method(quotient.QuotientRing, "nf_set", lambda f: tracer.counter("quotient.nf_set", f))
    wrap_function(quotient, "brute_heights", lambda f: tracer.span("quotient.heights", f))
    wrap_function(zcl, "zcl_search", lambda f: tracer.span("zcl.search", f, search_done))
    wrap_function(
        zcl,
        "zero_divisor_product_nonzero",
        lambda f: tracer.counter("zcl.cell", f, flag=lambda nonzero: not nonzero),
    )
    wrap_function(cache, "load", lambda f: tracer.span("cache.load", f))
    wrap_function(cache, "store", lambda f: tracer.span("cache.store", f))
    suites = getattr(verify, "SUITES", {})
    for name in SUITE_NAMES:
        if name in suites:
            suites[name] = tracer.span(f"verify.{name}", suites[name], suite_done(name))
        else:
            tracer.missing.append(f"verify.SUITES[{name}]")


def witness_in_piece(output: str) -> bool:
    """Whether graded_piece(q, beta, gamma, r) contains the reported witness pair."""
    from w23 import build_quotient, graded_piece

    payload = json.loads(output)
    w = payload["witness"]
    pair = tuple(tuple(m) for m in w["pair"])
    piece = graded_piece(build_quotient(payload["n"]), w["beta"], w["gamma"], w["r"])
    return pair in piece.element.pairs


def main(argv: list[str]) -> int:
    split = argv.index("--") if "--" in argv else 0
    if split == 0:
        print(__doc__, file=sys.stderr)
        return 2
    own, w23_args = argv[:split], argv[split + 1 :]
    out_path = Path(own[0])
    witness_check = "--witness-check" in own[1:]

    import w23.cli

    tracer = Tracer()
    install(tracer)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        status = w23.cli.main(w23_args)
    tracer.enabled = False
    output = captured.getvalue()
    sys.stdout.write(output)
    result = tracer.dump()
    if witness_check:
        result["witness_in_piece"] = witness_in_piece(output)
    # perf_counter is CLOCK_MONOTONIC, so the parent can compare it with its own.
    result["finished_at"] = perf_counter()
    out_path.write_text(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
