"""Stored zcl results, and the one sweep that serves them.

A result is one JSON file, zcl-{n}.json, per n, holding schema_version,
kind, n, value and witness.  `load` serves an entry only when every field
checks out and its witness survives in W_n, so a stale, damaged, forged or
misplaced entry (a copy under another n) is treated as absent and
recomputed.  The witness certifies only that z(w2)^beta*z(w3)^gamma is
nonzero, a lower bound: a smaller value stored under the right n, with a
valid witness, still passes.  Entries are replaced atomically.

`zcl_results` is the one sweep: it serves `w23 zcl`, `w23 zcl-range` and
the verify suites.  It searches the n it could not load in decreasing
order, so each ring reads the vanishing cells the larger rings before it
found (zcl.zcl_search, `stair`).  With `--jobs J` the missing n are dealt
round-robin into W = min(J, CPU count, number of missing n) chains,
missing[k::W], one per worker, so the chains stay balanced; with one
worker the one chain runs in this process.  This is the package's one
process pool.  A chain needs no consecutive n: a gap left by a stored
entry breaks nothing.  Each worker stores each n as it finishes, so a
rerun of an interrupted sweep resumes where it stopped.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterable
from functools import partial
from pathlib import Path

from .quotient import build_quotient
from .zcl import ZclResult, piece_pairs, zcl_search

SCHEMA_VERSION = 1
ENV_VAR = "W23_CACHE_DIR"


def resolve_cache_dir(flag: str | None) -> Path | None:
    """An explicit --cache-dir wins over the W23_CACHE_DIR environment variable."""
    if flag:
        return Path(flag)
    env = os.environ.get(ENV_VAR)
    return Path(env) if env else None


def witness_json(res: ZclResult) -> dict:
    """The witness object, as printed by `w23 zcl --format json` and stored."""
    (b1, c1), (b2, c2) = res.pair
    return {"beta": res.beta, "gamma": res.gamma, "r": res.r, "pair": [[b1, c1], [b2, c2]]}


def load(cache_dir: Path | None, n: int) -> ZclResult | None:
    """The stored zcl(W_n), or None (recompute) unless every check passes:
    the file is an object of this schema with kind "zcl" and this n, both
    given as ints (true or 21.0 is refused); its fields are nonnegative ints
    with value = beta + gamma; the pair's degrees are r and
    2*beta + 3*gamma - r; both monomials are basis monomials of W_n, which
    bounds the piece scan by the ring's top degree; and the pair
    survives in the left-degree-r piece of z(w2)^beta*z(w3)^gamma.  The
    piece comes from zcl.piece_pairs, the function the search reads its
    own witness off.
    """
    if cache_dir is None:
        return None
    try:
        payload = json.loads((cache_dir / f"zcl-{n}.json").read_text())
        w = payload["witness"]
        (b1, c1), (b2, c2) = w["pair"]
        fields = (payload["value"], w["beta"], w["gamma"], w["r"], b1, c1, b2, c2)
    except (OSError, ValueError, KeyError, TypeError, RecursionError):
        return None
    version, kind, stored_n = payload.get("schema_version"), payload.get("kind"), payload.get("n")
    if not (type(version) is int and type(stored_n) is int):
        return None
    if (version, kind, stored_n) != (SCHEMA_VERSION, "zcl", n):
        return None
    if not all(type(x) is int and x >= 0 for x in fields):
        return None
    value, beta, gamma, r = fields[:4]
    if value != beta + gamma:
        return None
    if 2 * b1 + 3 * c1 != r or 2 * b2 + 3 * c2 != 2 * beta + 3 * gamma - r:
        return None
    q = build_quotient(n)
    pair = ((b1, c1), (b2, c2))
    if not (pair[0] in q.basis and pair[1] in q.basis):
        return None
    if pair[1] not in piece_pairs(q, beta, gamma, r).get(pair[0], ()):
        return None
    return ZclResult(value, beta, gamma, r, pair)


def store(cache_dir: Path | None, n: int, res: ZclResult) -> None:
    """Write the entry atomically: a temp file in cache_dir, then os.replace.

    A reader sees either the old entry or the whole new one, never a
    partly written file.
    """
    if cache_dir is None:
        return
    cache_dir.mkdir(parents=True, exist_ok=True)
    body = {
        "schema_version": SCHEMA_VERSION,
        "kind": "zcl",
        "n": n,
        "value": res.value,
        "witness": witness_json(res),
    }
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=f".zcl-{n}-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(body) + "\n")
        os.replace(tmp, cache_dir / f"zcl-{n}.json")
    except BaseException:
        os.unlink(tmp)
        raise


def _sweep(ns: list[int], cache_dir: Path | None) -> dict[int, ZclResult]:
    """Search each n of ns, which must decrease, down one chain, storing
    each result as it is found; one worker of zcl_results runs one call.

    The rings share one known-vanishing staircase (see zcl_search): for
    m > n, I_m lies in I_n, so a cell that vanishes in W_m vanishes in W_n.
    """
    if any(a <= b for a, b in zip(ns, ns[1:])):
        raise ValueError("a chain of rings must run down: ns must strictly decrease")
    stair: list[int] = []
    found = {}
    for n in ns:
        found[n] = res = zcl_search(build_quotient(n), stair)
        store(cache_dir, n, res)
    return found


def zcl_results(
    ns: Iterable[int], cache_dir: Path | None = None, jobs: int = 1
) -> dict[int, ZclResult]:
    """zcl(W_n) for each n in ns, keyed in ns order: the stored entries that
    load, and a search for the rest.  The missing n are searched in
    decreasing order, dealt round-robin into one chain per worker, and each
    is stored by its worker as it is found.  The workers are `jobs`, checked
    at once, clamped to the CPU count and to the number of missing n; with
    one worker or none the sweep runs in this process and spawns nothing.
    With no cache_dir every n is searched and nothing is kept.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    found = {n: load(cache_dir, n) for n in ns}
    missing = sorted((n for n, res in found.items() if res is None), reverse=True)
    workers = min(jobs, os.cpu_count() or 1, len(missing))
    if workers <= 1:
        found.update(_sweep(missing, cache_dir))
        return found
    import multiprocessing  # only a real pool needs it; keeps `import w23.cli` light

    chains = [missing[k::workers] for k in range(workers)]
    with multiprocessing.get_context("spawn").Pool(processes=workers) as pool:
        for chain in pool.imap(partial(_sweep, cache_dir=cache_dir), chains):
            found.update(chain)
    return found
