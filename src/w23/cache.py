"""Stored zcl results, and the one sweep that serves them.

A result is one JSON file, zcl-{n}.json, per n, holding schema_version, n,
value and the cell, the fields of zcl.ZclResult: beta and gamma.  The
value, beta + gamma, is derived, and it is stored only as a check on the
cell.  `load` serves an entry only when every field checks out, the value
is the cell's sum and the cell z(w2)^beta*z(w3)^gamma is nonzero in
W_n (x) W_n, so a stale, damaged, forged or misplaced entry (a copy under
another n) is treated as absent and recomputed.  The cell test proves only
a lower bound: a smaller nonzero cell stored under the right n with its
own sum still passes.  One exponent lowered alone is refused by the sum.
Entries are replaced atomically.

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
from .zcl import ZclResult, zcl_search, zero_divisor_product_nonzero

SCHEMA_VERSION = 3


def load(cache_dir: Path | None, n: int) -> ZclResult | None:
    """The stored zcl(W_n), or None (recompute) unless every check passes:
    the file is an object of this schema and this n, both given as ints
    (true or 21.0 is refused); value, beta and gamma are ints, beta and
    gamma nonnegative, with value = beta + gamma; and the cell is nonzero,
    by zcl.zero_divisor_product_nonzero on a fresh W_n.
    That test scans no piece above twice the ring's top degree, so a huge
    stored exponent is refused at once.
    """
    if cache_dir is None:
        return None
    try:
        payload = json.loads((cache_dir / f"zcl-{n}.json").read_text())
        value, cell = payload["value"], ZclResult(payload["beta"], payload["gamma"])
    except (OSError, ValueError, KeyError, TypeError, RecursionError):
        return None
    header = (payload.get("schema_version"), payload.get("n"))
    if header != (SCHEMA_VERSION, n) or not all(type(x) is int for x in (*header, value, *cell)):
        return None
    if min(cell) < 0 or value != cell.value:
        return None
    if not zero_divisor_product_nonzero(build_quotient(n), *cell):
        return None
    return cell


def store(cache_dir: Path | None, n: int, res: ZclResult) -> None:
    """Write schema_version, n, res.value and the fields of res atomically:
    a temp file, then os.replace.

    A reader sees either the old entry or the whole new one, never a
    partly written file.
    """
    if cache_dir is None:
        return
    cache_dir.mkdir(parents=True, exist_ok=True)
    body = {"schema_version": SCHEMA_VERSION, "n": n, "value": res.value, **res._asdict()}
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
    Each ring is built under the newest, so tightest, top of every column
    the rings before it read (see QuotientRing.top); no ring is kept.
    """
    if any(a <= b for a, b in zip(ns, ns[1:])):
        raise ValueError("a chain of rings must run down: ns must strictly decrease")
    stair: list[int] = []
    tops: dict[int, int] = {}
    ceiling = None
    found = {}
    for n in ns:
        q = build_quotient(n, ceiling)
        found[n] = res = zcl_search(q, stair)
        tops.update(q._top)
        ceiling = (n, tops)
        del q  # its memo goes before the next ring is built
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

    Two or more workers form a `spawn` pool, which re-imports the calling
    script: call this under `if __name__ == "__main__":`, or each worker dies
    starting up and the call raises BrokenProcessPool.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    found = {n: load(cache_dir, n) for n in ns}
    missing = sorted((n for n, res in found.items() if res is None), reverse=True)
    workers = min(jobs, os.cpu_count() or 1, len(missing))
    if workers <= 1:
        found.update(_sweep(missing, cache_dir))
        return found
    # only a real pool needs these; keeps `import w23.cli` light
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    chains = [missing[k::workers] for k in range(workers)]
    with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
        for chain in pool.map(partial(_sweep, cache_dir=cache_dir), chains):
            found.update(chain)
    return found
