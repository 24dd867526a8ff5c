"""Resumable zcl results: one JSON file, zcl-{n}.json, per n.  A sweep stores
each n as its result arrives, so a rerun of an interrupted sweep resumes after it.

Every payload carries a schema_version stamp; entries written by an older
schema are treated as absent and recomputed rather than migrated.  Entries
are replaced atomically, and one that does not parse is treated as absent.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

SCHEMA_VERSION = 1
ENV_VAR = "W23_CACHE_DIR"


def resolve_cache_dir(flag: str | None) -> Path | None:
    """An explicit --cache-dir wins over the W23_CACHE_DIR environment variable."""
    if flag:
        return Path(flag)
    env = os.environ.get(ENV_VAR)
    return Path(env) if env else None


def load(cache_dir: Path | None, n: int) -> dict | None:
    """The stored payload, or None when absent, unreadable, or stale."""
    if cache_dir is None:
        return None
    try:
        payload = json.loads((cache_dir / f"zcl-{n}.json").read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or payload.get("schema_version") != SCHEMA_VERSION:
        return None
    return payload


def store(cache_dir: Path | None, n: int, payload: dict) -> None:
    """Write the entry atomically: a temp file in cache_dir, then os.replace.

    A reader sees either the old entry or the whole new one, never a
    partly written file.
    """
    if cache_dir is None:
        return
    cache_dir.mkdir(parents=True, exist_ok=True)
    body = {"schema_version": SCHEMA_VERSION, "kind": "zcl", "n": n}
    body.update(payload)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=f".zcl-{n}-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(body) + "\n")
        os.replace(tmp, cache_dir / f"zcl-{n}.json")
    except BaseException:
        os.unlink(tmp)
        raise
