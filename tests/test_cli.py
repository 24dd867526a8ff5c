"""Command-line behavior: renderings, formats, caching, exit codes."""

import argparse
import ast
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from w23 import bounds as bounds_module
from w23 import cache
from w23 import cli as cli_module
from w23 import groebner as groebner_module
from w23 import zcl as zcl_module
from w23.bounds import tc_table_rows
from w23.cli import main
from w23.groebner import basis_for, binary_profile, buchberger, reduce_basis
from w23.gseries import g_recurrence
from w23.poly import W2, W3, Poly
from w23.quotient import QuotientRing, brute_heights, build_quotient
from w23.verify import z
from w23.zcl import (
    SMALL_N_ZCL,
    ZclResult,
    zcl_closed_form,
    zcl_search,
    zero_divisor_product_nonzero,
)

GOLDEN = Path(__file__).parent / "golden"
# the directory w23 is imported from, for the w23 processes the tests start
SRC = str(Path(cli_module.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_table_g_matches_golden(capsys):
    code, out = run(capsys, "table", "g", "0..26")
    assert code == 0
    assert out == (GOLDEN / "table_g.txt").read_text()


def test_table_g_positional_range(capsys):
    # LO..HI is the one spelling of the range; the default is 0..26
    _, positional = run(capsys, "table", "g", "0..5")
    _, default = run(capsys, "table", "g")
    assert positional.splitlines() == default.splitlines()[:6]
    with pytest.raises(SystemExit) as err:
        main(["table", "g", "--range", "0..5"])
    assert err.value.code == 2


def test_g_single(capsys):
    code, out = run(capsys, "g", "26")
    assert code == 0
    assert out == "w2^13 + w2*w3^8\n"


def test_g_json_round_trip(capsys):
    _, out = run(capsys, "table", "g", "0..40", "--format", "json")
    rows = json.loads(out)
    assert json.loads(json.dumps(rows)) == rows
    from w23.gseries import g_recurrence

    for row in rows:
        p = Poly((term["b"], term["c"]) for term in row["terms"])
        assert p == g_recurrence(row["r"])


def test_groebner_json_round_trip(capsys):
    code, out = run(capsys, "groebner", "21", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert json.loads(json.dumps(payload)) == payload
    assert payload["n"] == 21 and payload["t"] == 4
    assert payload["alpha"] == [0, 1, 1, 0]
    assert payload["s"] == [0, 2, 6, 6]
    gb = basis_for(21)
    assert len(payload["polys"]) == len(gb.polys)
    for entry, f, lm in zip(payload["polys"], gb.polys, gb.lms):
        assert Poly((term["b"], term["c"]) for term in entry["terms"]) == f
        assert (entry["lm"]["b"], entry["lm"]["c"]) == lm


def test_groebner_text_shows_lms(capsys):
    _, out = run(capsys, "groebner", "21")
    assert "f_0 = w2^10 + w2*w3^6   lm = w2^10" in out
    assert "f_3 = w3^7   lm = w3^7" in out


def test_groebner_small_n(capsys):
    # the binary profile F_n is built from is printed below n = 7 as well
    profiles = {
        2: (1, [1], [1]),
        3: (2, [0, 0], [0, 0]),
        4: (2, [1, 0], [1, 1]),
        5: (2, [0, 1], [0, 2]),
        6: (2, [1, 1], [1, 3]),
    }
    for n, profile in profiles.items():
        code, out = run(capsys, "groebner", str(n), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["t"], payload["alpha"], payload["s"]) == profile, n


# the text the commands print on the smallest rings: the bases are the same
# as when basis_for ran Buchberger below n = 7, and groebner prints the
# binary profile they are built from for every n
SMALL_RING_TEXT = {
    ("groebner", "2"): "n = 2  t = 1  alpha = [1]  s = [1]\nf_0 = 1   lm = 1\n",
    ("groebner", "3"): "n = 3  t = 2  alpha = [0, 0]  s = [0, 0]\n"
    "f_0 = w2   lm = w2\nf_1 = w3   lm = w3\n",
    ("groebner", "4"): "n = 4  t = 2  alpha = [1, 0]  s = [1, 1]\n"
    "f_0 = w2   lm = w2\nf_1 = w3   lm = w3\n",
    ("groebner", "5"): "n = 5  t = 2  alpha = [0, 1]  s = [0, 2]\n"
    "f_0 = w2^2   lm = w2^2\nf_1 = w3   lm = w3\n",
    ("groebner", "6"): "n = 6  t = 2  alpha = [1, 1]  s = [1, 3]\n"
    "f_0 = w2^2   lm = w2^2\nf_1 = w3^2   lm = w3^2\n",
    ("groebner", "7"): "n = 7  t = 3  alpha = [0, 0, 0]  s = [0, 0, 0]\n"
    "f_0 = w2^3 + w3^2   lm = w2^3\nf_1 = w2^2*w3   lm = w2^2*w3\nf_2 = w3^3   lm = w3^3\n",
    ("basis", "6"): "W_6: 4 basis monomials, top degree 5\n"
    "deg 0: 1\ndeg 2: w2\ndeg 3: w3\ndeg 5: w2*w3\n",
    ("nf", "6", "3", "1"): "0\n",
    ("height", "6"): "height(w2) = 1\nheight(w3) = 1\n",
    ("zcl", "6", "--witness"): "zcl(W_6) = 2\nwitness: beta=1 gamma=1 r=3 pair=w3 (x) w2\n",
    ("zcl-range", "6", "8"): "zcl(W_6) = 2  (beta=1, gamma=1)\n"
    "zcl(W_7) = 7  (beta=7, gamma=0)\nzcl(W_8) = 7  (beta=7, gamma=0)\n",
}


def test_no_command_runs_buchberger_or_heap_division(capsys, monkeypatch):
    # the Buchberger bases are taken before the oracles are made to raise
    reference = {
        n: reduce_basis(buchberger([g_recurrence(n - 2), g_recurrence(n - 1), g_recurrence(n)]))
        for n in range(2, 8)
    }

    def oracle(*args, **kwargs):
        raise AssertionError("a command ran a Groebner oracle")

    for name in ("buchberger", "reduce_basis", "normal_form"):
        monkeypatch.setattr(groebner_module, name, oracle)
    for argv, text in SMALL_RING_TEXT.items():
        assert run(capsys, *argv) == (0, text), argv
    for n, gb in reference.items():
        code, out = run(capsys, "groebner", str(n), "--format", "json")
        payload = json.loads(out)
        prof = binary_profile(n)
        assert code == 0 and payload["t"] == prof.t and payload["s"] == list(prof.s), n
        polys = [Poly((term["b"], term["c"]) for term in entry["terms"]) for entry in payload["polys"]]
        assert polys == list(gb.polys), n


def test_zcl_witness_matches_golden(capsys):
    # the witness pair, read off the first nonzero piece the cell test scans,
    # for n = 6..64 and two flat-row rings of level 10
    out = ""
    for n in (*range(6, 65), 1408, 1535):
        code, got = run(capsys, "zcl", str(n), "--witness", "--format", "json")
        assert code == 0, n
        out += got
    assert out == (GOLDEN / "zcl_witness.json").read_text()


def test_basis_counts_golden(capsys):
    frozen = json.loads((GOLDEN / "basis_counts.json").read_text())
    for n_text, counts in frozen.items():
        _, out = run(capsys, "basis", n_text, "--format", "json")
        payload = json.loads(out)
        assert payload["by_degree"] == counts
        assert payload["count"] == sum(counts)


def test_basis_degree_filter(capsys):
    code, out = run(capsys, "basis", "21", "--degree", "24", "--format", "json")
    assert code == 0
    assert json.loads(out)["monomials"] == [[3, 6], [6, 4]]
    _, out = run(capsys, "basis", "7", "--degree", "7")
    assert out == "deg 7: (none)\n"


def test_basis_degree_lists_one_degree(capsys, monkeypatch):
    # one degree is listed without grouping B_n by degree: the same row, in
    # lex order, at the bottom, in the middle, at the top and past the top
    rows = []
    for n in (6, 7, 21, 100, 255):
        q = build_quotient(n)
        top = q.max_degree
        for d in (0, top // 2, top // 2 + 1, top, top + 1):
            rows.append((n, d, q.by_degree().get(d, [])))

    def grouped(q):
        raise AssertionError(f"W_{q.n} grouped by degree")

    monkeypatch.setattr(QuotientRing, "by_degree", grouped)
    for n, d, row in rows:
        _, out = run(capsys, "basis", str(n), "--degree", str(d), "--format", "json")
        assert json.loads(out)["monomials"] == [list(m) for m in row], (n, d)


def test_nf_output(capsys):
    assert run(capsys, "nf", "21", "12", "0") == (0, "w2^3*w3^6\n")
    assert run(capsys, "nf", "21", "9", "2") == (0, "w2^3*w3^6\n")
    assert run(capsys, "nf", "22", "12", "1") == (0, "0\n")
    assert run(capsys, "nf", "21", "13", "0") == (0, "0\n")


def test_height_methods_agree(capsys):
    _, closed = run(capsys, "height", "21")
    h2, h3 = brute_heights(build_quotient(21))
    assert closed == f"height(w2) = {h2}\nheight(w3) = {h3}\n"
    assert (h2, h3) == (12, 6)
    code, out = run(capsys, "height", "6", "--format", "json")
    assert code == 0
    assert json.loads(out)["method"] == "brute"


def test_zcl_text(capsys):
    code, out = run(capsys, "zcl", "21", "--witness", "--closed-form-check")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "zcl(W_21) = 21"
    assert lines[1] == "witness: beta=15 gamma=6 r=24 pair=w2^3*w3^6 (x) w2^6*w3^4"
    assert lines[2] == "closed-form check: ok (21)"


def test_zcl_closed_form_check_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("w23.cli.zcl_closed_form", lambda n: 0)
    code, out = run(capsys, "zcl", "21", "--closed-form-check")
    assert code == 1
    assert "closed-form check: FAIL n=21: expected 0, got 21" in out


def test_zcl_json(capsys):
    _, out = run(capsys, "zcl", "21", "--format", "json")
    payload = json.loads(out)
    assert payload == {
        "n": 21,
        "zcl": 21,
        "witness": {"beta": 15, "gamma": 6, "r": 24, "pair": [[3, 6], [6, 4]]},
    }


def test_zcl_range_csv(capsys):
    code, out = run(capsys, "zcl-range", "6", "14", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,zcl,witness_beta,witness_gamma"
    values = {int(row.split(",")[0]): int(row.split(",")[1]) for row in lines[1:]}
    assert values == SMALL_N_ZCL


def test_zcl_range_cache_resume(capsys, tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    run(capsys, "zcl-range", "6", "8", "--cache-dir", str(cache_dir))
    entry = cache_dir / "zcl-7.json"
    assert entry.exists()
    good = json.loads(entry.read_text())

    # an inconsistent entry (value != beta + gamma) is recomputed and rewritten
    entry.write_text(json.dumps(dict(good, value=999)))
    _, out = run(capsys, "zcl", "7", "--cache-dir", str(cache_dir))
    assert out == "zcl(W_7) = 7\n"
    assert json.loads(entry.read_text()) == good

    # a stale-schema entry is recomputed and rewritten
    entry.write_text(json.dumps(dict(good, schema_version=-1)))
    _, out = run(capsys, "zcl", "7", "--cache-dir", str(cache_dir))
    assert out == "zcl(W_7) = 7\n"
    assert json.loads(entry.read_text()) == good

    # a consistent but wrong entry fails the cell check on the ring: in W_7
    # z(w2)^8 = 0; recomputed and rewritten
    entry.write_text(json.dumps(dict(good, value=8, beta=8, gamma=0)))
    _, out = run(capsys, "zcl", "7", "--closed-form-check", "--cache-dir", str(cache_dir))
    assert out == "zcl(W_7) = 7\nclosed-form check: ok (7)\n"
    assert json.loads(entry.read_text()) == good

    # a consistent entry is trusted without recomputation
    def no_search(q):
        raise AssertionError(f"W_{q.n} recomputed")

    monkeypatch.setattr(zcl_module, "zcl_search", no_search)
    _, out = run(capsys, "zcl", "7", "--witness", "--cache-dir", str(cache_dir))
    assert out.startswith("zcl(W_7) = 7\nwitness: beta=7 gamma=0 r=8 ")


def test_schema_1_entry_is_recomputed_and_rewritten(capsys, tmp_path):
    # an entry in the old layout, the cell nested in a witness with its
    # pair, is refused and replaced by one of this schema
    old = {
        "schema_version": 1,
        "kind": "zcl",
        "n": 21,
        "value": 21,
        "witness": {"beta": 15, "gamma": 6, "r": 24, "pair": [[3, 6], [6, 4]]},
    }
    entry = tmp_path / "zcl-21.json"
    entry.write_text(json.dumps(old))
    assert cache.load(tmp_path, 21) is None
    _, out = run(capsys, "zcl", "21", "--cache-dir", str(tmp_path))
    assert out == "zcl(W_21) = 21\n"
    assert json.loads(entry.read_text()) == {
        "schema_version": 3, "n": 21, "value": 21, "beta": 15, "gamma": 6,
    }


def test_schema_2_entry_is_recomputed_and_rewritten(capsys, tmp_path):
    # the layout before this one also stored the kind of the entry, which
    # its file name already says; such an entry, even a right one, is
    # refused and replaced
    old = {"schema_version": 2, "kind": "zcl", "n": 21, "value": 21, "beta": 15, "gamma": 6}
    entry = tmp_path / "zcl-21.json"
    entry.write_text(json.dumps(old))
    assert cache.load(tmp_path, 21) is None
    _, out = run(capsys, "zcl", "21", "--cache-dir", str(tmp_path))
    assert out == "zcl(W_21) = 21\n"
    assert json.loads(entry.read_text()) == {
        "schema_version": 3, "n": 21, "value": 21, "beta": 15, "gamma": 6,
    }


def test_stored_entry_is_n_its_cell_and_the_cell_sum(tmp_path):
    # the cell is the whole result; its value, beta + gamma, is derived, and
    # the entry stores it only as a check on the cell
    assert ZclResult._fields == ("beta", "gamma")
    res = zcl_search(build_quotient(21))
    assert res == ZclResult(15, 6) and res.value == 21
    cache.store(tmp_path, 21, res)
    stored = json.loads((tmp_path / "zcl-21.json").read_text())
    assert stored == {
        "schema_version": cache.SCHEMA_VERSION, "n": 21, "value": 21, "beta": 15, "gamma": 6,
    }


def _forbid_witness(monkeypatch):
    """Make every way to build a witness raise: the name cli calls and the
    one zcl defines."""

    def no_witness(*args):
        raise AssertionError("a witness was built")

    monkeypatch.setattr(cli_module, "witness", no_witness)
    monkeypatch.setattr(zcl_module, "witness", no_witness)


def test_sweeps_build_no_witness(capsys, tmp_path, monkeypatch):
    expected = {**SMALL_N_ZCL, **{n: zcl_closed_form(n) for n in range(15, 41)}}
    _forbid_witness(monkeypatch)
    # a search, a search that stores, and the stored entries served
    cache_dir = ["--cache-dir", str(tmp_path)]
    for extra in ([], cache_dir, cache_dir):
        code, out = run(capsys, "zcl-range", "6", "40", "--format", "json", *extra)
        assert code == 0
        assert {row["n"]: row["zcl"] for row in json.loads(out)} == expected
    code, out = run(capsys, "verify", "zcl", "--t-max", "5")
    assert code == 0 and "0 failures" in out


def test_zcl_builds_a_witness_only_to_print_it(capsys, monkeypatch):
    built = []

    def counted(q, beta, gamma):
        built.append((q.n, beta, gamma))
        return zcl_module.witness(q, beta, gamma)

    monkeypatch.setattr(cli_module, "witness", counted)
    assert run(capsys, "zcl", "21") == (0, "zcl(W_21) = 21\n")
    assert run(capsys, "zcl", "21", "--closed-form-check")[0] == 0
    assert built == []
    code, out = run(capsys, "zcl", "21", "--format", "json")
    assert code == 0 and json.loads(out)["witness"]["r"] == 24
    assert built == [(21, 15, 6)]
    built.clear()
    code, out = run(capsys, "zcl", "21", "--witness")
    assert code == 0 and built == [(21, 15, 6)]


def test_zcl_range_stores_each_n_as_it_arrives(capsys, tmp_path, monkeypatch):
    # an interrupted sweep keeps every n finished before the interruption;
    # the sweep runs down from 30, so those are 21..30
    cache_dir = tmp_path / "cache"

    def search_until_20(q):
        if q.n == 20:
            raise KeyboardInterrupt
        return zcl_search(q)

    monkeypatch.setattr(zcl_module, "zcl_search", search_until_20)
    with pytest.raises(KeyboardInterrupt):
        main(["zcl-range", "6", "30", "--cache-dir", str(cache_dir)])
    assert sorted(p.name for p in cache_dir.iterdir()) == sorted(
        f"zcl-{n}.json" for n in range(21, 31)
    )


def _zcl7_payload(**cell):
    entry = {"schema_version": cache.SCHEMA_VERSION, "n": 7}
    return {**entry, "value": 7, "beta": 7, "gamma": 0, **cell}


def test_cached_zcl_is_checked_before_use(capsys, tmp_path):
    entry = tmp_path / "zcl-7.json"
    entry.write_text(json.dumps(_zcl7_payload()))
    assert cache.load(tmp_path, 7) == ZclResult(7, 0)
    without = {k: v for k, v in _zcl7_payload().items() if k not in ("beta", "gamma")}
    bad = [
        None,
        dict(_zcl7_payload(), n=8),  # stored under another n
        without,  # no cell
        {k: v for k, v in _zcl7_payload().items() if k != "gamma"},  # no gamma
        dict(without, witness={"beta": 7, "gamma": 0}),  # the cell nested elsewhere
        dict(_zcl7_payload(), value=999),  # value != beta + gamma
        {k: v for k, v in _zcl7_payload().items() if k != "value"},  # no value
        _zcl7_payload(beta=6),  # one exponent lowered: value != beta + gamma
        _zcl7_payload(beta="7"),  # not an int
        _zcl7_payload(value=1, beta=True),  # not an int, though 1 == True + 0
        _zcl7_payload(value=7.0),  # not an int, though 7.0 == 7
        _zcl7_payload(beta=[7]),  # not an int
        _zcl7_payload(beta=10, gamma=-3),  # negative
        _zcl7_payload(value=8, beta=8),  # consistent, but z(w2)^8 = 0 in W_7
        _zcl7_payload(value=8, gamma=1),  # consistent, but above zcl(W_7) = 7
    ]
    nested = "[" * 1000 + "]" * 1000  # json.loads raises RecursionError
    for text in [json.dumps(payload) for payload in bad] + [nested]:
        entry.write_text(text)
        assert cache.load(tmp_path, 7) is None, text[:80]
    # the command recomputes and rewrites such an entry
    (tmp_path / "zcl-6.json").write_text(nested)
    _, out = run(capsys, "zcl", "6", "--cache-dir", str(tmp_path))
    assert out == "zcl(W_6) = 2\n"
    assert cache.load(tmp_path, 6).value == 2


def test_header_fields_must_be_ints(capsys, tmp_path):
    # true == 1 and 21.0 == 21 in Python, but neither is the int the header holds
    run(capsys, "zcl", "21", "--cache-dir", str(tmp_path))
    entry = tmp_path / "zcl-21.json"
    stored = json.loads(entry.read_text())
    assert cache.load(tmp_path, 21).value == 21
    version = float(cache.SCHEMA_VERSION)
    for field, value in (("schema_version", True), ("schema_version", version), ("n", 21.0)):
        entry.write_text(json.dumps(dict(stored, **{field: value})))
        assert cache.load(tmp_path, 21) is None, (field, value)


def test_copied_entry_is_recomputed(capsys, tmp_path):
    # the copied cell is also nonzero in W_22, so only the stored n gives it away
    run(capsys, "zcl", "21", "--cache-dir", str(tmp_path))
    copied = json.loads((tmp_path / "zcl-21.json").read_text())
    assert zero_divisor_product_nonzero(build_quotient(22), copied["beta"], copied["gamma"])
    (tmp_path / "zcl-22.json").write_text(json.dumps(copied))
    _, out = run(capsys, "zcl", "22", "--cache-dir", str(tmp_path))
    assert out == "zcl(W_22) = 22\n"
    stored = json.loads((tmp_path / "zcl-22.json").read_text())
    assert (stored["n"], stored["value"]) == (22, 22)


def test_forged_cell_is_rejected_before_any_piece_scan(capsys, tmp_path, monkeypatch):
    # self-consistent fields, but the cell's degree 3*gamma is far above
    # twice the top degree of W_21, so no piece is scanned at all; a scan of
    # the submasks of gamma = 10**12 would never finish
    gamma = 10**12
    payload = dict(_zcl7_payload(), n=21, value=gamma, beta=0, gamma=gamma)
    (tmp_path / "zcl-21.json").write_text(json.dumps(payload))

    def no_scan(*args):
        raise AssertionError("a graded piece was scanned")

    monkeypatch.setattr(zcl_module, "_piece_nonzero", no_scan)
    assert cache.load(tmp_path, 21) is None
    monkeypatch.undo()  # the recomputation scans pieces
    _, out = run(capsys, "zcl", "21", "--cache-dir", str(tmp_path))
    assert out == "zcl(W_21) = 21\n"


# the fields of a stored entry, each an int
_FIELDS = ["schema_version", "n", "value", "beta", "gamma"]
_MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(_FIELDS)),
    st.tuples(
        st.just("retype"),
        st.sampled_from(_FIELDS),
        st.sampled_from([bool, str, float, lambda v: [v], lambda v: None]),
    ),
    st.tuples(st.just("shift"), st.sampled_from(_FIELDS), st.sampled_from([-1, 1])),
    st.tuples(
        st.just("huge"), st.sampled_from(_FIELDS), st.sampled_from([2**64, 10**30, 10**400])
    ),
    st.tuples(st.just("move"), st.integers(6, 40)),
)


@pytest.fixture(scope="module")
def searched_6_40():
    return cache.zcl_results(range(6, 41))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(n=st.integers(6, 40), mutation=_MUTATIONS)
def test_load_serves_a_mutated_entry_only_as_searched(searched_6_40, n, mutation):
    # whatever one mutation does to a valid entry, load answers None or the
    # searched result, never another value
    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = Path(tmp)
        cache.store(cache_dir, n, searched_6_40[n])
        entry_file = cache_dir / f"zcl-{n}.json"
        kind, *args = mutation
        target = n
        if kind == "move":  # the file as it is, under another n
            target = args[0]
            entry_file.rename(cache_dir / f"zcl-{target}.json")
        else:
            entry = json.loads(entry_file.read_text())
            key, arg = args[0], args[-1]
            if kind == "drop":
                del entry[key]
            elif kind == "retype":
                entry[key] = arg(entry[key])
            elif kind == "shift":
                entry[key] += arg
            else:
                entry[key] = arg
            entry_file.write_text(json.dumps(entry))
        assert cache.load(cache_dir, target) in (None, searched_6_40[target])


def test_load_serves_exactly_the_surviving_cells(searched_6_40, tmp_path):
    # of the searched cell and its two neighbours one step up, load serves
    # exactly those whose product z(w2)^beta*z(w3)^gamma survives, taken
    # from the full product in the tensor-square oracle
    served_count = refused = 0
    for n, res in searched_6_40.items():
        q = build_quotient(n)
        z2, z3 = z(q, W2), z(q, W3)
        product = z2**res.beta * z3**res.gamma
        for cell, element in (
            ((res.beta, res.gamma), product),
            ((res.beta + 1, res.gamma), product * z2),
            ((res.beta, res.gamma + 1), product * z3),
        ):
            stored = ZclResult(*cell)
            cache.store(tmp_path, n, stored)
            served = cache.load(tmp_path, n)
            assert served == (stored if element else None), (n, cell)
            served_count += served is not None
            refused += served is None
    assert served_count >= len(searched_6_40) and refused > 0


def test_cache_store_is_atomic(tmp_path):
    res = zcl_search(build_quotient(21))
    cache.store(tmp_path, 21, res)
    assert [p.name for p in tmp_path.iterdir()] == ["zcl-21.json"]
    assert cache.load(tmp_path, 21) == res
    # a truncated file (from a non-atomic writer or a damaged disk) reads as absent
    entry = tmp_path / "zcl-21.json"
    entry.write_text(entry.read_text()[:-8])
    assert cache.load(tmp_path, 21) is None
    # so does valid JSON that is not an object
    entry.write_text("[1, 2]\n")
    assert cache.load(tmp_path, 21) is None


def test_unusable_cache_dir_is_a_usage_error(capsys, tmp_path, monkeypatch):
    # a regular file, or a path under one, is refused before any ring is searched
    def no_search(q):
        raise AssertionError(f"W_{q.n} searched")

    monkeypatch.setattr(zcl_module, "zcl_search", no_search)
    afile = tmp_path / "afile"
    afile.write_text("")
    for path in (afile, afile / "sub"):
        for command in (["zcl", "6"], ["zcl-range", "6", "8"]):
            argv = [*command, "--cache-dir", str(path)]
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2, argv
            out, stderr = capsys.readouterr()
            assert out == "" and stderr.startswith(f"usage: w23 {command[0]} "), stderr
            line = stderr.splitlines()[-1]
            assert line.startswith(f"w23 {command[0]}: error: "), line
            assert "--cache-dir" in line and repr(str(path)) in line, line
    assert afile.read_text() == ""


def test_empty_cache_dir_is_a_usage_error(capsys, tmp_path, monkeypatch):
    # Path('') is the working directory: an empty --cache-dir is refused
    # before any ring is searched, and nothing is written there
    def no_search(q):
        raise AssertionError(f"W_{q.n} searched")

    monkeypatch.setattr(zcl_module, "zcl_search", no_search)
    monkeypatch.chdir(tmp_path)
    for command in (["zcl", "6"], ["zcl-range", "6", "8"]):
        with pytest.raises(SystemExit) as err:
            main([*command, "--cache-dir", ""])
        assert err.value.code == 2, command
        out, stderr = capsys.readouterr()
        assert out == "" and stderr.startswith(f"usage: w23 {command[0]} "), stderr
        assert stderr.splitlines()[-1] == (
            f"w23 {command[0]}: error: --cache-dir '' is not a usable directory: the path is empty"
        )
    assert list(tmp_path.iterdir()) == []


def test_empty_zcl_range_is_reported_on_its_own_parser(capsys):
    with pytest.raises(SystemExit) as err:
        main(["zcl-range", "9", "7"])
    assert err.value.code == 2
    out, stderr = capsys.readouterr()
    assert out == "" and stderr.startswith("usage: w23 zcl-range "), stderr
    assert stderr.splitlines()[-1] == "w23 zcl-range: error: empty range"


def test_table_small_n_golden(capsys):
    _, out = run(capsys, "table", "small-n")
    assert out == (GOLDEN / "small_n.txt").read_text()


def test_table_heights_golden(capsys):
    _, out = run(capsys, "table", "heights")
    assert out == (GOLDEN / "heights.txt").read_text()


def test_table_tc_csv_golden(capsys):
    for t in (4, 5):
        _, out = run(capsys, "table", "tc", str(t), "--format", "csv")
        assert out == (GOLDEN / f"tc_t{t}.csv").read_text()


def test_table_tc_json_round_trip(capsys):
    _, out = run(capsys, "table", "tc", "4..5", "--format", "json")
    rows = json.loads(out)
    assert json.loads(json.dumps(rows)) == rows
    by_t = {4: tc_table_rows(4), 5: tc_table_rows(5)}
    assert len(rows) == len(by_t[4]) + len(by_t[5])
    for row in rows:
        band = next(
            b for b in by_t[row["t"]] if b.n_first == row["n_first"]
        )
        assert (row["n_last"], row["zcl_wn"], row["exact"], row["tc_lower"]) == (
            band.n_last,
            band.zcl_wn,
            band.exact,
            band.tc_lower,
        )


def test_bounds_text(capsys):
    code, out = run(capsys, "bounds", "15")
    assert code == 0
    assert "zcl(G~(15,3)) = 21  (established)" in out
    assert "TC(G~(15,3)) >= 22" in out
    assert "no second exceptional class" in out
    _, out = run(capsys, "bounds", "22")
    assert "between 23 and 24" in out and "not established" in out
    assert "|a| = 28, |b| = 33" in out


def test_bounds_json(capsys):
    _, out = run(capsys, "bounds", "30", "--format", "json")
    payload = json.loads(out)
    assert payload["zcl_wn"] == 42
    assert payload["zcl_oriented_exact"] == 43
    assert payload["tc_lower"] == 44
    assert payload["b_deg"] is None


def test_verify_bounds_suite(capsys):
    code, out = run(capsys, "verify", "bounds", "--t-max", "4")
    assert code == 0
    assert "0 failures" in out


def test_verify_t_max_3_exits_0(capsys):
    # level 3 ends at n = 14, below the bounds' n >= 15: no check may need a
    # searched zcl beyond the sweep, nor claim an empty range
    for suite in ("bounds", "all"):
        code, out = run(capsys, "verify", suite, "--t-max", "3")
        assert code == 0, suite
        assert "0 failures" in out and "15 <= n <= 14" not in out, suite


def test_verify_runs_each_named_suite_once_in_order(capsys):
    _, once = run(capsys, "verify", "g-series", "--t-max", "3")
    assert once.endswith("\n34 checks, 0 failures\n")
    code, twice = run(capsys, "verify", "g-series", "g-series", "--t-max", "3")
    assert code == 0 and twice == once
    _, ordered = run(capsys, "verify", "quotient", "g-series", "--t-max", "3")
    code, out = run(capsys, "verify", "quotient", "g-series", "quotient", "--t-max", "3")
    assert code == 0 and out == ordered
    assert ordered.splitlines()[0] != once.splitlines()[0]  # quotient's checks come first


def test_suite_choices_name_every_suite():
    from w23 import verify

    assert cli_module.SUITE_CHOICES == ("all", *verify.SUITES)


def test_verify_json_shape(capsys):
    code, out = run(capsys, "verify", "g-series", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows and all(set(r) == {"name", "ok", "expected", "got"} for r in rows)
    assert all(r["ok"] for r in rows)


def test_verify_reports_a_raising_suite_as_a_failed_check(capsys, monkeypatch):
    # a ring whose basis reaches degree 3n-9 raises in its constructor; the
    # suite that builds it ends as one FAIL line, not as a traceback
    from w23 import verify

    def inconsistent(n):
        if n == 20:
            raise RuntimeError("W_20: the basis of I_20 is inconsistent")
        return build_quotient(n)

    monkeypatch.setattr(verify, "build_quotient", inconsistent)
    code, out = run(capsys, "verify", "quotient", "--t-max", "5", "--format", "json")
    assert code == 1
    assert json.loads(out) == [
        {
            "name": "the quotient suite runs to its end",
            "ok": False,
            "expected": "no error",
            "got": "RuntimeError('W_20: the basis of I_20 is inconsistent')",
        }
    ]
    code, out = run(capsys, "verify", "quotient", "g-series", "--t-max", "5")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("FAIL the quotient suite runs to its end: expected no error")
    assert all(line.startswith("ok ") for line in lines[1:-1])
    assert lines[-1].endswith(" checks, 1 failures")


def test_usage_errors_exit_2(capsys):
    for argv in (
        ["zcl", "5"],
        ["bounds", "14"],
        ["table", "g", "5..2"],
        ["g", "--no-such-flag"],
        ["table", "tc", "0..3"],
        ["table", "g", "0..3", "--range", "0..3"],
        ["nf", "21", "12", "0", "--format", "csv"],
        ["height", "6", "--closed"],
        ["height", "21", "--brute", "--closed"],
        ["height", "21", "--brute"],
        ["height", "21", "--closed"],
        ["zcl-range", "6", "8", "--jobs", "0"],
        ["verify", "zcl", "--jobs", "-1"],
        ["g", "14", "--format", "csv"],
        ["groebner", "21", "--format", "csv"],
        ["groebner", "21", "--reduced"],
        ["table", "tc", "--t", "1..2"],
        ["table", "tc", "--t", "3"],
        ["basis", "21", "--degree", "-1"],
        ["g", "14", "--jobs", "2"],
        ["verify", "g-series", "--cache-dir", "x"],
        ["table", "small-n", "--t", "1..2"],
        ["table", "heights", "7..8", "--t", "99"],
        ["basis", "5"],
        ["nf", "5", "0", "0"],
        ["height", "5"],
        ["zcl-range", "5", "8"],
        ["g", "-1"],
        ["groebner", "1"],
        ["nf", "21", "-1", "0"],
        ["verify", "all", "--t-max", "2"],
        ["zcl-range", "6", "+7"],
        ["zcl-range", "6", "1_0"],
        ["table", "g", "0..+3"],
        ["table", "heights", "6..8"],
        ["table", "tc", "3"],
        ["table", "small-n", "1..2"],
        ["zcl", "6", "--bogus"],
        ["table", "tc", "4..5", "extra"],
        ["--bogus", "zcl", "6"],
        ["table", "tc", "21"],
        ["table", "tc", "4..21"],
        ["g", "٣"],
        ["groebner", "٢١"],
        ["zcl", "１５"],
        ["table", "g", "٣..٥"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
        assert capsys.readouterr().out == "", argv


def test_unrecognized_arguments_are_reported_on_the_subcommand(capsys):
    for argv, command, extra in (
        (["zcl", "6", "--bogus"], "zcl", "--bogus"),
        (["table", "tc", "4..5", "extra"], "table tc", "extra"),
        (["--bogus", "zcl", "6"], None, "--bogus"),
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
        out, stderr = capsys.readouterr()
        prog = f"w23 {command}" if command else "w23"
        assert out == "" and stderr.startswith(f"usage: {prog} "), stderr
        assert stderr.splitlines()[-1] == f"{prog}: error: unrecognized arguments: {extra}"


def test_table_tc_refuses_levels_above_20_before_any_row(capsys, monkeypatch):
    def no_rows(t, zcl_fn=None):
        raise AssertionError(f"level {t} computed")

    monkeypatch.setattr(bounds_module, "tc_table_rows", no_rows)
    for span in ("21", "4..21", "21..22", "99"):
        with pytest.raises(SystemExit) as err:
            main(["table", "tc", span])
        assert err.value.code == 2, span
        out, stderr = capsys.readouterr()
        assert out == "" and stderr.startswith("usage: w23 table tc "), stderr
        assert stderr.splitlines()[-1].startswith("w23 table tc: error: argument range: ")
    with pytest.raises(SystemExit) as err:
        main(["table", "tc", "--help"])
    assert err.value.code == 0
    assert "each end in 4..20" in " ".join(capsys.readouterr().out.split())


def test_verify_refuses_t_max_above_11_before_any_check(capsys, monkeypatch):
    from w23 import verify

    def no_checks(names, t_max=5, jobs=1):
        raise AssertionError(f"level {t_max} run")

    monkeypatch.setattr(verify, "run_suites", no_checks)
    for level in ("12", "40"):
        with pytest.raises(SystemExit) as err:
            main(["verify", "all", "--t-max", level])
        assert err.value.code == 2, level
        out, stderr = capsys.readouterr()
        assert out == "" and stderr.startswith("usage: w23 verify "), stderr
        assert stderr.splitlines()[-1].startswith("w23 verify: error: argument --t-max: ")
    with pytest.raises(SystemExit) as err:
        main(["verify", "--help"])
    assert err.value.code == 0
    assert "3..11" in capsys.readouterr().out


def test_table_range_may_follow_format(capsys):
    # each table has one positional argument, so its range parses on either
    # side of --format
    for which, span in (("g", "3..5"), ("heights", "7..9"), ("tc", "4")):
        for fmt in ("text", "json", "csv"):
            before = run(capsys, "table", which, span, "--format", fmt)
            after = run(capsys, "table", which, "--format", fmt, span)
            assert before == after and before[0] == 0, (which, fmt)


# one small invocation per subcommand, run in every format it offers
FORMAT_ARGVS = {
    "g": ["g", "14"],
    "groebner": ["groebner", "8"],
    "basis": ["basis", "8"],
    "nf": ["nf", "8", "3", "1"],
    "height": ["height", "8"],
    "zcl": ["zcl", "8", "--witness", "--closed-form-check"],
    "zcl-range": ["zcl-range", "6", "8"],
    "bounds": ["bounds", "15"],
    "table g": ["table", "g", "0..3"],
    "table small-n": ["table", "small-n"],
    "table heights": ["table", "heights", "7..9"],
    "table tc": ["table", "tc", "4"],
    "verify": ["verify", "bounds", "--t-max", "4"],
}


def _commands(parser, prefix=()):
    """(words, subparser) for every command, the tables under `table`."""
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name, subparser in subs.choices.items():
        if any(isinstance(a, argparse._SubParsersAction) for a in subparser._actions):
            yield from _commands(subparser, (*prefix, name))
        else:
            yield (*prefix, name), subparser


def test_every_format_of_every_command(capsys):
    commands = dict(_commands(cli_module._build_parser()))
    assert {" ".join(words) for words in commands} == set(FORMAT_ARGVS)
    offers_csv = set()
    for words, subparser in commands.items():
        name = " ".join(words)
        with pytest.raises(SystemExit) as err:
            main([*words, "--help"])
        assert err.value.code == 0, name
        capsys.readouterr()
        (fmt,) = [a for a in subparser._actions if a.dest == "format"]
        if "csv" in fmt.choices:
            offers_csv.add(name)
        for choice in fmt.choices:
            code, out = run(capsys, *FORMAT_ARGVS[name], "--format", choice)
            assert code == 0, (name, choice)
            if choice == "json":
                json.loads(out)
            elif choice == "csv":
                header = next(csv.reader(io.StringIO(out)))
                assert header and all(field.isidentifier() for field in header), (name, out)
    assert offers_csv == {
        "basis", "zcl-range", "table g", "table small-n", "table heights", "table tc"
    }


def test_console_script_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "w23.cli", "zcl", "9"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert out.returncode == 0
    assert out.stdout == "zcl(W_9) = 7\n"


def test_failing_property_test_fails_cleanly(tmp_path):
    # under this repo's pytest settings, where warnings are errors, a failing
    # @given test prints its falsifying example and fails with exit code 1,
    # not with an INTERNALERROR raised inside hypothesis's failure report
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(derandomize=True, database=None)\n"
        "@given(st.integers())\n"
        "def test_small(x):\n"
        "    assert x < 10\n"
    )
    config = Path(__file__).parents[1] / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "Falsifying example" in out and "INTERNALERROR" not in out, out


def test_package_has_no_bare_assert():
    # every invariant must hold under python -O, which strips assert statements
    package = Path(cli_module.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_process_wide_cache_is_the_g_series():
    # module-level private containers or objects outlive every call; the
    # policy allows only the g-series, which is small
    package = Path(cli_module.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            kinds = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp, ast.Call)
            if not isinstance(node.value, kinds):
                continue
            for target in targets:
                name = getattr(target, "id", "")
                if name.startswith("_") and not name.startswith("__"):
                    found.append(f"{path.stem}.{name}")
    assert found == ["gseries._shared"]


# the oracles that only checks read
ORACLES = (
    "TensorElement",
    "tensor_one",
    "embed_left",
    "embed_right",
    "nf_poly",
    "z",
    "GradedPiece",
    "graded_piece",
    "g_explicit",
    "ideal_member",
    "w3_ideal_member",
)


def test_checked_statements_live_in_verify():
    # verify.py is the one home of Check, of every verify_* statement and of
    # the oracles only checks read, so that only `w23 verify` loads them; the
    # other modules hold what the commands run.  cache.py, which runs the one
    # sweep, is the one module with a process pool
    package = Path(cli_module.__file__).parent
    assert not (package / "report.py").exists()
    homes = {"Check": "verify.py", "multiprocessing": "cache.py", "concurrent": "cache.py"}
    homes.update(dict.fromkeys(ORACLES, "verify.py"))
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined = [
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        ]
        if path.name == "verify.py":
            found += [f"verify lacks {name}" for name in ORACLES if name not in defined]
        else:
            found += [
                f"{path.stem}.{name}"
                for name in defined
                if name == "Check" or name.startswith("verify_") or name in ORACLES
            ]
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom) and node.module:
                names.append(node.module)
            for name in names:
                for part in {name.partition(".")[0], name.rpartition(".")[2]}:
                    if homes.get(part, path.name) != path.name:
                        found.append(f"{path.stem} imports {part}")
    assert found == []


def test_no_module_imports_a_private_name():
    # a module's underscore names are its own: no other w23 module imports one
    package = Path(cli_module.__file__).parent
    found = [
        f"{path.stem} imports {node.module}.{alias.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("w23"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_verify_passes_under_optimize():
    out = subprocess.run(
        [sys.executable, "-O", "-m", "w23.cli", "verify", "all", "--t-max", "4"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
