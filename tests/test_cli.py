"""Command-line behavior: renderings, formats, caching, exit codes."""

import argparse
import ast
import csv
import io
import itertools
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from w23 import cache
from w23 import cli as cli_module
from w23 import groebner as groebner_module
from w23.bounds import tc_table_rows
from w23.cli import main
from w23.groebner import basis_for, buchberger, reduce_basis
from w23.gseries import g_recurrence
from w23.poly import W2, W3, Poly
from w23.quotient import build_quotient
from w23.verify import z
from w23.zcl import SMALL_N_ZCL, ZclResult, zcl_search

GOLDEN = Path(__file__).parent / "golden"


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
    code, out = run(capsys, "groebner", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["t"] is None and payload["alpha"] is None


# the text the commands print on the smallest rings, the same as when
# basis_for ran Buchberger below n = 7
SMALL_RING_TEXT = {
    ("groebner", "2"): "n = 2\nf_0 = 1   lm = 1\n",
    ("groebner", "3"): "n = 3\nf_0 = w2   lm = w2\nf_1 = w3   lm = w3\n",
    ("groebner", "4"): "n = 4\nf_0 = w2   lm = w2\nf_1 = w3   lm = w3\n",
    ("groebner", "5"): "n = 5\nf_0 = w2^2   lm = w2^2\nf_1 = w3   lm = w3\n",
    ("groebner", "6"): "n = 6\nf_0 = w2^2   lm = w2^2\nf_1 = w3^2   lm = w3^2\n",
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
    monkeypatch.delenv(cache.ENV_VAR, raising=False)
    for argv, text in SMALL_RING_TEXT.items():
        assert run(capsys, *argv) == (0, text), argv
    for n, gb in reference.items():
        code, out = run(capsys, "groebner", str(n), "--format", "json")
        payload = json.loads(out)
        assert code == 0 and (payload["t"] is None) == (n < 7), n
        polys = [Poly((term["b"], term["c"]) for term in entry["terms"]) for entry in payload["polys"]]
        assert polys == list(gb.polys), n


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


def test_nf_output(capsys):
    assert run(capsys, "nf", "21", "12", "0") == (0, "w2^3*w3^6\n")
    assert run(capsys, "nf", "21", "9", "2") == (0, "w2^3*w3^6\n")
    assert run(capsys, "nf", "22", "12", "1") == (0, "0\n")
    assert run(capsys, "nf", "21", "13", "0") == (0, "0\n")


def test_height_methods_agree(capsys):
    _, closed = run(capsys, "height", "21")
    _, brute = run(capsys, "height", "21", "--brute")
    assert closed == brute == "height(w2) = 12\nheight(w3) = 6\n"
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

    # a consistent but wrong entry fails the piece check on the ring: in W_7
    # z(w2)^8 = 0, so w2*w3^2 (x) w2^4 cannot survive; recomputed and rewritten
    wrong = {"beta": 8, "gamma": 0, "r": 8, "pair": [[1, 2], [4, 0]]}
    entry.write_text(json.dumps(dict(good, value=8, witness=wrong)))
    _, out = run(capsys, "zcl", "7", "--closed-form-check", "--cache-dir", str(cache_dir))
    assert out == "zcl(W_7) = 7\nclosed-form check: ok (7)\n"
    assert json.loads(entry.read_text()) == good

    # a consistent entry is trusted without recomputation
    def no_search(q, stair=None):
        raise AssertionError(f"W_{q.n} recomputed")

    monkeypatch.setattr(cache, "zcl_search", no_search)
    _, out = run(capsys, "zcl", "7", "--witness", "--cache-dir", str(cache_dir))
    assert out.startswith("zcl(W_7) = 7\nwitness: beta=7 gamma=0 r=8 ")


def test_zcl_range_stores_each_n_as_it_arrives(capsys, tmp_path, monkeypatch):
    # an interrupted sweep keeps every n finished before the interruption;
    # the sweep runs down from 30, so those are 21..30
    cache_dir = tmp_path / "cache"

    def search_until_20(q, stair=None):
        if q.n == 20:
            raise KeyboardInterrupt
        return zcl_search(q, stair)

    monkeypatch.setattr(cache, "zcl_search", search_until_20)
    with pytest.raises(KeyboardInterrupt):
        main(["zcl-range", "6", "30", "--cache-dir", str(cache_dir)])
    assert sorted(p.name for p in cache_dir.iterdir()) == sorted(
        f"zcl-{n}.json" for n in range(21, 31)
    )


def _zcl7_payload(**witness):
    w = {"beta": 7, "gamma": 0, "r": 8, "pair": [[1, 2], [0, 2]]}
    w.update(witness)
    header = {"schema_version": cache.SCHEMA_VERSION, "kind": "zcl", "n": 7}
    return dict(header, value=7, witness=w)


def test_cached_zcl_is_checked_before_use(capsys, tmp_path):
    entry = tmp_path / "zcl-7.json"
    entry.write_text(json.dumps(_zcl7_payload()))
    assert cache.load(tmp_path, 7) == ZclResult(7, 7, 0, 8, ((1, 2), (0, 2)))
    bad = [
        None,
        dict(_zcl7_payload(), n=8),  # stored under another n
        dict(_zcl7_payload(), kind="zcl-range"),  # another kind of entry
        {k: v for k, v in _zcl7_payload().items() if k != "witness"},  # no witness
        dict(_zcl7_payload(), value=999),  # value != beta + gamma
        dict(_zcl7_payload(), witness={"beta": 7, "gamma": 0, "pair": [[1, 2], [0, 2]]}),  # no r
        _zcl7_payload(beta="7"),  # not an int
        _zcl7_payload(beta=True),  # not an int
        _zcl7_payload(beta=10, gamma=-3, pair=[[1, 2], [0, 1]]),  # negative
        _zcl7_payload(r=6),  # left degree 8 != r
        _zcl7_payload(pair=[[1, 2], [0, 3]]),  # right degree != 14 - r
        _zcl7_payload(pair=[[1, 2]]),  # not a pair
        _zcl7_payload(pair="xy"),
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
    for field, value in (("schema_version", True), ("schema_version", 1.0), ("n", 21.0)):
        entry.write_text(json.dumps(dict(stored, **{field: value})))
        assert cache.load(tmp_path, 21) is None, (field, value)


def test_copied_entry_is_recomputed(capsys, tmp_path):
    # the copied witness also survives in W_22, so only the stored n gives it away
    run(capsys, "zcl", "21", "--cache-dir", str(tmp_path))
    (tmp_path / "zcl-22.json").write_text((tmp_path / "zcl-21.json").read_text())
    _, out = run(capsys, "zcl", "22", "--cache-dir", str(tmp_path))
    assert out == "zcl(W_22) = 22\n"
    stored = json.loads((tmp_path / "zcl-22.json").read_text())
    assert (stored["n"], stored["value"]) == (22, 22)


def test_forged_witness_is_rejected_before_any_piece_scan(capsys, tmp_path, monkeypatch):
    # self-consistent fields, but w3^gamma is no basis monomial of W_21; a
    # piece scan from gamma = 10**12 would never finish
    gamma = 10**12
    forged = {"beta": 0, "gamma": gamma, "r": 3 * gamma, "pair": [[0, gamma], [0, 0]]}
    payload = dict(_zcl7_payload(), n=21, value=gamma, witness=forged)
    (tmp_path / "zcl-21.json").write_text(json.dumps(payload))

    def no_scan(*args):
        raise AssertionError("a graded piece was scanned")

    monkeypatch.setattr(cache, "piece_pairs", no_scan)
    assert cache.load(tmp_path, 21) is None
    _, out = run(capsys, "zcl", "21", "--cache-dir", str(tmp_path))
    assert out == "zcl(W_21) = 21\n"


# paths into a stored entry: every field that can go, and every int field
_FIELDS = [("schema_version",), ("kind",), ("n",), ("value",), ("witness",)] + [
    ("witness", key) for key in ("beta", "gamma", "r", "pair")
]
_INT_FIELDS = [("schema_version",), ("n",), ("value",)] + [
    ("witness", key) for key in ("beta", "gamma", "r")
] + [("witness", "pair", i, j) for i in (0, 1) for j in (0, 1)]
_MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(_FIELDS)),
    st.tuples(
        st.just("retype"),
        st.sampled_from(_INT_FIELDS),
        st.sampled_from([bool, str, float, lambda v: [v], lambda v: None]),
    ),
    st.tuples(st.just("shift"), st.sampled_from(_INT_FIELDS), st.sampled_from([-1, 1])),
    st.tuples(
        st.just("huge"), st.sampled_from(_INT_FIELDS), st.sampled_from([2**64, 10**30, 10**400])
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
            (*parents, last), arg = args[0], args[-1]
            holder = entry
            for key in parents:
                holder = holder[key]
            if kind == "drop":
                del holder[last]
            elif kind == "retype":
                holder[last] = arg(holder[last])
            elif kind == "shift":
                holder[last] += arg
            else:
                holder[last] = arg
            entry_file.write_text(json.dumps(entry))
        assert cache.load(cache_dir, target) in (None, searched_6_40[target])


def test_load_accepts_exactly_the_surviving_pairs(searched_6_40, tmp_path):
    # of the basis pairs in the witness's two degrees, load serves exactly
    # those that survive in z(w2)^beta*z(w3)^gamma, taken from the full
    # product in the tensor-square oracle
    refused = 0
    for n, res in searched_6_40.items():
        q = build_quotient(n)
        product = (z(q, W2) ** res.beta * z(q, W3) ** res.gamma).pairs
        degrees = q.by_degree()
        lefts = degrees.get(res.r, [])
        rights = degrees.get(2 * res.beta + 3 * res.gamma - res.r, [])
        for pair in itertools.product(lefts, rights):
            cache.store(tmp_path, n, res._replace(pair=pair))
            served = cache.load(tmp_path, n)
            assert served == (res._replace(pair=pair) if pair in product else None), (n, pair)
            refused += served is None
    assert refused > 0


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


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("W23_CACHE_DIR", str(tmp_path / "envcache"))
    run(capsys, "zcl", "6")
    assert (tmp_path / "envcache" / "zcl-6.json").exists()


def test_unusable_cache_dir_is_a_usage_error(capsys, tmp_path, monkeypatch):
    # a regular file, or a path under one, is refused before any ring is searched
    def no_search(q, stair=None):
        raise AssertionError(f"W_{q.n} searched")

    monkeypatch.setattr(cache, "zcl_search", no_search)
    afile = tmp_path / "afile"
    afile.write_text("")
    for path in (afile, afile / "sub"):
        for command in (["zcl", "6"], ["zcl-range", "6", "8"]):
            for source in ("--cache-dir", cache.ENV_VAR):
                argv = command
                if source == cache.ENV_VAR:
                    monkeypatch.setenv(cache.ENV_VAR, str(path))
                else:
                    monkeypatch.delenv(cache.ENV_VAR, raising=False)
                    argv = [*command, "--cache-dir", str(path)]
                with pytest.raises(SystemExit) as err:
                    main(argv)
                assert err.value.code == 2, (argv, source)
                line = capsys.readouterr().err.splitlines()[-1]
                assert source in line and repr(str(path)) in line, line
    assert afile.read_text() == ""


def test_table_small_n_golden(capsys):
    _, out = run(capsys, "table", "small-n")
    assert out == (GOLDEN / "small_n.txt").read_text()


def test_table_heights_golden(capsys):
    _, out = run(capsys, "table", "heights")
    assert out == (GOLDEN / "heights.txt").read_text()


def test_table_tc_csv_golden(capsys):
    for t in (4, 5):
        _, out = run(capsys, "table", "tc", "--t", str(t), "--format", "csv")
        assert out == (GOLDEN / f"tc_t{t}.csv").read_text()


def test_table_tc_json_round_trip(capsys):
    _, out = run(capsys, "table", "tc", "--t", "4..5", "--format", "json")
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


def test_suite_choices_name_every_suite():
    from w23 import verify

    assert cli_module.SUITE_CHOICES == ("all", *verify.SUITES)


def test_verify_json_shape(capsys):
    code, out = run(capsys, "verify", "g-series", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows and all(set(r) == {"name", "ok", "expected", "got"} for r in rows)
    assert all(r["ok"] for r in rows)


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
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
        assert capsys.readouterr().out == "", argv


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
    "table": ["table", "heights", "7..9"],
    "verify": ["verify", "bounds", "--t-max", "4"],
}


def test_every_format_of_every_command(capsys, monkeypatch):
    monkeypatch.delenv(cache.ENV_VAR, raising=False)
    parser = cli_module._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(FORMAT_ARGVS)
    offers_csv = set()
    for name, subparser in commands.choices.items():
        with pytest.raises(SystemExit) as err:
            main([name, "--help"])
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
    assert offers_csv == {"basis", "zcl-range", "table"}


def test_console_script_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "w23.cli", "zcl", "9"],
        capture_output=True,
        text=True,
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
    homes = {"Check": "verify.py", "multiprocessing": "cache.py"}
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
    )
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
