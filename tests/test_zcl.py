"""Tensor-square algebra and the cup-length search."""

import concurrent.futures
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from w23 import cache as cache_module
from w23 import zcl as zcl_module
from w23.cache import zcl_results
from w23.cli import main
from w23.groebner import basis_for
from w23.poly import W2, W3, Poly, lucas_binom_mod2
from w23.quotient import QuotientRing, brute_heights, build_quotient
from w23.verify import (
    TensorElement,
    embed_left,
    embed_right,
    failures,
    graded_piece,
    run_suites,
    tensor_one,
    verify_upper_bound_lemmas,
    verify_zero_divisor_algebra,
    z,
)
from w23.zcl import (
    SMALL_N_ZCL,
    ZclResult,
    _scan_degrees,
    _zcap,
    witness,
    zcl_closed_form,
    zcl_search,
    zero_divisor_product_nonzero,
)


def test_z_of_generators_in_w6():
    q = build_quotient(6)
    prod = z(q, W2) * z(q, W3)
    assert prod.pairs == {
        ((1, 1), (0, 0)),
        ((1, 0), (0, 1)),
        ((0, 1), (1, 0)),
        ((0, 0), (1, 1)),
    }


def test_tensor_element_ops():
    q = build_quotient(9)
    a = z(q, W2)
    assert a + a == TensorElement(q)
    assert not (a + a)
    assert a * tensor_one(q) == a
    assert a.swap() == a
    assert embed_left(q, W2).swap() == embed_right(q, W2)
    with pytest.raises(ValueError):
        a ** -1


def test_pow_is_repeated_mul():
    # the z identities raise to powers up to 2^3, squaring as they go
    for n, top, make in ((10, 4, embed_left), (14, 8, z)):
        q = build_quotient(n)
        a = z(q, W2) + make(q, W3)
        acc = tensor_one(q)
        for e in range(top + 1):
            assert a ** e == acc, (n, e)
            acc = acc * a


def test_z_identities():
    for n in (6, 9, 14):
        assert failures(verify_zero_divisor_algebra(build_quotient(n), 25, seed=n)) == []


def test_graded_piece_witnesses():
    gp = graded_piece(build_quotient(21), 15, 6, 24)
    assert gp.element.pairs == {((3, 6), (6, 4)), ((6, 4), (3, 6))}
    gp = graded_piece(build_quotient(22), 15, 7, 24)
    assert gp.element.pairs == {((3, 6), (6, 5))}


def test_graded_piece_r0():
    q = build_quotient(15)
    gp = graded_piece(q, 3, 2, 0)
    assert gp.element.pairs == {((0, 0), m) for m in q.nf_set(3, 2)}
    with pytest.raises(ValueError):
        graded_piece(q, 3, 2, 13)


def test_pieces_reassemble_product():
    # the Lucas-filtered piece construction against the generic tensor
    # product, which multiplies pair by pair through normal forms
    rng = random.Random(99)
    for n in (6, 9, 13, 17):
        q = build_quotient(n)
        for _ in range(8):
            beta = rng.randrange(7)
            gamma = rng.randrange(5 - beta // 2)
            full = (z(q, W2) ** beta) * (z(q, W3) ** gamma)
            union = set()
            for r in range(2 * beta + 3 * gamma + 1):
                union |= graded_piece(q, beta, gamma, r).element.pairs
            assert union == full.pairs, (n, beta, gamma)


def test_product_symmetry_under_swap():
    rng = random.Random(5)
    for n in (8, 15, 21, 30):
        q = build_quotient(n)
        for _ in range(6):
            beta, gamma = rng.randrange(8), rng.randrange(6)
            el = (z(q, W2) ** beta) * (z(q, W3) ** gamma)
            assert el.swap() == el


def test_nonzero_examples():
    q21 = build_quotient(21)
    assert zero_divisor_product_nonzero(q21, 15, 6)
    assert not zero_divisor_product_nonzero(q21, 15, 7)
    assert zero_divisor_product_nonzero(q21, 0, 0)
    with pytest.raises(ValueError):
        zero_divisor_product_nonzero(q21, -1, 0)


def test_z_height_matches_doubling_rule():
    # height h of the class forces height 2^(bitlength(h))-1 for its z
    for n in (7, 12, 15, 21, 26, 31, 40):
        q = build_quotient(n)
        h2, h3 = brute_heights(q)
        cap2 = (1 << h2.bit_length()) - 1
        cap3 = (1 << h3.bit_length()) - 1
        assert zero_divisor_product_nonzero(q, cap2, 0)
        assert not zero_divisor_product_nonzero(q, cap2 + 1, 0)
        assert zero_divisor_product_nonzero(q, 0, cap3)
        assert not zero_divisor_product_nonzero(q, 0, cap3 + 1)


def test_small_n_values():
    for n, expect in SMALL_N_ZCL.items():
        assert zcl_search(build_quotient(n)).value == expect, n


def test_closed_form_cases():
    assert zcl_closed_form(15) == 20
    assert zcl_closed_form(16) == 20
    assert zcl_closed_form(21) == 21
    assert zcl_closed_form(25) == 31
    assert zcl_closed_form(27) == 34
    assert zcl_closed_form(30) == 42
    with pytest.raises(ValueError):
        zcl_closed_form(14)


def test_search_matches_closed_form():
    for n in range(15, 63):
        assert zcl_search(build_quotient(n)).value == zcl_closed_form(n), n


def test_monotone_in_n():
    values = [zcl_search(build_quotient(n)).value for n in range(6, 63)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_witness_structure():
    q21 = build_quotient(21)
    res = zcl_search(q21)
    assert res == ZclResult(15, 6)
    assert witness(q21, res.beta, res.gamma) == (24, ((3, 6), (6, 4)))
    q30 = build_quotient(30)
    res = zcl_search(q30)
    assert res.value == 42
    assert zero_divisor_product_nonzero(q30, res.beta, res.gamma)
    r, pair = witness(q30, res.beta, res.gamma)
    assert pair[0] in q30.basis and pair[1] in q30.basis
    piece = graded_piece(q30, res.beta, res.gamma, r).element
    assert pair in piece.pairs


def test_witness_refuses_a_vanishing_cell():
    # z(w2)^8 = 0 in W_7: a vanishing product has no surviving pair
    q = build_quotient(7)
    assert not zero_divisor_product_nonzero(q, 8, 0)
    with pytest.raises(ValueError, match="vanishes"):
        witness(q, 8, 0)


def test_witness_refuses_a_negative_exponent():
    q = build_quotient(7)
    for beta, gamma in ((-1, 0), (0, -1), (10, -3)):
        with pytest.raises(ValueError, match="nonnegative"):
            witness(q, beta, gamma)


def test_no_cell_beats_the_search():
    # every admissible cell one level above the reported maximum vanishes
    for n in (16, 21, 30):
        q = build_quotient(n)
        h2, h3 = brute_heights(q)
        cap2, cap3 = (1 << h2.bit_length()) - 1, (1 << h3.bit_length()) - 1
        level = zcl_search(q).value + 1
        for beta in range(max(0, level - cap3), cap2 + 1):
            gamma = level - beta
            if 0 <= gamma <= cap3:
                assert not zero_divisor_product_nonzero(q, beta, gamma), (n, beta, gamma)


def test_upper_bound_lemmas():
    for t in (4, 5):
        assert failures(verify_upper_bound_lemmas(t)) == []
    with pytest.raises(ValueError):
        verify_upper_bound_lemmas(3)


def test_zcl_range_serial():
    results = zcl_results(range(6, 11))
    assert {n: res.value for n, res in results.items()} == {6: 2, 7: 7, 8: 7, 9: 7, 10: 8}
    assert list(results) == [6, 7, 8, 9, 10]
    for n, res in results.items():
        assert zero_divisor_product_nonzero(build_quotient(n), res.beta, res.gamma), n


def test_tensor_element_rejects_bad_input():
    q9, q10 = build_quotient(9), build_quotient(10)
    with pytest.raises(ValueError):
        TensorElement(q9, {((0, 0), (99, 0))})
    with pytest.raises(ValueError):
        z(q9, W2) + z(q10, W2)
    with pytest.raises(ValueError):
        z(q9, W2) * z(q10, W2)


def test_packed_cells_match_tensor_product():
    # every cell of the capped grid (so every cell near the staircase):
    # the packed-row test against the generic tensor product and against
    # graded_piece's full Lucas scan
    for n in (9, 14, 21, 22):
        q = build_quotient(n)
        h2, h3 = brute_heights(q)
        z2, z3 = z(q, W2), z(q, W3)
        col = tensor_one(q)
        for gamma in range(_zcap(h3) + 2):
            el = col
            for beta in range(_zcap(h2) + 2):
                total = 2 * beta + 3 * gamma
                pieces = any(
                    bool(graded_piece(q, beta, gamma, r).element) for r in range(total + 1)
                )
                packed = zero_divisor_product_nonzero(q, beta, gamma)
                assert packed == bool(el) == pieces, (n, beta, gamma)
                el = el * z2
            col = col * z3


def test_pruned_cells_match_pieces():
    # every cell of the capped grid: the cell test, which narrows its scan by
    # the nonzero staircase once the balanced piece is zero, against the
    # full Lucas scan of graded_piece over every scanned degree.  A cell
    # right of or above a vanishing cell vanishes too (zero times z(w2) or
    # z(w3) is zero), so the pieces are needed only up to the vanishing
    # frontier.
    late = 0  # nonzero cells whose balanced piece is zero
    for n in (*range(6, 41), 100, 127, 200):
        q = build_quotient(n)
        h2, h3 = brute_heights(q)
        vanishing = set()
        for gamma in range(_zcap(h3) + 1):
            for beta in range(_zcap(h2) + 1):
                if (beta - 1, gamma) in vanishing or (beta, gamma - 1) in vanishing:
                    want = False
                else:
                    pieces = (
                        bool(graded_piece(q, beta, gamma, r).element)
                        for r in _scan_degrees(q, beta, gamma)
                    )
                    want = next(pieces, False)
                    if not want and any(pieces):
                        want = True
                        late += 1
                assert zero_divisor_product_nonzero(q, beta, gamma) == want, (n, beta, gamma)
                if not want:
                    vanishing.add((beta, gamma))
    assert late > 1000


def test_cell_test_reads_each_kept_term_once(monkeypatch):
    # every vanishing cell of the capped grid, so every piece is summed: the
    # first term list is the balanced piece's Lucas terms, and the later
    # lists, one per left degree in ascending order, hold each term above
    # the balanced degree with both factors nonzero exactly once; that set
    # is found here by nf_bits probes over the submasks, not by q.top
    lists = []
    piece = zcl_module._piece_nonzero

    def recorded(nf_bits, beta, gamma, terms):
        lists.append(list(terms))
        return piece(nf_bits, beta, gamma, terms)

    monkeypatch.setattr(zcl_module, "_piece_nonzero", recorded)
    for n in (21, 22, 40, 100):
        q = build_quotient(n)
        h2, h3 = brute_heights(q)
        for gamma in range(_zcap(h3) + 1):
            for beta in range(_zcap(h2) + 1):
                lists.clear()
                if zero_divisor_product_nonzero(q, beta, gamma):
                    continue
                degrees = _scan_degrees(q, beta, gamma)
                if not degrees:
                    assert not lists, (n, beta, gamma)
                    continue
                r0 = degrees[0]
                balanced = [
                    ((r0 - 3 * c) // 2, c)
                    for c in range(min(gamma, r0 // 3) + 1)
                    if (r0 - 3 * c) % 2 == 0
                    and lucas_binom_mod2(gamma, c)
                    and (r0 - 3 * c) // 2 <= beta
                    and lucas_binom_mod2(beta, (r0 - 3 * c) // 2)
                ]
                assert sorted(lists[0]) == sorted(balanced), (n, beta, gamma)
                later = lists[1:]
                left_degrees = []
                for terms in later:
                    assert terms and len({2 * b + 3 * c for b, c in terms}) == 1
                    left_degrees.append(2 * terms[0][0] + 3 * terms[0][1])
                assert left_degrees == sorted(set(left_degrees))
                assert not left_degrees or left_degrees[0] > r0
                kept = {
                    (b, c)
                    for c in range(gamma + 1)
                    if not c & ~gamma
                    for b in range(beta + 1)
                    if not b & ~beta
                    and 2 * b + 3 * c > r0
                    and q.nf_bits(b, c)
                    and q.nf_bits(beta - b, gamma - c)
                }
                read = [t for terms in later for t in terms]
                assert len(read) == len(set(read)) and set(read) == kept, (n, beta, gamma)


def _unpruned_search(q):
    """The staircase walked to every row's exact boundary, cells tested on
    graded_piece's full Lucas scan: the reference for the bounded walk."""
    h2, h3 = brute_heights(q)
    beta = _zcap(h2)
    best = None
    for gamma in range(_zcap(h3) + 1):
        while beta >= 0 and not any(
            bool(graded_piece(q, beta, gamma, r).element)
            for r in _scan_degrees(q, beta, gamma)
        ):
            beta -= 1
        if beta < 0:
            break
        if best is None or beta + gamma > best.value:
            best = ZclResult(beta, gamma)
    return best


def test_bounded_walk_matches_unpruned_staircase():
    for n in range(6, 127):
        q = build_quotient(n)
        assert zcl_search(q) == _unpruned_search(q), n


def _row_by_row_search(q):
    """The bounded walk without the row-end bisection, one cell per row
    where the boundary runs flat: the reference for zcl_search's result."""
    h2, h3 = brute_heights(q)
    gamma_cap = _zcap(h3)
    beta = _zcap(h2)
    best = None
    for gamma in range(gamma_cap + 1):
        floor = -1 if best is None else max(best[0] - gamma, -1)
        while beta > floor and not zero_divisor_product_nonzero(q, beta, gamma):
            beta -= 1
        if beta > floor:
            best = (beta + gamma, beta, gamma)
        if best is None or beta < 0 or best[0] >= beta + gamma_cap:
            break
    return ZclResult(*best[1:])


def test_galloping_walk_matches_row_by_row_walk():
    # 510 and 1022 are level tops, where the cap cell vanishes and the
    # bisection runs the whole row
    for n in (*range(6, 255), 510, 1022, 1408, 1535):
        q = build_quotient(n)
        assert zcl_search(q) == _row_by_row_search(q), n


def test_flat_row_is_galloped(monkeypatch):
    # at the end of level 10 the staircase is one flat row of 512 nonzero
    # cells; the walk tests one of them, and the cap cell's balanced piece
    # ends the row
    cells = []

    def counted(q, beta, gamma):
        cells.append((beta, gamma))
        return zero_divisor_product_nonzero(q, beta, gamma)

    monkeypatch.setattr(zcl_module, "zero_divisor_product_nonzero", counted)
    for n in (1408, 1535):
        cells.clear()
        res = zcl_search(build_quotient(n))
        assert (res.value, res.beta, res.gamma) == (1534, 1023, 511), n
        assert len(cells) <= 32, (n, len(cells))


def test_search_raises_when_the_unit_cell_vanishes(monkeypatch):
    monkeypatch.setattr(zcl_module, "zero_divisor_product_nonzero", lambda q, b, c: False)
    with pytest.raises(RuntimeError):
        zcl_search(QuotientRing(9, basis_for(9)))


def test_search_builds_no_witness(monkeypatch):
    # the search returns its cell; the witness is built only when asked for
    def no_witness(*args):
        raise AssertionError("a witness was built")

    monkeypatch.setattr(zcl_module, "witness", no_witness)
    for n in (21, 440, 1408):
        res = zcl_search(QuotientRing(n, basis_for(n)))
        assert type(res) is ZclResult and res.value == zcl_closed_form(n), n


class _RecordingPool:
    """A stand-in for ProcessPoolExecutor: records each pool's size and start
    method, and runs the chains in this process."""

    def __init__(self):
        self.methods, self.processes = [], []

    def __call__(self, max_workers, mp_context):
        self.processes.append(max_workers)
        self.methods.append(mp_context.get_start_method())
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_sweep_clamps_pool_size(monkeypatch):
    # the pool is jobs clamped to the CPU count and to the missing n
    pool = _RecordingPool()
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    values = {n: res.value for n, res in zcl_results(range(6, 9), jobs=10**9).items()}
    assert values == {6: 2, 7: 7, 8: 7}
    values = {n: res.value for n, res in zcl_results(range(6, 15), jobs=10**9).items()}
    assert values == SMALL_N_ZCL
    values = {n: res.value for n, res in zcl_results(range(6, 15), jobs=2).items()}
    assert values == SMALL_N_ZCL
    assert pool.processes == [3, 4, 2]
    assert set(pool.methods) == {"spawn"}
    # one worker, or one n, runs here without a pool
    assert zcl_results([9], jobs=8)[9].value == 7
    assert [res.value for res in zcl_results([6, 7], jobs=1).values()] == [2, 7]
    assert pool.processes == [3, 4, 2]
    with pytest.raises(ValueError):
        zcl_results([6], jobs=0)


def test_unguarded_pool_fails_instead_of_hanging(tmp_path):
    # a script that starts a pool with no `if __name__ == "__main__":` guard:
    # each spawned worker re-runs it and dies starting up, and the sweep
    # raises BrokenProcessPool; a pool that replaced its dead workers would
    # never return.  The script runs in its own session, so that a hang is
    # ended with every process it started
    script = tmp_path / "unguarded.py"
    script.write_text(
        "import os\n"
        "from w23.cache import zcl_results\n"
        "os.cpu_count = lambda: 2  # so that a pool of two starts\n"
        "zcl_results(range(6, 12), jobs=2)\n"
    )
    src = str(Path(zcl_module.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, str(script)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the unguarded pool hung")
    assert proc.returncode != 0
    assert "BrokenProcessPool" in err, err[-2000:]


def test_sweep_keeps_no_ring_alive():
    # a fresh process, so no other test's rings are counted
    src = str(Path(zcl_module.__file__).resolve().parents[1])
    probe = (
        "import gc; from w23.quotient import QuotientRing; from w23.cache import zcl_results;"
        " rows = zcl_results(range(6, 101)); gc.collect();"
        " print(len(rows), sum(isinstance(o, QuotientRing) for o in gc.get_objects()))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "95 0\n"


def test_verify_runs_one_sweep(monkeypatch):
    # each n is searched once, down the chain from the largest
    searched = []

    def counted(q, stair=None):
        searched.append(q.n)
        return zcl_search(q, stair)

    monkeypatch.setattr(cache_module, "zcl_search", counted)
    assert failures(run_suites(["zcl", "bounds"], t_max=4)) == []
    assert searched == list(range(30, 5, -1))


def test_import_leaves_pool_and_cli_unloaded():
    # `import w23` loads no submodule; the entry point loads what its commands
    # share, but not the bounds (only `w23 bounds` and `table tc` import them)
    # nor the suites and their oracles (only `w23 verify`).  Only a real pool
    # imports multiprocessing and concurrent.futures, and only csv output
    # imports csv; the package's records are named tuples and its rational
    # edge is integer
    src = str(Path(zcl_module.__file__).resolve().parents[1])
    cli_modules = ["cache", "cli", "groebner", "gseries", "poly", "quotient", "zcl"]
    for module, loaded in (("w23", []), ("w23.cli", [f"w23.{m}" for m in cli_modules])):
        probe = (
            f"import sys, {module}; "
            "print('multiprocessing' in sys.modules, 'concurrent.futures' in sys.modules, "
            "sorted(m for m in sys.modules if m.startswith('w23.')), "
            "[m for m in ('dataclasses', 'inspect', 'fractions', 'csv') if m in sys.modules])"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == f"False False {loaded} []\n", module


# the public names of the package
PACKAGE_NAMES = [
    "BoundsRow", "GradedPiece", "GroebnerBasis", "Heights", "ONE", "Poly",
    "QuotientRing", "SMALL_N_ZCL", "TcBand", "TensorElement", "W2", "W3", "ZERO",
    "ZclResult", "basis_for", "bounds_row", "brute_heights", "buchberger",
    "build_quotient", "exactness_established", "exceptional_degrees", "g_explicit",
    "g_recurrence", "graded_piece", "height_z_w2", "heights_closed_form", "ideal_member",
    "lucas_binom_mod2", "normal_form", "poly_text", "reduce_basis", "tc_table_rows",
    "w3_ideal_member", "witness", "z", "zcl_closed_form", "zcl_search",
    "zero_divisor_product_nonzero",
]


def test_package_names_resolve_to_their_home_modules():
    import importlib

    import w23

    assert w23.__all__ == PACKAGE_NAMES
    assert set(PACKAGE_NAMES) <= set(dir(w23))
    seen = []
    for module, names in w23._EXPORTS:
        home = importlib.import_module(f"w23.{module}")
        for name in names:
            value = getattr(w23, name)
            assert value is getattr(home, name), name
            # a class or function is listed under the module that defines it
            assert getattr(value, "__module__", home.__name__) == home.__name__, name
            seen.append(name)
    assert sorted(seen) == PACKAGE_NAMES
    with pytest.raises(AttributeError):
        w23.no_such_name
    from w23 import cache

    assert cache is sys.modules["w23.cache"]


def test_cli_pool_counts_only_missing_n(monkeypatch, tmp_path, capsys):
    pool = _RecordingPool()
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    cache_dir = str(tmp_path / "cache")
    assert main(["zcl-range", "6", "8", "--jobs", "64", "--cache-dir", cache_dir]) == 0
    assert main(["zcl-range", "6", "9", "--jobs", "64", "--cache-dir", cache_dir]) == 0
    assert main(["zcl-range", "6", "14", "--jobs", "64", "--format", "csv"]) == 0
    assert pool.processes == [3, 8]  # 6..9 had only n=9 missing: no pool
    assert capsys.readouterr().out.endswith("14,16,15,1\n")


def test_per_n_walk_scans_every_cell_it_tests(monkeypatch):
    # a search of one ring seeds its own staircase, which answers no cell:
    # every cell the walk tests is scanned, so the per-n walk stays the
    # oracle for the chained sweep
    tested, scanned = [], []

    def counted(calls, f):
        def wrapper(q, beta, gamma, *rest):
            calls.append((q.n, beta, gamma))
            return f(q, beta, gamma, *rest)

        return wrapper

    monkeypatch.setattr(zcl_module, "_nonzero", counted(tested, zcl_module._nonzero))
    monkeypatch.setattr(
        zcl_module,
        "zero_divisor_product_nonzero",
        counted(scanned, zero_divisor_product_nonzero),
    )
    for n in (*range(6, 255), 1022, 1408, 1535):
        tested.clear()
        scanned.clear()
        zcl_search(build_quotient(n))
        assert tested and tested == scanned, n


@pytest.fixture(scope="module")
def per_n_6_254():
    """The per-n walk, on its own staircase: the oracle for the chained sweep."""
    return {n: zcl_search(build_quotient(n)) for n in range(6, 255)}


def test_chained_sweep_matches_per_n_walk(per_n_6_254, monkeypatch):
    # the per-n walk tests 6,648 cells on 6..254; the chain answers most of
    # them, and the sweep scans about 1,293
    cells = []

    def counted(q, beta, gamma):
        cells.append((q.n, beta, gamma))
        return zero_divisor_product_nonzero(q, beta, gamma)

    monkeypatch.setattr(zcl_module, "zero_divisor_product_nonzero", counted)
    results = zcl_results(range(6, 255))
    assert list(results) == list(range(6, 255))
    assert results == per_n_6_254
    assert len(cells) <= 3000, len(cells)


def test_chain_points_the_walk_at_its_row_ends(per_n_6_254, monkeypatch):
    # each row end probes first where the rings above left the row open, and
    # each column top probes first the newest top the rings above read:
    # 6..254 scans 1,293 cells and fills 28,623 memo slots (1,807 and 61,555
    # without them)
    cells, filled = [], []

    def counted_cell(q, beta, gamma):
        cells.append((q.n, beta, gamma))
        return zero_divisor_product_nonzero(q, beta, gamma)

    def counted_search(q, stair):
        res = zcl_search(q, stair)
        filled.append(sum(got is not None for row in q._rows.values() for got in row))
        return res

    monkeypatch.setattr(zcl_module, "zero_divisor_product_nonzero", counted_cell)
    monkeypatch.setattr(cache_module, "zcl_search", counted_search)
    assert zcl_results(range(6, 255)) == per_n_6_254
    assert len(cells) <= 1700, len(cells)
    assert sum(filled) < 40000, sum(filled)


def test_chain_runs_across_stored_gaps(per_n_6_254, tmp_path):
    for n in (20, 100, 101, 200):
        cache_module.store(tmp_path, n, per_n_6_254[n])
    assert zcl_results(range(6, 255), cache_dir=tmp_path) == per_n_6_254
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"zcl-{n}.json" for n in range(6, 255)
    )


def test_round_robin_chains_match_per_n_walk(per_n_6_254, monkeypatch):
    # two workers run in this process: the stride-2 chains of 6..254
    pool = _RecordingPool()
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    chains = []

    def recorded(ns, cache_dir):
        chains.append(ns)
        return sweep(ns, cache_dir)

    sweep = cache_module._sweep
    monkeypatch.setattr(cache_module, "_sweep", recorded)
    assert zcl_results(range(6, 255), jobs=8) == per_n_6_254
    assert pool.processes == [2]
    assert chains == [list(range(254, 5, -2)), list(range(253, 5, -2))]


def test_chain_must_run_down():
    for ns in ([20, 21], [21, 21], [30, 22, 25]):
        with pytest.raises(ValueError):
            cache_module._sweep(ns, None)


@settings(max_examples=40)
@given(data=st.data())
def test_vanishing_runs_down_the_chain(data):
    # what a chained sweep relies on: for m > n, I_m lies in I_n, so a cell
    # that vanishes in W_m vanishes in W_n, and (the same implication read
    # the other way) a cell nonzero in W_n is nonzero in W_m; the cells are
    # drawn within W_n's caps
    n = data.draw(st.integers(6, 149), label="n")
    m = data.draw(st.integers(n + 1, 150), label="m")
    qn, qm = build_quotient(n), build_quotient(m)
    h2, h3 = brute_heights(qn)
    cells = st.tuples(st.integers(0, _zcap(h2)), st.integers(0, _zcap(h3)))
    for beta, gamma in data.draw(st.lists(cells, min_size=1, max_size=8), label="cells"):
        in_n = zero_divisor_product_nonzero(qn, beta, gamma)
        in_m = zero_divisor_product_nonzero(qm, beta, gamma)
        assert in_m or not in_n, (n, m, beta, gamma)


@settings(max_examples=100)
@given(data=st.data())
def test_cell_test_matches_graded_pieces(data):
    # the packed-row cell test, with its staircase-narrowed scan, against
    # the tensor-square oracle's pieces over the same scanned degrees, on
    # cells drawn within the caps the search walks
    n = data.draw(st.integers(6, 60), label="n")
    q = build_quotient(n)
    h2, h3 = brute_heights(q)
    cells = st.tuples(st.integers(0, _zcap(h2)), st.integers(0, _zcap(h3)))
    for beta, gamma in data.draw(st.lists(cells, min_size=1, max_size=8), label="cells"):
        degrees = _scan_degrees(q, beta, gamma)
        pieces = any(graded_piece(q, beta, gamma, r).element for r in degrees)
        assert zero_divisor_product_nonzero(q, beta, gamma) == pieces, (n, beta, gamma)
        # the cap probe of zcl._row_end: the first piece alone, the balanced
        # one, is nonzero exactly when the oracle's piece at that degree is
        first = next(zcl_module._pieces(q, beta, gamma), None)
        assert (first is None) == (not degrees), (n, beta, gamma)
        if first is not None:
            r0, terms = first
            balanced = bool(graded_piece(q, beta, gamma, r0).element)
            assert r0 == degrees[0], (n, beta, gamma, r0)
            assert zcl_module._piece_nonzero(q.nf_bits, beta, gamma, terms) == balanced


@settings(max_examples=100)
@given(data=st.data())
def test_witness_is_the_least_pair_of_the_first_nonzero_piece(data):
    # the witness, read off the cell test's pruned pieces, against the full
    # Lucas scan: graded_piece is zero at every scanned degree before the
    # witness's r, and the witness is the lex-least pair of the piece at r
    n = data.draw(st.integers(6, 60), label="n")
    q = build_quotient(n)
    h2, h3 = brute_heights(q)
    cells = st.tuples(st.integers(0, _zcap(h2)), st.integers(0, _zcap(h3)))
    cells = cells.filter(lambda cell: zero_divisor_product_nonzero(q, *cell))
    for beta, gamma in data.draw(st.lists(cells, min_size=1, max_size=8), label="cells"):
        r, pair = witness(q, beta, gamma)
        degrees = _scan_degrees(q, beta, gamma)
        assert r in degrees, (n, beta, gamma, r)
        for before in degrees[: degrees.index(r)]:
            assert not graded_piece(q, beta, gamma, before).element, (n, beta, gamma, before)
        assert pair == min(graded_piece(q, beta, gamma, r).element.pairs), (n, beta, gamma)


def test_real_pool_matches_serial_sweep(tmp_path):
    serial = zcl_results(range(6, 63))
    assert zcl_results(range(6, 63), cache_dir=tmp_path, jobs=2) == serial
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"zcl-{n}.json" for n in range(6, 63)
    )
