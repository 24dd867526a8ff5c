"""Tests of the benchmark's own code.

    python3 -m pytest perfbench

The smoke tests run every workload path, traced runs included, at tiny
sizes (n = 21, 22 and verify --t-max 4) in a few seconds.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import run
import stats

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_summary_matches_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, med, q3 = statistics.quantiles(values, n=4)
    s = stats.summarize(values)
    assert (s.q1, s.median, s.q3) == (q1, med, q3)
    assert s.spread == pytest.approx((q3 - q1) / med)


def test_summary_needs_two_values():
    with pytest.raises(ValueError):
        stats.summarize([1.0])


@pytest.mark.parametrize(
    "parent, change, better, bound, expected",
    [
        ([10.0, 10.0, 10.0], [11.4, 11.4], "lower", 0.15, False),
        ([10.0, 10.0, 10.0], [11.6, 11.6], "lower", 0.15, True),
        ([10.0, 10.0, 10.0], [5.0, 5.0], "lower", 0.15, False),
        ([10.0, 10.0, 10.0], [8.6, 8.6], "higher", 0.15, False),
        ([10.0, 10.0, 10.0], [8.4, 8.4], "higher", 0.15, True),
    ],
)
def test_regression_bound(parent, change, better, bound, expected):
    assert stats.regressed(parent, change, bound, better) is expected


def test_regression_bound_rejects_unknown_direction():
    with pytest.raises(ValueError):
        stats.worse_by(1.0, 2.0, "faster")


def test_regression_bound_on_a_metric_that_reads_zero():
    assert stats.worse_by(0.0, 0.0, "lower") == 0.0
    assert stats.regressed([0.0, 0.0], [0.5, 0.5], 0.25, "lower")
    assert not stats.regressed([0.0, 0.0], [0.5, 0.5], 0.25, "higher")


def test_seed_zero_is_the_fixed_sets_and_other_seeds_stay_in_band():
    assert run.zcl_ns("zcl-mid", 0, False) == [400, 440]
    assert run.zcl_ns("zcl-edge", 0, False) == [1408, 1535]
    for workload, (_, (lo, hi), strata) in run.ZCL_BANDS.items():
        for seed in range(1, 30):
            ns = run.zcl_ns(workload, seed, False)
            assert ns == run.zcl_ns(workload, seed, False)
            assert len(ns) == strata and ns == sorted(ns)
            assert all(lo <= n <= hi for n in ns)


def test_strata_cover_the_band():
    rng = random.Random(5)
    seen = set()
    for _ in range(2000):
        seen.update(run.stratified(rng, 385, 448, 4))
    assert seen == set(range(385, 449))


def test_benchmark_json_matches_the_runner():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in run.PER_LAYER
    ]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25


def test_wrong_answers_are_caught():
    job = run.Job(["zcl", "21"], 21)
    good = json.dumps({"n": 21, "zcl": 21, "witness": {"beta": 15, "gamma": 6}}).encode()
    assert run.check_zcl(job, 0, good, 21) == []
    assert run.check_zcl(job, 0, good, 22)
    assert run.check_zcl(job, 1, good, 21)
    assert run.check_zcl(job, 0, b"Traceback", 21)
    checks = json.dumps([{"name": "a", "ok": True}, {"name": "b", "ok": False}]).encode()
    assert run.check_verify(1, checks) == (2, ["b"])
    assert run.check_verify(0, checks)[1] == ["b", "verify: exit status 0 with 1 failed checks"]
    attempted, problems = run.check_verify(1, b"")
    assert attempted == 1 and len(problems) == 1


def _fake_trace(with_cells: bool) -> dict:
    spans = [
        {"name": "cli.main", "id": 0, "parent": None, "start": 1.0, "end": 4.0,
         "child_s": 2.5, "counted": {}},
        {"name": "quotient.ring", "id": 1, "parent": 0, "start": 1.1, "end": 1.6,
         "child_s": 0.0, "counted": {}},
        {"name": "zcl.search", "id": 2, "parent": 0, "start": 1.6, "end": 3.6,
         "child_s": 0.5, "counted": {"quotient.nf_set": 0.25}},
        {"name": "quotient.heights", "id": 3, "parent": 2, "start": 1.6, "end": 2.1,
         "child_s": 0.0, "counted": {}},
    ]
    counters = {"quotient.nf_set": {"calls": 7, "seconds": 0.3, "flagged": 0}}
    if with_cells:
        counters["zcl.cell"] = {"calls": 10, "seconds": 1.0, "flagged": 4}
    return {"spans": spans, "counters": counters, "notes": {"dim": 50},
            "started_at": 0.9, "finished_at": 4.1, "ended_at": 4.5}


def _traced_round(trace: dict) -> run.Round:
    return run.Round(3.6, 20.0, [run.Outcome(3.6, 20.0, 1, [], trace)])


def test_layer_metrics_from_spans():
    m = run.layer_metrics("zcl-mid", [_traced_round(_fake_trace(True))], [run.Round(3.0, 19.0, [])])
    assert m["zcl.search_s"] == pytest.approx(1.5)  # heights is a child span
    assert m["zcl.search_self_s"] == pytest.approx(1.25)
    assert m["quotient.heights_s"] == pytest.approx(0.5)
    assert m["zcl.cells_tested"] == 10 and m["zcl.cells_vanishing"] == 4
    assert m["zcl.useful_ratio"] == pytest.approx(0.6)
    assert m["cli.start_s"] == pytest.approx(0.1) and m["cli.exit_s"] == pytest.approx(0.4)
    assert m["trace.overhead_s"] == pytest.approx(0.6)
    assert m["verify.zcl_s"] == 0  # not routed on this workload by design


def test_unrouted_wrapped_function_is_absent_not_zero():
    m = run.layer_metrics("zcl-mid", [_traced_round(_fake_trace(False))], [run.Round(3.0, 19.0, [])])
    for name in ("zcl.cells_tested", "zcl.cells_vanishing", "zcl.useful_ratio", "cache.store_s"):
        assert name not in m
    assert "quotient.nf_calls" in m


def test_spread_check_covers_every_bounded_metric(tmp_path, capsys):
    def line(wall, setup):
        metrics = {"wall_s": wall, "setup_s": setup, "peak_rss_mb": 100.0}
        return json.dumps({"correct": True, "attempted": 1, "failed": 0,
                           "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}})

    steady = tmp_path / "steady.jsonl"
    steady.write_text("\n".join(line(10.0 + i / 100, 0.1 + i / 1000) for i in range(10)))
    assert stats.main([str(steady)]) == 0
    wide_setup = tmp_path / "wide.jsonl"
    wide_setup.write_text("\n".join(line(10.0, 0.1 * (1 + i % 2)) for i in range(10)))
    assert stats.main([str(wide_setup)]) == 1
    assert "setup_s" in next(l for l in capsys.readouterr().out.splitlines() if "OUT OF BOUND" in l)


def test_times_are_scaled_by_the_reference_runs_around_them():
    assert run.scaled([2.0, 3.0], [0.1, 0.3, 0.2], 0.2) == pytest.approx([2.0, 2.4])
    with pytest.raises(ValueError):
        run.scaled([2.0, 3.0], [0.1, 0.3], 0.2)


def test_rationale_is_a_share_of_the_untraced_wall():
    m = {"zcl.search_s": 8.5, "cli.start_s": 0.5, "cli.exit_s": 0.5}
    (line,) = run.rationale_lines("zcl-mid", m, 10.0, 11.0)
    assert "= 85.0% of untraced wall (>= 80%: holds)" in line
    assert "77.3% of traced wall" in line and "85.0% of the time inside" in line
    (line,) = run.rationale_lines("zcl-mid", m, 11.0, 11.0)
    assert "DOES NOT HOLD" in line


def _bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# With --smoke the two zcl workloads run the same jobs, so only the listed
# workloads are smoke-tested.
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.01",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if trace == "1":
        assert result["metrics"]["quotient.rings_built"]["value"] >= 1
        assert result["metrics"]["zcl.cells_tested"]["value"] >= 1


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "zcl-edge", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_wrong_answer_fails_the_run(tmp_path, trace):
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE.parent / "src" / "w23", tmp_path / "src" / "w23", ignore=ignore)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    cli = tmp_path / "src" / "w23" / "cli.py"
    right = 'payload = {"n": args.n, "zcl": res.value,'
    assert right in cli.read_text()
    cli.write_text(cli.read_text().replace(right, 'payload = {"n": args.n, "zcl": res.value + 1,'))
    proc = _bench("--workload", "zcl-edge", "--seed", "1", "--seconds", "0.01", "--trace", trace,
                  "--smoke", cwd=tmp_path)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1
    assert "WRONG zcl 21" in proc.stdout
