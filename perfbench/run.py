"""The w23 benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload zcl-edge --seed 0 --seconds 45 --trace 0

Run from the root of a source checkout; w23 is imported from ./src, never
from an installed copy.  Every job is a fresh `w23` process started the way
the console script starts it, one at a time (a closed loop with one client).
A round runs the workload's jobs once; rounds repeat for about --seconds.

--trace 0 reports the end-to-end metrics, each a median over the run:
wall_s, a round's wall time; setup_s, the time to start the interpreter and
import w23, scaled to a reference start-up time (see SETUP_REFERENCE);
peak_rss_mb, the largest job's peak RSS in a round.
--trace 1 alternates untraced rounds with rounds whose jobs run under
perfbench/tracer.py, and reports the per-layer metrics of the traced rounds
plus the tracing overhead.  --smoke shrinks every workload to a few seconds.

Every answer is checked against an independent derivation.  The last line
of stdout is one JSON object {correct, attempted, failed, metrics}; the exit
status is 1 when any answer was wrong or any job raised, 2 on a usage error
or when the checkout holds no w23 sources.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracer import SUITE_NAMES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
TRACER = Path(__file__).resolve().parent / "tracer.py"

CONSOLE_SCRIPT = "import sys; from w23.cli import main; sys.exit(main())"
SETUP_PROBES = 5  # per round, so that set-up is sampled across the whole run

# On a shared machine the time to start an interpreter drifts by up to 1.6x
# from one minute to the next.  So each set-up probe runs between two bare
# interpreter starts (`python -c pass`), and its time is multiplied by
# nominal / (mean of those two).  The scaled time reads as seconds on a
# machine whose bare start takes the nominal time (about its time on the
# 2-vCPU VM this benchmark was defined on), and the spread of its median over
# runs of 45 s there fell from 0.14-0.23 unscaled to 0.02-0.06.
SETUP_REFERENCE = ("pass", 0.06)
JOB_TIMEOUT_S = 150

# Each zcl workload: the n of seed 0, and the band [lo, hi] and number of
# strata from which other seeds draw one n per stratum.
ZCL_BANDS = {
    # Level 8 is n = 255..510.  On 385..448 (closed-form cases 4 to 6) the
    # staircase walk takes 1.3-3.4 s against a ring build of at most 0.14 s.
    "zcl-mid": ([400, 440], (385, 448), 5),
    # The end of level 10: rings of 245k-305k monomials, built in 1.3-1.9 s,
    # while the walk takes 0.1-0.4 s.
    "zcl-edge": ([1408, 1535], (1400, 1535), 3),
}
SMOKE_NS = (21, 22)


@dataclass
class Job:
    """One w23 command and the check of its answer."""

    argv: list[str]
    n: int | None = None  # zcl jobs: the n whose zcl is computed


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    attempted: int
    problems: list[str]  # one line per wrong answer or failed job
    trace: dict | None = None


def stratified(rng: random.Random, lo: int, hi: int, strata: int) -> list[int]:
    """One n drawn from each of `strata` equal slices of [lo, hi].

    The cost of a job rises with n across both bands, so one draw per slice
    keeps the work of a round nearly the same for every seed.
    """
    edges = [lo + round(i * (hi - lo + 1) / strata) for i in range(strata + 1)]
    return [rng.randrange(a, b) for a, b in zip(edges, edges[1:])]


def zcl_ns(workload: str, seed: int, smoke: bool) -> list[int]:
    if smoke:
        return list(SMOKE_NS)
    fixed, (lo, hi), strata = ZCL_BANDS[workload]
    return fixed if seed == 0 else stratified(random.Random(seed), lo, hi, strata)


def make_jobs(workload: str, seed: int, smoke: bool) -> list[Job]:
    if workload == "verify-t7":  # no seeded input: the suites are fixed
        t_max = "4" if smoke else "7"
        return [Job(["verify", "all", "--t-max", t_max, "--format", "json", "--jobs", "1"])]
    return [
        Job(["zcl", str(n), "--witness", "--format", "json", "--jobs", "1"], n)
        for n in zcl_ns(workload, seed, smoke)
    ]


# zcl-mid is not listed in BENCHMARK.json: on a shared 2-vCPU machine its
# run-to-run spread of wall_s reached the largest bound allowed.  It stays
# runnable so that a traced run can show the walk dominating mid-level n.
WORKLOADS = (*ZCL_BANDS, "verify-t7")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("W23_CACHE_DIR", None)
    return env


def spawn(argv: list[str]) -> tuple[int, bytes, float, float, float]:
    """Run argv to completion: (exit status, stdout, start, end, peak RSS in MB).

    start and end are perf_counter readings, comparable with the child's own.
    """
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=_env(), cwd=ROOT)
    timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, start, perf_counter(), usage.ru_maxrss / 1024


def check_zcl(job: Job, status: int, out: bytes, expected: int) -> list[str]:
    """The searched zcl must equal the closed form and the witness must realise it."""
    if status != 0:
        return [f"zcl {job.n}: exit status {status}"]
    try:
        payload = json.loads(out)
        got, w = payload["zcl"], payload["witness"]
        realised = w["beta"] + w["gamma"]
        answered = payload["n"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"zcl {job.n}: unreadable output ({exc})"]
    if answered != job.n or got != expected or realised != expected:
        return [f"zcl {job.n}: expected {expected}, got {got} (witness {realised})"]
    return []


def check_verify(status: int, out: bytes) -> tuple[int, list[str]]:
    """(checks attempted, failures); a crash counts as one failed check."""
    try:
        checks = json.loads(out)
        bad = [c["name"] for c in checks if not c["ok"]]
    except (ValueError, KeyError, TypeError) as exc:
        return 1, [f"verify: unreadable output, exit status {status} ({exc})"]
    if status != (1 if bad else 0):
        bad.append(f"verify: exit status {status} with {len(bad)} failed checks")
    return len(checks), bad


def run_job(job: Job, tmp: Path, traced: bool, expected: dict[int, int]) -> Outcome:
    argv = list(job.argv)
    if job.n is not None:
        cache_dir = Path(tempfile.mkdtemp(dir=tmp, prefix="cache-"))
        argv += ["--cache-dir", str(cache_dir)]
    trace_path = tmp / "trace.json"
    if traced:
        extra = ["--witness-check"] if job.n is not None else []
        cmd = [sys.executable, str(TRACER), str(trace_path), *extra, "--", *argv]
    else:
        cmd = [sys.executable, "-c", CONSOLE_SCRIPT, *argv]
    status, out, start, end, rss = spawn(cmd)
    trace = None
    if traced and trace_path.is_file():
        trace = json.loads(trace_path.read_text())
        trace["started_at"], trace["ended_at"] = start, end
        trace_path.unlink()
    if job.n is None:
        attempted, problems = check_verify(status, out)
    else:
        shutil.rmtree(cache_dir, ignore_errors=True)
        attempted, problems = 1, check_zcl(job, status, out, expected[job.n])
        if trace is not None and not trace.get("witness_in_piece"):
            problems.append(f"zcl {job.n}: witness pair not in its graded piece")
    if traced and trace is None:
        problems.append(f"{' '.join(job.argv[:2])}: no trace written")
    return Outcome(end - start, rss, attempted, problems, trace)


@dataclass
class Round:
    wall_s: float
    rss_mb: float
    outcomes: list[Outcome]


def run_round(jobs: list[Job], tmp: Path, traced: bool, expected: dict[int, int]) -> Round:
    start = perf_counter()
    outcomes = [run_job(job, tmp, traced, expected) for job in jobs]
    return Round(perf_counter() - start, max(o.rss_mb for o in outcomes), outcomes)


def timed(code: str) -> float:
    """Wall time of a fresh interpreter running `code`."""
    status, _, start, end, _ = spawn([sys.executable, "-c", code])
    if status != 0:
        raise RuntimeError(f"python -c {code!r} failed")
    return end - start


def scaled(times: list[float], refs: list[float], nominal: float) -> list[float]:
    """Each times[i] scaled by the mean of refs[i] and refs[i + 1], the
    reference runs just before and after it."""
    if len(refs) != len(times) + 1:
        raise ValueError("one reference run is needed before and after each time")
    return [t * nominal * 2 / (a + b) for t, a, b in zip(times, refs, refs[1:])]


def setup_times(probes: int) -> tuple[list[float], list[float]]:
    """Times to start the interpreter and import w23, one per probe: unscaled
    and scaled."""
    code, nominal = SETUP_REFERENCE
    refs, times = [timed(code)], []
    for _ in range(probes):
        times.append(timed("import w23"))
        refs.append(timed(code))
    return times, scaled(times, refs, nominal)


# ---------------------------------------------------------------- per layer


# name, unit, better, trace source (span or counter), end-to-end metric it
# should move, workloads where it shows.
PER_LAYER = [
    ("gseries.g_s", "s", "lower", "gseries.g", "wall_s (predicted negligible)", "zcl-edge"),
    ("groebner.basis_s", "s", "lower", "groebner.basis_for", "wall_s", "zcl-edge"),
    ("groebner.lm_count", "count", "lower", "groebner.basis_for", "wall_s", "zcl-edge"),
    ("groebner.buchberger_s", "s", "lower", "groebner.buchberger", "wall_s (oracle)", "verify-t7"),
    ("groebner.division_s", "s", "lower", "groebner.normal_form", "wall_s (oracle)", "verify-t7"),
    ("quotient.ring_s", "s", "lower", "quotient.ring", "wall_s, peak_rss_mb", "zcl-edge, verify-t7"),
    ("quotient.dim", "count", "lower", "quotient.ring", "wall_s, peak_rss_mb", "zcl-edge, verify-t7"),
    ("quotient.rings_built", "count", "lower", "quotient.ring", "peak_rss_mb, wall_s", "verify-t7"),
    ("quotient.heights_s", "s", "lower", "quotient.heights", "wall_s", "zcl-edge, verify-t7"),
    ("quotient.nf_calls", "count", "lower", "quotient.nf_set", "wall_s", "zcl-mid, zcl-edge"),
    ("quotient.nf_s", "s", "lower", "quotient.nf_set", "wall_s", "zcl-mid, zcl-edge"),
    ("quotient.rss_ring_mb", "MB", "lower", "quotient.ring", "peak_rss_mb", "zcl-edge"),
    ("zcl.rss_search_mb", "MB", "lower", "zcl.search", "peak_rss_mb", "zcl-edge"),
    ("zcl.search_s", "s", "lower", "zcl.search", "wall_s", "zcl-mid, verify-t7"),
    ("zcl.search_self_s", "s", "lower", "zcl.search", "wall_s", "zcl-mid, verify-t7"),
    ("zcl.cells_tested", "count", "lower", "zcl.cell", "wall_s", "zcl-mid"),
    ("zcl.cells_vanishing", "count", "lower", "zcl.cell", "wall_s", "zcl-mid"),
    ("zcl.useful_ratio", "ratio", "higher", "zcl.cell", "wall_s", "zcl-mid"),
    ("cache.store_s", "s", "lower", "cache.store", "wall_s (predicted unmoved)", "zcl-mid, zcl-edge"),
    ("cache.load_s", "s", "lower", "cache.load", "wall_s (predicted unmoved)", "zcl-mid, zcl-edge"),
    ("cli.self_s", "s", "lower", "cli.main", "wall_s", "all"),
    ("cli.start_s", "s", "lower", "cli.main", "wall_s, setup_s", "all"),
    ("cli.exit_s", "s", "lower", "cli.main", "wall_s", "zcl-edge, verify-t7"),
]
for _suite in SUITE_NAMES:
    _key, _span = _suite.replace("-", "_"), f"verify.{_suite}"
    PER_LAYER += [
        (f"verify.{_key}_s", "s", "lower", _span, "wall_s", "verify-t7"),
        (f"verify.{_key}_checks", "count", "higher", _span, "wall_s", "verify-t7"),
        (f"verify.rss_after_{_key}_mb", "MB", "lower", _span, "peak_rss_mb", "verify-t7"),
    ]
PER_LAYER.append(("trace.overhead_s", "s", "lower", None, "-", "all"))

# Metrics whose layer a workload does not route through by design: these
# read 0 there.  Any other metric whose source saw no call is left out, so
# that a change which stops routing through a wrapped function shows.
IDLE = {
    **dict.fromkeys(ZCL_BANDS, ("verify.", "groebner.buchberger_s", "groebner.division_s")),
    "verify-t7": ("cache.",),
}


def job_layers(trace: dict) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics of one traced job, and the number of calls seen per source."""
    spans, counters, notes = trace["spans"], trace["counters"], trace["notes"]
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    exclusive: dict[str, float] = {}
    search_self = 0.0
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        exclusive[name] = exclusive.get(name, 0.0) + dur - s["child_s"]
        if name == "zcl.search":
            search_self += dur - s["child_s"] - s["counted"].get("quotient.nf_set", 0.0)
    for name, c in counters.items():
        calls[name] = calls.get(name, 0) + c["calls"]

    main = next((s for s in spans if s["name"] == "cli.main"), None)

    def counter(name, key):
        return counters.get(name, {}).get(key, 0)

    m = {
        "gseries.g_s": counter("gseries.g", "seconds"),
        "groebner.basis_s": total.get("groebner.basis_for", 0.0),
        "groebner.lm_count": notes.get("lm_count", 0),
        "groebner.buchberger_s": total.get("groebner.buchberger", 0.0),
        "groebner.division_s": counter("groebner.normal_form", "seconds"),
        "quotient.ring_s": total.get("quotient.ring", 0.0),
        "quotient.dim": notes.get("dim", 0),
        "quotient.rings_built": calls.get("quotient.ring", 0),
        "quotient.heights_s": total.get("quotient.heights", 0.0),
        "quotient.nf_calls": counter("quotient.nf_set", "calls"),
        "quotient.nf_s": counter("quotient.nf_set", "seconds"),
        "quotient.rss_ring_mb": notes.get("rss_ring_mb", 0.0),
        "zcl.rss_search_mb": notes.get("rss_search_mb", 0.0),
        "zcl.search_s": exclusive.get("zcl.search", 0.0),
        "zcl.search_self_s": search_self,
        "zcl.cells_tested": counter("zcl.cell", "calls"),
        "zcl.cells_vanishing": counter("zcl.cell", "flagged"),
        "cache.store_s": total.get("cache.store", 0.0),
        "cache.load_s": total.get("cache.load", 0.0),
        "cli.self_s": exclusive.get("cli.main", 0.0),
        "cli.start_s": main["start"] - trace["started_at"] if main else 0.0,
        "cli.exit_s": trace["ended_at"] - trace["finished_at"],
    }
    for suite in SUITE_NAMES:
        key = suite.replace("-", "_")
        m[f"verify.{key}_s"] = total.get(f"verify.{suite}", 0.0)
        m[f"verify.{key}_checks"] = notes.get(f"{key}_checks", 0)
        m[f"verify.rss_after_{key}_mb"] = notes.get(f"rss_after_{key}_mb", 0.0)
    return m, calls


def round_layers(outcomes: list[Outcome]) -> tuple[dict[str, float], dict[str, int]]:
    """Sum a traced round's jobs over n (peak memory: the largest job)."""
    merged: dict[str, float] = {}
    calls: dict[str, int] = {}
    for o in outcomes:
        m, c = job_layers(o.trace)
        for k, v in m.items():
            merged[k] = max(merged.get(k, 0), v) if k.endswith("_mb") else merged.get(k, 0) + v
        for k, v in c.items():
            calls[k] = calls.get(k, 0) + v
    tested = merged["zcl.cells_tested"]
    merged["zcl.useful_ratio"] = (tested - merged["zcl.cells_vanishing"]) / tested if tested else 0.0
    return merged, calls


def layer_metrics(workload: str, traced: list[Round], untraced: list[Round]) -> dict[str, float]:
    per_round = [round_layers(r.outcomes) for r in traced]
    calls = per_round[-1][1]
    idle = IDLE[workload]
    out: dict[str, float] = {}
    for name, _unit, _better, source, _moves, _on in PER_LAYER:
        if source is None:
            continue
        if not calls.get(source) and not name.startswith(idle):
            continue  # not routed through the wrapped function: absent, not 0
        out[name] = statistics.median(m[name] for m, _ in per_round)
    traced_wall = statistics.median(r.wall_s for r in traced)
    out["trace.overhead_s"] = traced_wall - statistics.median(r.wall_s for r in untraced)
    return out


# The workload rationale: the share of the untraced wall time that the named
# layer metrics should hold on the program this benchmark was defined on.
RATIONALE = {
    "zcl-mid": [(("zcl.search_s",), ">=", 0.80)],
    "zcl-edge": [
        (("quotient.ring_s", "quotient.heights_s"), ">=", 0.60),
        (("zcl.search_s",), "<=", 0.20),
    ],
    "verify-t7": [(("verify.zcl_s", "verify.quotient_s"), ">=", 0.80)],
}


def rationale_lines(workload: str, m: dict[str, float], wall: float, traced_wall: float) -> list[str]:
    """Each rationale share of `wall` (the untraced rounds' median), checked
    against its limit; then of the traced wall and of the time inside w23.cli.main."""
    inside = traced_wall - m.get("cli.start_s", 0.0) - m.get("cli.exit_s", 0.0)
    lines = []
    for names, op, limit in RATIONALE[workload]:
        part = sum(m.get(n, 0.0) for n in names)
        ok = part / wall >= limit if op == ">=" else part / wall <= limit
        lines.append(
            f"dominant layer: {' + '.join(names)} = {part / wall:.1%} of untraced wall"
            f" ({op} {limit:.0%}: {'holds' if ok else 'DOES NOT HOLD'}),"
            f" {part / traced_wall:.1%} of traced wall,"
            f" {part / inside:.1%} of the time inside w23.cli.main"
        )
    return lines


# ---------------------------------------------------------- command line


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for testing the benchmark")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def measure(args, jobs: list[Job], tmp: Path, expected: dict[int, int]):
    """Rounds for about --seconds, and set-up times probed before each untraced
    round; traced runs alternate untraced and traced rounds."""
    rounds: dict[bool, list[Round]] = {False: [], True: []}
    setup_raw: list[float] = []
    setup_scaled: list[float] = []
    deadline = perf_counter() + args.seconds
    traced = False
    while True:
        start = perf_counter()
        if not args.trace:
            raw, scaled_times = setup_times(SETUP_PROBES)
            setup_raw += raw
            setup_scaled += scaled_times
        r = run_round(jobs, tmp, traced, expected)
        rounds[traced].append(r)
        if any(o.problems for o in r.outcomes):
            break
        if args.trace:
            traced = not traced
            if not rounds[True]:
                continue
        # Start another round only if at least half of one fits, so that a
        # run ends within half a round of --seconds.
        if deadline - perf_counter() < (perf_counter() - start) / 2:
            break
    return rounds[False], rounds[True], (setup_raw, setup_scaled)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "w23" / "__init__.py").is_file():
        print(f"no w23 sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from w23.zcl import zcl_closed_form

    jobs = make_jobs(args.workload, args.seed, args.smoke)
    expected = {job.n: zcl_closed_form(job.n) for job in jobs if job.n is not None}
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK, prefix="run-"))
    try:
        untraced, traced, setup = measure(args, jobs, tmp, expected)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    outcomes = [o for r in untraced + traced for o in r.outcomes]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(len(o.problems) for o in outcomes)
    for o in outcomes:
        for problem in o.problems:
            print(f"WRONG {problem}")
    ns = " ".join(str(j.n) for j in jobs if j.n is not None)
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} job(s) {ns}".rstrip())
    print(f"rounds: {len(untraced)} untraced, {len(traced)} traced; jobs one at a time, 1 client")
    print(f"fail_ratio {failed / attempted:.6f} ({failed} of {attempted})")

    units = {name: unit for name, unit, *_ in PER_LAYER}
    if args.trace:
        metrics = layer_metrics(args.workload, traced, untraced) if not failed else {}
        if traced:
            trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps([o.trace for o in traced[-1].outcomes]))
            print(f"spans of the last traced round: {trace_file.relative_to(ROOT)}")
        if metrics and not args.smoke:
            wall = statistics.median(r.wall_s for r in untraced)
            traced_wall = statistics.median(r.wall_s for r in traced)
            print("\n".join(rationale_lines(args.workload, metrics, wall, traced_wall)))
    else:
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        raw_setup, scaled_setup = setup
        print(f"setup_s unscaled median {statistics.median(raw_setup):.6f} s")
        metrics = {
            "wall_s": statistics.median(r.wall_s for r in untraced),
            "setup_s": statistics.median(scaled_setup),
            "peak_rss_mb": statistics.median(r.rss_mb for r in untraced),
        }
    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6f} {units[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
