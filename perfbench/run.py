"""Benchmark harness for p1dyn.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--out PATH]
    python3 perfbench/run.py --record

A workload run measures rounds of CLI invocations (see workloads.py) in a
closed loop for --seconds, each round in a fresh interpreter so the
library's caches start cold as they do for a CLI user, and checks every
output against perfbench/expected.json.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it is a JSON ``detail`` record
(per-round medians, upper percentiles and counts in reference and wall
seconds, failed share, seed, source line count, nproc, Python version,
spans).

``primary_s`` and ``secondary_s`` sum, over the invocations of that part
of the round, each invocation's median over the run's rounds.  Timings
are in reference seconds (see speedref.py), which factor out the host's
changing speed.  ``--trace 1`` runs one round untraced, the same round
with the library's module functions wrapped in spans, and then replays
each layer's public functions on the workload's inputs under spans.

``--all`` runs every workload untraced and traced and prints the
issue-level metrics (analyze_poly_s ... failed_share) by name and unit.
``--record`` rewrites expected.json from the current outputs; use it only
for an intended output change.

Timing uses perf_counter and peak memory uses getrusage.  Files are
written only to a temp dir under .perfbench_tmp/ (removed at exit) and to
the --out file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

sys.dont_write_bytecode = True  # the harness writes nothing into the checkout

import speedref
from workloads import (ANALYZE_MAPS, BOUNDS_D, BOUNDS_S, FRESH_PER_CALL, SWEEP_BOX,
                       WORKLOADS, replay_inputs, round_plan, sweep_maps)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
EXPECTED = HERE / "expected.json"
TMP_ROOT = ROOT / ".perfbench_tmp"

# one run must end well inside the 180 s a run may take
RUN_BUDGET_S = 170.0
SETUP_PROBES = 9

# preperiodic points of z^2 - 29/16 (acceptance criterion 1)
Z2_M29_16_PREPER = {"inf", "-1/4", "-7/4", "5/4", "1/4", "7/4", "-5/4", "3/4", "-3/4"}

END_TO_END = {"primary_s": "s", "secondary_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "orbits.enumerate_s": "s",
    "orbits.candidates_per_s": "1/s",
    "orbits.candidates": "count",
    "orbits.undecided": "count",
    "ratmap.evaluate_per_s": "1/s",
    "ratmap.reduction_profile_s": "s",
    "mapparse.parse_map_s": "s",
    "verify.ultrametric_s": "s",
    "verify.non_expansion_s": "s",
    "verify.inventory_s": "s",
    "verify.checked": "count",
    "projline.distance_support_per_s": "1/s",
    "projline.log_distance_per_s": "1/s",
    "intarith.factorize_per_s": "1/s",
    "magnitude.compare_per_s": "1/s",
    "magnitude.digit_count_per_s": "1/s",
    "bounds.bound_table_s": "s",
    "report.render_s": "s",
    "cli.batch.parallel_efficiency": "ratio",
    "bench.trace_overhead_ratio": "ratio",
}


class WorkerError(RuntimeError):
    pass


def _env(tmp: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONPYCACHEPREFIX"] = os.path.join(tmp, "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _spawn(job: dict, env: dict, timeout: float) -> dict:
    """Run one worker job in a fresh interpreter; its pool children share its session."""
    proc = subprocess.Popen([sys.executable, str(WORKER)], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, cwd=str(ROOT), start_new_session=True)
    out = None
    try:
        out, err = proc.communicate(json.dumps(job), timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:  # timed out, or the harness is being stopped
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if out is None:
        raise WorkerError(f"worker timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {err.strip()[-400:]}")
    return json.loads(out.splitlines()[-1])


def _run_round(workload: str, plan: list[dict], trace: bool, env: dict, tmp: str,
               deadline: float) -> tuple[list[dict], dict]:
    """The calls of one round, and its spans summed by name."""
    groups = [[inv] for inv in plan] if workload in FRESH_PER_CALL else [plan]
    calls, spans = [], {}
    for group in groups:
        result = _spawn({"mode": "round", "plan": group, "tmp": tmp, "trace": trace},
                        env, deadline - perf_counter())
        calls += result["calls"]
        for name, stats in result["spans"].items():
            total = spans.setdefault(name, dict.fromkeys(stats, 0))
            for k, v in stats.items():
                total[k] += v
    return calls, spans


# interpreter start plus ``import p1dyn.cli``; then the kernel, in the same process
_SETUP_PROBE = ("import time; import p1dyn.cli; t = time.perf_counter(); "
                "import speedref; print(t, speedref.measure())")


def _setup_time(env: dict) -> tuple[float, float]:
    """Wall and reference seconds from spawning an interpreter to ``import p1dyn.cli`` done.

    perf_counter is the system-wide monotonic clock, so the child's reading
    after the import is comparable with the parent's before the spawn.
    """
    env = dict(env, PYTHONPATH=os.pathsep.join([env["PYTHONPATH"], str(HERE)]))
    start = perf_counter()
    out = subprocess.run([sys.executable, "-c", _SETUP_PROBE], env=env, cwd=str(ROOT),
                         check=True, capture_output=True, text=True).stdout
    imported, kernel_s = map(float, out.split())
    return imported - start, (imported - start) * speedref.REF_S / kernel_s


def _reference(calls: list[dict]) -> float:
    return sum(c["reference_s"] for c in calls)


def _problem(workload: str, call: dict, expected: dict) -> str | None:
    """Why a call's output is wrong, or None."""
    key, digest = call["key"], call["digest"]
    if call["code"] != 0:
        return f"{key}: exit code {call['code']}"
    if workload == "analyze-h1024":
        if not isinstance(digest, dict) or digest["sha256"] != expected["analyze"][key]:
            return f"{key}: analyze JSON differs from the recorded one"
        if key == "z^2-29/16" and set(digest["preper"]) != Z2_M29_16_PREPER:
            return f"{key}: preperiodic set {digest['preper']}"
    elif workload == "verify-ref":
        if digest != expected["verify"][key]:
            return f"{key}: verdicts {digest}"
    elif workload == "sweep-z2c":
        if digest != expected["sweep_csv_sha256"]:
            return f"{key}: CSV differs from the recorded one"
    elif digest != expected["bounds"][key]:
        return f"bounds {key}: rows differ from the recorded ones"
    return None


def _check_round(workload: str, calls: list[dict], expected: dict) -> list[str]:
    problems = [p for p in (_problem(workload, c, expected) for c in calls) if p]
    if workload == "sweep-z2c" and len({c["digest"] for c in calls}) != 1:
        problems += [f"{c['key']}: --jobs 1 and --jobs 2 CSVs differ" for c in calls]
    return problems


def _upper(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples above it, else the maximum."""
    v = sorted(values)
    if len(v) <= 10:
        return "max", v[-1]
    return f"p{100 * (len(v) - 10) // len(v)}", v[len(v) - 11]


def _stats(values: list[float]) -> dict:
    label, upper = _upper(values)
    return {"median": median(values), label: upper, "n": len(values)}


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "p1dyn").rglob("*.py")))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def _environment() -> dict:
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "src_p1dyn_lines": _src_lines()}


def run_untraced(workload: str, seed: int, seconds: int, env: dict, tmp: str,
                 expected: dict, deadline: float):
    rng = random.Random(seed)
    _setup_time(env)  # compiles the bytecode cache once; not a sample
    setup_wall, setups = zip(*(_setup_time(env) for _ in range(SETUP_PROBES)))
    start = perf_counter()
    rounds, problems, attempted = [], [], 0
    per_call: dict[str, list[float]] = {}  # reference seconds of each invocation
    part_of: dict[str, str] = {}
    while not rounds or perf_counter() - start < seconds:
        if rounds and perf_counter() > deadline - 2 * max(r["wall"]["round_s"] for r in rounds):
            break
        plan = round_plan(workload, rng)
        attempted += len(plan)
        try:
            calls, _ = _run_round(workload, plan, False, env, tmp, deadline)
        except WorkerError as e:
            problems += [f"round: {e}"] * len(plan)
            if perf_counter() > deadline:
                break
            continue
        problems += _check_round(workload, calls, expected)
        for c in calls:
            per_call.setdefault(c["key"], []).append(c["reference_s"])
            part_of[c["key"]] = c["part"]
        rounds.append({
            scale: {f"{part}_s": sum(c[field] for c in calls if part in ("round", c["part"]))
                    for part in ("primary", "secondary", "round")}
            for scale, field in (("reference", "reference_s"), ("wall", "seconds"))})
    if not rounds:
        raise WorkerError("; ".join(problems[:3]))
    # the sum of per-invocation medians shrugs off one slow call in a round
    part_s = {part: sum(median(v) for k, v in per_call.items() if part_of[k] == part)
              for part in ("primary", "secondary")}
    metrics = {
        "primary_s": part_s["primary"],
        "secondary_s": part_s["secondary"],
        "peak_rss_mb": _peak_rss_mb(),
        "setup_s": median(setups),
    }
    detail = {"rounds": len(rounds)}
    for scale, setup in (("reference", setups), ("wall", setup_wall)):
        detail[f"per_round_{scale}_s"] = {
            **{k: _stats([r[scale][k] for r in rounds]) for k in rounds[0][scale]},
            "setup_s": _stats(setup)}
    return metrics, attempted, problems, detail


def _layer_metrics(spans: dict, counters: dict, efficiency: float, overhead: float) -> dict:
    def total(name):
        return spans[name]["reference_s"]

    def rate(name):
        return spans[name]["items"] / spans[name]["reference_s"]

    return {
        "orbits.enumerate_s": total("orbits.enumerate_preperiodic"),
        "orbits.candidates_per_s": counters["candidates"] / total("orbits.enumerate_preperiodic"),
        "orbits.candidates": counters["candidates"],
        "orbits.undecided": counters["undecided"],
        "ratmap.evaluate_per_s": rate("ratmap.evaluate"),
        "ratmap.reduction_profile_s": total("ratmap.reduction_profile"),
        "mapparse.parse_map_s": total("mapparse.parse_map"),
        "verify.ultrametric_s": total("verify.check_ultrametric"),
        "verify.non_expansion_s": total("verify.check_non_expansion"),
        "verify.inventory_s": total("verify.inventory"),
        "verify.checked": counters["checked"],
        "projline.distance_support_per_s": rate("projline.distance_support"),
        "projline.log_distance_per_s": rate("projline.log_distance"),
        "intarith.factorize_per_s": rate("intarith.factorize"),
        "magnitude.compare_per_s": rate("magnitude.compare"),
        "magnitude.digit_count_per_s": rate("magnitude.digit_count"),
        "bounds.bound_table_s": total("bounds.bound_table"),
        "report.render_s": total("report.render"),
        "cli.batch.parallel_efficiency": efficiency,
        "bench.trace_overhead_ratio": overhead,
    }


def run_traced(workload: str, seed: int, env: dict, tmp: str, expected: dict,
               deadline: float):
    """One untraced round, the same round traced, then the layer replays."""
    _setup_time(env)
    plan = round_plan(workload, random.Random(seed))
    rounds, problems = [], []
    for trace in (False, True):
        rounds.append(_run_round(workload, plan, trace, env, tmp, deadline))
        problems += _check_round(workload, rounds[-1][0], expected)
    untraced, traced = (_reference(calls) for calls, _ in rounds)
    rep = _spawn({"mode": "replay", "inputs": replay_inputs(workload), "tmp": tmp},
                 env, deadline - perf_counter())
    counters, spans = rep["counters"], rep["spans"]
    problems += [f"replay batch: exit code {c}" for c in counters["batch_codes"] if c != 0]
    if workload == "sweep-z2c":
        jobs = {c["key"]: c["reference_s"] for c in rounds[0][0]}
    else:
        jobs = {k: spans[f"cli.batch.{k}"]["reference_s"] for k in ("jobs1", "jobs2")}
    metrics = _layer_metrics(spans, counters, jobs["jobs1"] / (2 * jobs["jobs2"]),
                             traced / untraced)
    attempted = 2 * len(plan) + 1 + len(counters["batch_codes"])
    detail = {"untraced_round_s": untraced, "traced_round_s": traced,
              "round_spans": rounds[1][1], "replay_spans": spans}
    return metrics, attempted, problems, detail


def run_workload(args) -> int:
    if not (SRC / "p1dyn" / "cli.py").is_file():
        print(f"error: no p1dyn sources under {SRC}", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    deadline = perf_counter() + RUN_BUDGET_S
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_ROOT)
    try:
        env = _env(tmp)
        if args.trace:
            metrics, attempted, problems, detail = run_traced(
                args.workload, args.seed, env, tmp, expected, deadline)
            units = PER_LAYER
        else:
            metrics, attempted, problems, detail = run_untraced(
                args.workload, args.seed, args.seconds, env, tmp, expected, deadline)
            units = END_TO_END
    except (WorkerError, subprocess.CalledProcessError, KeyError) as e:
        print(f"error: {args.workload}: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    for p in problems[:10]:
        print(f"wrong output: {p}", file=sys.stderr)
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, failed_share=len(problems) / attempted,
                  **_environment())
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": len(problems),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def _run_child(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=str(ROOT), check=False)
    if proc.returncode != 0:
        raise WorkerError(f"{workload}: {proc.stderr.strip()[-400:]}")
    *_, detail_line, result_line = proc.stdout.splitlines()
    return json.loads(detail_line)["detail"], json.loads(result_line)


def run_all(args) -> int:
    """Every workload untraced and traced; the issue-level metrics by name."""
    runs = {}
    for w in WORKLOADS:
        try:
            runs[w] = [_run_child(w, args.seed, args.seconds, t) for t in (0, 1)]
        except WorkerError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    e2e = {w: runs[w][0] for w in WORKLOADS}

    def timing(w, key, per=None):
        """Median, upper percentile and count of a timing; as a rate when ``per`` is given."""
        s = e2e[w][0]["per_round_reference_s"][key]
        if per is None:
            return s
        # the upper percentile of the time is the lower one of the rate
        return {(k if k in ("median", "n") else f"at_{k}_time"): (v if k == "n" else per / v)
                for k, v in s.items()}

    maps = len(sweep_maps(SWEEP_BOX))
    tables = len(BOUNDS_D) * len(BOUNDS_S)
    attempted = sum(r[1]["attempted"] for pair in runs.values() for r in pair)
    failed = sum(r[1]["failed"] for pair in runs.values() for r in pair)
    summary = {
        "analyze_poly_s": ("s", timing("analyze-h1024", "primary_s")),
        "analyze_rational_s": ("s", timing("analyze-h1024", "secondary_s")),
        "verify_s": ("s", timing("verify-ref", "round_s")),
        "sweep_maps_per_s": ("1/s", timing("sweep-z2c", "primary_s", maps)),
        "sweep_serial_maps_per_s": ("1/s", timing("sweep-z2c", "secondary_s", maps)),
        "bounds_tables_per_s": ("1/s", timing("bounds-grid", "round_s", tables)),
        "peak_rss_mb": ("MB", max(e2e[w][1]["metrics"]["peak_rss_mb"]["value"]
                                  for w in WORKLOADS)),
        "setup_s": ("s", median(e2e[w][1]["metrics"]["setup_s"]["value"] for w in WORKLOADS)),
        "failed_share": ("share", failed / attempted),
    }
    print(f"p1dyn benchmark, seed {args.seed}, {args.seconds} s per workload; "
          f"analyze maps {', '.join(ANALYZE_MAPS)}; timings in reference seconds")
    for name, (unit, value) in summary.items():
        print(f"  {name:<26} {json.dumps(value)} {unit}")
    for w in WORKLOADS:
        d = runs[w][1][0]
        print(f"  {w}: tracing overhead {d['traced_round_s'] / d['untraced_round_s']:.3f}x "
              f"({d['untraced_round_s']:.3f} s untraced, {d['traced_round_s']:.3f} s traced)")
    print(f"  environment: {json.dumps(_environment())}")
    print(f"  {'per-layer metric':<34}{'unit':<7}" + "".join(f"{w:>15}" for w in WORKLOADS))
    for name, unit in PER_LAYER.items():
        values = [runs[w][1][1]["metrics"][name]["value"] for w in WORKLOADS]
        print(f"  {name:<34}{unit:<7}" + "".join(f"{v:>15.6g}" for v in values))
    document = {"summary": {k: {"unit": u, "value": v} for k, (u, v) in summary.items()},
                "environment": _environment(),
                "workloads": {w: {"untraced": runs[w][0], "traced": runs[w][1]}
                              for w in WORKLOADS}}
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v if not isinstance(v, dict) else v["median"],
                                      "unit": u} for k, (u, v) in summary.items()}}))
    return 0


def record(args) -> int:
    """Rewrite expected.json from one round of every workload."""
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_ROOT)
    try:
        env = _env(tmp)
        calls = {w: _run_round(w, round_plan(w, random.Random(0)), False, env, tmp,
                               perf_counter() + 600)[0]
                 for w in WORKLOADS}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        TMP_ROOT.rmdir()
    bad = [c["key"] for cs in calls.values() for c in cs if c["code"] != 0]
    csvs = {c["digest"] for c in calls["sweep-z2c"]}
    if bad or len(csvs) != 1:
        print(f"error: nonzero exit for {bad} or differing sweep CSVs", file=sys.stderr)
        return 1
    doc = {
        "analyze": {c["key"]: c["digest"]["sha256"] for c in calls["analyze-h1024"]},
        "verify": {c["key"]: c["digest"] for c in calls["verify-ref"]},
        "sweep_csv_sha256": csvs.pop(),
        "bounds": {c["key"]: c["digest"]
                   for c in sorted(calls["bounds-grid"],
                                   key=lambda c: tuple(map(int, c["key"].split(","))))},
    }
    EXPECTED.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, print the summary")
    ap.add_argument("--out", default="", help="with --all, also write the summary JSON here")
    ap.add_argument("--record", action="store_true", help="rewrite expected.json")
    args = ap.parse_args(argv)
    # exit through the finally blocks, which stop the worker and remove the temp dir
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.record:
        return record(args)
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("one of --workload, --all or --record is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
