"""Fresh-interpreter side of the benchmark: one round, or the layer replays.

run.py starts ``python3 perfbench/worker.py`` with p1dyn's ``src`` on
PYTHONPATH, writes one JSON job to its stdin and reads one JSON line back.
Jobs:

- ``{"mode": "round", "plan": [...], "tmp": dir, "trace": bool}`` calls
  ``p1dyn.cli.main`` for every invocation of the plan and returns its wall
  and reference seconds, exit code and an output digest.  With ``trace``
  the coarse public functions of the library's modules are wrapped in
  spans for the round.
- ``{"mode": "replay", "inputs": {...}, "tmp": dir}`` calls each layer's
  public functions directly on the workload's inputs, under spans.

A speedref.Probe samples the host's speed throughout either job.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
from time import perf_counter

import speedref
from workloads import VERIFY_HEIGHT, batch_argv, candidate_count

import p1dyn.cli as cli

# functions wrapped in spans during a traced round: coarse entry points of
# each module, not the per-point helpers that run hundreds of thousands of times
TRACED_FUNCTIONS = {
    "mapparse": ("parse_map",),
    "ratmap": ("reduction_profile", "evaluate"),
    "orbits": ("enumerate_preperiodic",),
    "verify": ("run_suite", "check_ultrametric", "check_non_expansion",
               "check_chain_lemma", "check_tail_periodic_distance",
               "check_critical_distance", "check_tail_count_lemmas",
               "check_main_theorems"),
    "bounds": ("bound_table", "aggregate_bounds"),
    "magnitude": ("compare", "digit_count"),
    "report": ("analysis_report", "analysis_text", "report_json", "bound_rows",
               "verification_line", "batch_rows_csv"),
}

# at most this many map applications per map in the evaluate replay
EVAL_SAMPLE = 20_000
# the small count a bound is compared against, as sweep and verify do
COMPARE_COUNT = 9


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, item count]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str, count: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, count])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, count: int = 1):
        idx = self._open(name, count)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name, 1)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def summary(self, probe: speedref.Probe) -> dict:
        """Per span name: spans, items, total and self wall seconds, total reference seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, count) in enumerate(self.spans):
            s = out.setdefault(name, {"spans": 0, "items": 0, "total_s": 0.0, "self_s": 0.0,
                                      "reference_s": 0.0})
            s["spans"] += 1
            s["items"] += count
            s["total_s"] += end - start
            s["self_s"] += end - start - child[i]
            s["reference_s"] += probe.reference(start, end)
        return out


def instrument(tracer: Tracer) -> None:
    """Replace each traced function by a span wrapper in every p1dyn namespace."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "p1dyn" or name.startswith("p1dyn."))]
    for modname, names in TRACED_FUNCTIONS.items():
        mod = sys.modules[f"p1dyn.{modname}"]
        for name in names:
            original = getattr(mod, name)
            wrapped = tracer.wrap(f"{modname}.{name}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest(kind: str, stdout: str, out_path: str):
    """What the harness compares against the recorded outputs."""
    if kind == "analyze":
        with open(out_path, "rb") as fh:
            raw = fh.read()
        return {"sha256": _sha256(raw), "preper": json.loads(raw)["preper"]}
    if kind == "verify":
        return [line[1:].replace("] ", " ", 1).split(":")[0]
                for line in stdout.splitlines() if line.startswith("[")]
    if kind == "batch":
        with open(out_path, "rb") as fh:
            return _sha256(fh.read())
    return _sha256(stdout.encode())[:16]


def _call_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects an argv with exit code 2
            code = e.code
    return code, out.getvalue()


def run_round(plan: list[dict], tmp: str, tracer: Tracer | None,
              probe: speedref.Probe) -> list[dict]:
    calls = []
    for n, inv in enumerate(plan):
        out_path = os.path.join(tmp, f"out{n}")
        argv = [out_path if a == "{out}" else a for a in inv["argv"]]
        span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
        start = perf_counter()
        with span:
            code, stdout = _call_cli(argv)
        end = perf_counter()
        try:
            digest = _digest(inv["kind"], stdout, out_path)
        except (OSError, ValueError, KeyError) as e:
            digest = f"unreadable output: {e}"
        if os.path.exists(out_path):
            os.remove(out_path)
        calls.append({"key": inv["key"], "part": inv["part"], "seconds": end - start,
                      "interval": (start, end), "code": code, "digest": digest})
    for c in calls:  # after the loop, so samples taken after a call count too
        c["reference_s"] = probe.reference(*c.pop("interval"))
    return calls


def _checked(report) -> int:
    if report.status != "PASS":
        raise RuntimeError(f"{report.check_name}: {report.status}")
    return int(dict(report.parameters)["checked"])


def replay(inputs: dict, tmp: str, tracer: Tracer) -> dict:
    """Call each layer directly on the workload's inputs, one span per layer."""
    from p1dyn.bounds import bound_table
    from p1dyn.intarith import factorize
    from p1dyn.magnitude import compare, digit_count, exact
    from p1dyn.mapparse import parse_map
    from p1dyn.orbits import enumerate_preperiodic
    from p1dyn.projline import (cross_product, distance_support, log_distance,
                                point_sort_key, points_up_to_height)
    from p1dyn.ratmap import evaluate, reduction_profile
    from p1dyn.report import analysis_report, analysis_text, bound_rows, report_json
    from p1dyn.verify import check_non_expansion, check_ultrametric

    span = tracer.span
    maps = inputs["maps"]
    with span("mapparse.parse_map", len(maps)):
        pairs = [parse_map(text) for text, _ in maps]
    heights = [h for _, h in maps]
    with span("ratmap.reduction_profile", len(pairs)):
        profiles = [reduction_profile(p) for p in pairs]
    with span("orbits.enumerate_preperiodic", len(pairs)):
        invs = [enumerate_preperiodic(p, h) for p, h in zip(pairs, heights)]
    counts = {h: candidate_count(h) for h in set(heights)}
    candidates = sum(counts[h] for h in heights)
    undecided = sum(len(inv.undecided) for inv in invs)

    samples = [list(itertools.islice(points_up_to_height(h), 0, None,
                                     max(1, counts[h] // EVAL_SAMPLE))) for h in heights]
    with span("ratmap.evaluate", sum(map(len, samples))):
        for pair, pts in zip(pairs, samples):
            for pt in pts:
                evaluate(pair, pt)

    with span("verify.inventory", len(pairs)):
        vinvs = [enumerate_preperiodic(p, VERIFY_HEIGHT) for p in pairs]
    grid = set(points_up_to_height(4))  # run_suite's sample points
    point_sets = [sorted(grid | set(inv.preper), key=point_sort_key) for inv in vinvs]
    checked = 0
    with span("verify.check_ultrametric", len(point_sets)):
        for pts in point_sets:
            checked += _checked(check_ultrametric(pts))
    with span("verify.check_non_expansion", len(point_sets)):
        for pair, prof, pts in zip(pairs, profiles, point_sets):
            checked += _checked(check_non_expansion(pair, prof, pts))

    point_pairs = [ab for pts in point_sets for ab in itertools.combinations(pts, 2)]
    with span("projline.distance_support", len(point_pairs)):
        supports = [distance_support(a, b) for a, b in point_pairs]
    triples = [(a, b, p) for (a, b), sup in zip(point_pairs, supports) for p in sup]
    with span("projline.log_distance", len(triples)):
        for a, b, p in triples:
            log_distance(a, b, p)
    crosses = [c for c in (abs(cross_product(a, b)) for a, b in point_pairs) if c > 1]
    with span("intarith.factorize", len(crosses)):
        for c in crosses:
            factorize(c)

    tables = inputs["tables"] or sorted({(p.degree, prof.places.size)
                                         for p, prof in zip(pairs, profiles)})
    with span("bounds.bound_table", len(tables)):
        values = [v for d, s in tables for v in bound_table(d, s).values()]
    with span("magnitude.digit_count", len(values)):
        for v in values:
            digit_count(v)
    with span("magnitude.compare", len(values)):
        count = exact(COMPARE_COUNT)
        for v in values:
            compare(count, v)
    with span("report.render", len(tables) + len(pairs)):
        for d, s in tables:
            bound_rows(d, s)
        for pair, prof, inv in zip(pairs, profiles, invs):
            doc = analysis_report(pair, prof, prof.places, inv)
            analysis_text(doc)
            report_json(doc)

    codes = []
    if inputs["batch_box"]:
        out_path = os.path.join(tmp, "replay.csv")
        for jobs in (1, 2):
            argv = [out_path if a == "{out}" else a for a in batch_argv(inputs["batch_box"], jobs)]
            with span(f"cli.batch.jobs{jobs}"):
                codes.append(_call_cli(argv)[0])
        os.remove(out_path)
    return {"candidates": candidates, "undecided": undecided, "checked": checked,
            "batch_codes": codes}


def main() -> None:
    job = json.loads(sys.stdin.read())
    tracer = Tracer()
    with speedref.Probe() as probe:
        if job["mode"] == "round":
            if job["trace"]:
                instrument(tracer)
            result = {"calls": run_round(job["plan"], job["tmp"],
                                         tracer if job["trace"] else None, probe)}
        else:
            result = {"counters": replay(job["inputs"], job["tmp"], tracer)}
        result["spans"] = tracer.summary(probe)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
