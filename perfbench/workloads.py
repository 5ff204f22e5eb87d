"""Workload definitions shared by the harness, the worker and the tests.

A workload is a fixed list of CLI invocations (one "round"); the harness
runs rounds back to back, each in a fresh interpreter (verify-ref: each
invocation in its own).  Every invocation belongs to one of two parts,
whose summed times are the end-to-end metrics ``primary_s`` and
``secondary_s`` of that workload.  The seed only shuffles the order of
invocations in verify-ref and bounds-grid.
"""

from __future__ import annotations

import random
from math import gcd

WORKLOADS = ("analyze-h1024", "verify-ref", "sweep-z2c", "bounds-grid")

ANALYZE_MAPS = ("z^2-29/16", "[X^3+2*Y^3:X*Y^2]")
ANALYZE_HEIGHT = 1024

# the golden maps of the acceptance suite, three more quadratics/cubics and
# three maps that are not polynomials
VERIFY_POLY_MAPS = ("z^2", "z^2-1", "z^2+1", "z^2-2", "z^2-29/16",
                    "z^2-21/16", "z^2-3/4", "z^3-z")
VERIFY_RATIONAL_MAPS = ("[X^2-Y^2:X*Y]", "[X^3+2*Y^3:X*Y^2]",
                        "[2*X^2-Y^2:X^2+Y^2]")
VERIFY_HEIGHT = 64

SWEEP_BOX = 32
SWEEP_HEIGHT = 64

BOUNDS_D = range(2, 34)
BOUNDS_S = range(1, 17)
BOUNDS_SPLIT_S = 8  # tables with s <= 8 are the primary part

# a CLI user runs one verify per map, each in a fresh interpreter with cold
# caches; the other workloads run a whole round in one interpreter
FRESH_PER_CALL = ("verify-ref",)

# layer replays for workloads whose own round calls no map layer
FALLBACK_MAPS = (("z^2-29/16", VERIFY_HEIGHT),)
# the batch that measures pool efficiency outside sweep-z2c
SMALL_BOX = 8
# every 64th map of the sweep feeds the sweep's layer replays
SWEEP_REPLAY_STRIDE = 64


def candidate_count(height: int) -> int:
    """Points [x:y] the inventory walks: infinity plus coprime x in [-H, H], 1 <= y <= H."""
    return 1 + sum(1 for y in range(1, height + 1)
                   for x in range(-height, height + 1) if gcd(x, y) == 1)


def sweep_maps(box: int) -> list[str]:
    """The z^2+c maps of ``batch --c-num-max box --c-den-max box``, in its task order."""
    maps = []
    for den in range(1, box + 1):
        for num in range(-box, box + 1):
            if gcd(num, den) != 1:
                continue
            c = f"{abs(num)}/{den}" if den > 1 else str(abs(num))
            maps.append(f"z^2+{c}" if num >= 0 else f"z^2-{c}")
    return maps


def batch_argv(box: int, jobs: int) -> list[str]:
    return ["batch", "--family", "z^2+c", "--c-num-max", str(box),
            "--c-den-max", str(box), "--height", str(SWEEP_HEIGHT),
            "--jobs", str(jobs), "--csv", "{out}"]


def round_plan(workload: str, rng: random.Random) -> list[dict]:
    """One round: invocations with a key (for output checks), a part and an argv.

    ``{out}`` in an argv stands for a fresh file in the run's temp dir.
    """
    if workload == "analyze-h1024":
        return [{"key": m, "part": "primary" if i == 0 else "secondary", "kind": "analyze",
                 "argv": ["analyze", "--map", m, "--height", str(ANALYZE_HEIGHT),
                          "--json", "{out}"]}
                for i, m in enumerate(ANALYZE_MAPS)]
    if workload == "verify-ref":
        plan = [{"key": m, "part": "primary" if m in VERIFY_POLY_MAPS else "secondary",
                 "kind": "verify",
                 "argv": ["verify", "--map", m, "--suite", "all",
                          "--height", str(VERIFY_HEIGHT)]}
                for m in VERIFY_POLY_MAPS + VERIFY_RATIONAL_MAPS]
        rng.shuffle(plan)
        return plan
    if workload == "sweep-z2c":
        return [{"key": f"jobs{j}", "part": "primary" if j == 2 else "secondary",
                 "kind": "batch", "argv": batch_argv(SWEEP_BOX, j)}
                for j in (2, 1)]
    if workload == "bounds-grid":
        plan = [{"key": f"{d},{s}", "part": "primary" if s <= BOUNDS_SPLIT_S else "secondary",
                 "kind": "bounds", "argv": ["bounds", "--d", str(d), "--s", str(s)]}
                for d in BOUNDS_D for s in BOUNDS_S]
        rng.shuffle(plan)
        return plan
    raise ValueError(f"unknown workload {workload!r}")


def replay_inputs(workload: str) -> dict:
    """Inputs of the traced run's layer replays: the workload's own maps and tables.

    bounds-grid has no maps, so its map layers replay on FALLBACK_MAPS; the
    bound tables of a map workload are (degree, s) of its maps, found by the
    worker.  ``batch_box`` is the sweep box whose --jobs 1 / --jobs 2 times
    give the pool efficiency.
    """
    if workload == "analyze-h1024":
        return {"maps": [(m, ANALYZE_HEIGHT) for m in ANALYZE_MAPS],
                "tables": None, "batch_box": SMALL_BOX}
    if workload == "verify-ref":
        return {"maps": [(m, VERIFY_HEIGHT) for m in VERIFY_POLY_MAPS + VERIFY_RATIONAL_MAPS],
                "tables": None, "batch_box": SMALL_BOX}
    if workload == "sweep-z2c":
        return {"maps": [(m, SWEEP_HEIGHT)
                         for m in sweep_maps(SWEEP_BOX)[::SWEEP_REPLAY_STRIDE]],
                "tables": None, "batch_box": None}  # efficiency comes from the round
    if workload == "bounds-grid":
        return {"maps": list(FALLBACK_MAPS),
                "tables": [(d, s) for d in BOUNDS_D for s in BOUNDS_S],
                "batch_box": SMALL_BOX}
    raise ValueError(f"unknown workload {workload!r}")
