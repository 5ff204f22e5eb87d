"""
Enumerating rational preperiodic points
=======================================

An exhaustive height-bounded search for z^2 - 29/16, the quadratic
polynomial with the largest known rational preperiodic set: nine points.
"""

from p1dyn import (classify_point, enumerate_preperiodic, format_point,
                   parse_point, parse_map, tails_of)

phi = parse_map("z^2-29/16")

# classify_point walks a single orbit until it cycles or escapes.  Escaping
# is a proof: every point of height above T = 45, this map's escape
# threshold, has an image of larger height.  So the walk from 2 stops at
# 761/256, its first point above T.
for text in ("1/4", "3/4", "2"):
    c = classify_point(phi, parse_point(text))
    route = " -> ".join(format_point(q) for q in c.trajectory[:5])
    print(f"{text}: {c.kind:8s} {route}" + (" ..." if len(c.trajectory) > 5 else ""))

# enumerate_preperiodic classifies every canonical point up to a height
# bound that can be preperiodic, sharing verdicts between orbits, and
# assembles the full picture.  For a polynomial like this one it skips the
# starts that provably escape: here only the row of denominator 4 with
# |z| <= 7/4 is walked, 9 starts in all with infinity.
inv = enumerate_preperiodic(phi, height=64)
print("\npreperiodic points:", len(inv.preper))
print("  periodic:", sorted(format_point(p) for p in inv.per))
print("  tail:    ", sorted(format_point(p) for p in inv.tail))

for cycle in inv.cycles:
    shown = " -> ".join(format_point(p) for p in cycle)
    crit = "  (critical cycle)" if cycle[0] in inv.per0 else ""
    print(f"cycle of length {len(cycle)}: {shown}{crit}")

# Tail structure: which points fall into each cycle, and how many steps
# they need to reach it.
rep = inv.cycles[0][0]
print(f"\ntails into the cycle of {format_point(rep)}:")
for t in tails_of(inv, rep):
    print(f"  {format_point(t)} joins after {inv.tail_lengths[t]} step(s)")

# The search is complete: no starting point was left undecided.
print("\nincomplete:", inv.incomplete)
