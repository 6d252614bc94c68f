"""Compute a singular set by invariant closure when the index stays open.

The 3-state single-input system here defeats the exact-index route: the
restricted real radical of its minor ideal is not in any supported class, so
no invariance certificate is available.  The closure route still pins the
singular set exactly.  It enlarges the minor ideal by Lie derivatives along
the system fields until nothing new appears; the resulting invariant ideal
cuts out the limit singular locus, with no claim about the index.
"""

from pathlib import Path

from polyaccess import (
    closure_singular_analysis,
    exact_index_analysis,
    in_radical,
    parse_file,
    parse_polynomial,
)
from polyaccess.rationals import Q

parsed = parse_file((Path(__file__).parent / "systems" / "circle3d.sys").read_text(),
                    "circle3d")
system = parsed.system

report = exact_index_analysis(system)
print("exact-index attempt:", report.index_kind)
for note in report.notes:
    print("  note:", note)
print()

report = closure_singular_analysis(system)
print("closure route:", report.route)
print("singular generators:")
for g in report.singular_generators():
    print("  ", g)

c = parse_polynomial("x2^2 + x3^2 - 1", system.vars)
print()
print("cylinder equation in the radical of the closure:", in_radical(c, report.singular_ideal))

# the converse inclusion, checked on rational points of the cylinder via
# x2 = (1-t^2)/(1+t^2), x3 = 2t/(1+t^2)
t = Q(1, 3)
den = 1 + t * t
point = [Q(4), (1 - t * t) / den, 2 * t / den]
values = [g.evaluate(point) for g in report.singular_generators()]
print(f"all generators vanish at the cylinder point ({', '.join(map(str, point))}):",
      all(v == 0 for v in values))
