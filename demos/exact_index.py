"""Walk the exact accessibility-index search on the planar two-input system.

The search reads the module chain one depth at a time.  At each depth it
takes the ideal of maximal minors of the matrix of the chain's columns,
passes to its restricted real radical, and tests that radical for invariance
under the system fields.  The first invariant radical freezes: its depth is
the exact index r*, and its variety is the limit singular set, so no deeper
bracket can ever shrink the singular locus further.
"""

from pathlib import Path

from polyaccess import is_invariant, parse_file, real_radical_restricted
from polyaccess.analysis import AnalysisSession

parsed = parse_file((Path(__file__).parent / "systems" / "planar.sys").read_text(),
                    "planar")
system = parsed.system
session = AnalysisSession(system)

print("system:", ", ".join(str(g) for g in (system.drift,) + system.inputs))
print()

for depth in range(3):
    I = session.minors("accessibility", depth, system.dimension)
    rr = real_radical_restricted(I)
    inv = is_invariant(rr, system.operators())
    print(f"depth {depth}: columns {[c.label for c in session.matrix('accessibility', depth)]}")
    print(f"  minor ideal      {I}")
    print(f"  real radical     {rr}")
    if inv.invariant:
        print("  invariant: yes, the chain has converged")
    else:
        print(f"  invariant: no, L along {inv.field_label} of {inv.generator} "
              f"leaves residue {inv.residue}")

print()
report = session.index("accessibility")
print(f"exact index r* = {report.index_value}")
print("limit singular set: V(" +
      ", ".join(str(g) for g in report.singular_generators()) + ")")
print(f"planar depth bound for degree 2: {report.planar_depth_bound} "
      "(the invariance certificate stops at depth 2 instead)")
