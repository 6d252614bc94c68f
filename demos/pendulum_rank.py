"""Find where the cart-pole loses bracket rank, in the exact arithmetic.

The cart-pole dynamics involve sin, cos and a reciprocal, lifted here to a
7-state polynomial system.  The module chain stabilizes quickly; the
interesting question is the rank-4 locus of the stabilized bracket matrix:
where does the lifted family fall below the source dimension?  The
restricted real radical compresses the 23 raw minors to two monomials, and
pulling back onto the image variety reads the answer in source terms:
rank drops exactly where the angular velocity and the sine of the pole angle
both vanish, the upright and hanging rest configurations.

The whole walk-through takes about half a second.  Enumerating the 360
distinct rank-4 minors takes about 0.1 s of it, and the module chain about
0.04 s.
"""

from pathlib import Path

from polyaccess import (
    build_matrix,
    minor_ideal,
    parse_file,
    pull_back_singular,
    real_radical_restricted,
    stabilize_chain,
    vanishing_coordinates,
)

parsed = parse_file((Path(__file__).parent / "systems" / "pendulum.sys").read_text(),
                    "pendulum")
imm = parsed.immersed
system = imm.system

print("lifted drift:", system.drift)
print()

chain = stabilize_chain(system)
sizes = "/".join(str(len(r)) for r in chain.rounds)
print(f"module chain stabilizes at depth {chain.r_hat} "
      f"(retained columns per depth: {sizes})")

I4 = minor_ideal(build_matrix(chain.columns), 4)
print(f"rank-4 minor ideal: {len(I4.groebner_basis())} generators")
rr = real_radical_restricted(I4)
print("restricted real radical:",
      ", ".join(str(g) for g in rr.groebner_basis()))
print()

print("pulling back onto the image variety...")
pulled = pull_back_singular(imm, I4)
print("intersection empty:", pulled.empty, f"({pulled.grade})")
print("witness image point:",
      pulled.witness and "(" + ", ".join(map(str, pulled.witness)) + ")")
print("coordinates forced to vanish on the intersection:",
      ", ".join(vanishing_coordinates(pulled.ideal)))
print()
print("z4 is the angular velocity and z5 = sin(angle): the lifted family")
print("loses rank exactly over the two rest configurations of the pole")
