"""F2 homology of small matrix groups from freely generated resolutions,
and the even/odd pattern of the stabilization map between them.

Run:  python3 demos/group_homology.py
"""

from f2alg.grouphom import (
    builtin_group,
    homology_dims,
    induced_map,
    resolve,
    stabilization_hom,
    sylow_homology_dims,
)

gl2 = builtin_group("GL(2,2)")
gl3 = builtin_group("GL(3,2)")
print("GL(2,2): order", gl2.order, "on", gl2.degree, "points")
print("GL(3,2): order", gl3.order, "on", gl3.degree, "points")

# each resolution is built only through the degree read: H_4 is read off
# the kernel of the degree-4 boundary
r2 = resolve(gl2, 4)
r3 = resolve(gl3, 4)
print("\nresolution ranks over F2[GL(3,2)]:", r3.ranks)
# beside each, the same dims read off a Sylow 2-subgroup P alone (C2 in
# GL(2,2), dihedral of order 8 in GL(3,2)): H_*(P) modulo the images of
# incl_* - (c_w)_* from P n wPw^-1, one w per double coset PwP
for name, g, r in (("GL(2,2)", gl2, r2), ("GL(3,2)", gl3, r3)):
    print(f"H_*({name}; F2) dims, d = 0..4: {homology_dims(r)}, "
          f"through a Sylow 2-subgroup {sylow_homology_dims(g, 4)}")
print("H_*(GL(3,2); F2) dims through a Sylow 2-subgroup, d = 0..6:",
      sylow_homology_dims(gl3, 6))

stab = stabilization_hom(gl2, gl3, 2)
print("\nstabilization GL(2,2) -> GL(3,2) on H_i:")
for i in range(5):
    m = induced_map(stab, r2, r3, i)
    kind = "iso" if m.rank() == m.rows == m.cols and m.rows else "zero"
    print(f"  H_{i}: rank {m.rank()} ({kind})")
