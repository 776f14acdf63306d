"""Assemble the grading-5 stability Hopf algebra from its ordered cell
presentation, show the per-cell log and the rule-reading flags, and
confirm the result agrees with the direct construction, satisfies the
Hopf axioms at every basis element, and has the dual algebra relations.

Run:  python3 demos/cell_assembly.py
"""

from f2alg.cellhopf import delta_of_cells, load_cells
from f2alg.hopf import build_delta_cgl

pres = delta_of_cells(load_cells("cgl.cells"), bound=5)

print("cell-by-cell assembly log:")
for line in pres.log:
    print("  " + line)

print("\nflags (informational, none fatal):")
for line in pres.flags:
    print("  " + line)

ref = build_delta_cgl()
print("\nagrees with the direct construction:", pres.hopf.same_tables(ref))
# construction checks the axioms at the generators only; this checks them
# at every basis element, and raises AssertionError if one fails
pres.hopf.assert_axioms()
print("Hopf axioms at every basis element: ok")
print("generators:", pres.generators)
for g in range(1, 6):
    print(f"  grading {g}: {pres.hopf.basis[g]}")

d = pres.hopf.dualize()
s1, s2 = d.index(1, "sb~"), d.index(2, "sb^2~")
s2s1 = d.product(2, 1 << s2, 1, 1 << s1)
print("\ndual algebra relations:")
print("  s1^2 = 0        :", d.product(1, 1 << s1, 1, 1 << s1) == 0)
print("  s2*s1 = (sb^3)~ :", d.combo_labels(3, s2s1) == ["sb^3~"])
print("  s2^2 = s1*s2*s1 :",
      d.product(2, 1 << s2, 2, 1 << s2) == d.product(1, 1 << s1, 3, s2s1))
