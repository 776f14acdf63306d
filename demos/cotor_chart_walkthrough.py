"""Walk through the Cotor chart of the 8-dimensional truncated
polynomial coalgebra: dims with monomial names, the chain-level ring
relations behind them, and the lightning-flash pattern of the cone on
h10 together with its hidden extension.

Run:  python3 demos/cotor_chart_walkthrough.py
"""

from f2alg.cobar import ConeComplex, build_cobar
from f2alg.minres import chart_rows, ring_chart_names
from f2alg.hopf import build_a1_star

G, D = 13, 9

cx = build_cobar(build_a1_star(), g_max=G + 1, s_max=G + 1)
print(f"Cotor chart, g <= {G}, d <= {D} (blank rows elided):")
for g, d, dim, names in chart_rows(cx, G, D, names=ring_chart_names(G, D)):
    if dim:
        print(f"  ({g},{d})  dim {dim}  {names}")
print()

h10 = cx.unique_class(1, 0)
h11 = cx.unique_class(2, 1)
y74 = cx.unique_class(7, 4)
y128 = cx.unique_class(12, 8)

print("ring relations, checked on chains, not just dimensions:")
print("  h10*h11 = 0   :", not cx.class_nonzero(3, 1, cx.product_chain(h10, h11)))
h11sq = cx.cotor_product(h11, h11)
print("  h11^3  = 0    :", not cx.class_nonzero(6, 3, cx.product_chain(h11sq, h11)))
print("  h11*y74 = 0   :", not cx.class_nonzero(9, 5, cx.product_chain(h11, y74)))
lhs = cx.product_chain(y74, y74)
rhs = cx.product_chain(cx.cotor_product(h10, h10), y128)
print("  y74^2 = h10^2*y128 != 0 :",
      cx.class_nonzero(14, 8, lhs) and cx.classes_agree(14, 8, lhs, rhs))

cone = ConeComplex(cx, h10)
print("\ncone on h10, g <= 7, d <= 4 (the lightning flash):")
flash = [(g, d) for g in range(8) for d in range(5) if cone.homology_dim(g, d)]
print(" ", sorted(flash))

z00 = cone.unique_class(0, 0)
z32 = cone.unique_class(3, 2)
g1, d1, c1 = cone.module_action(h10, 3, 2, z32.chain)
g2, d2, c2 = cone.module_action(h11sq, 0, 0, z00.chain)
print("hidden extension h10.z32 = h11^2.z00 at (4,2):",
      cone.class_nonzero(4, 2, c1) and cone.classes_agree(4, 2, c1, c2))
