"""Exact point counts for spaces of degree-e maps from the line to a conic.

The count of generating solution tuples, divided by p^((m+1)(mu+1)) with mu
the expected dimension, should drift toward 1 as p grows if the space is
irreducible of the expected dimension.  Everything below is an exact
integer or rational; no sampling, no floating point.
"""

from jetsums.counting import count_solutions, count_tangent_pairs, lw_trend
from jetsums.forms import conic_form

print("base counts for the smooth conic, degree bound e = 2")
print(f"{'p':>3} {'raw':>8} {'normalized':>12}  float")
for rec in lw_trend(conic_form, 2, 0, [3, 5, 7]):
    print(
        f"{rec.params['p']:>3} {rec.raw_count:>8} "
        f"{str(rec.normalized):>12}  {float(rec.normalized):.4f}"
    )

print()
print("climbing the jet tower at p = 3: every base map's gradient map is onto,")
print("so the jets form an affine bundle, counted in closed form; each layer")
print("multiplies the count by p^4 and the normalized count is stable")
for m in (0, 1, 2, 3, 4):
    rec = count_solutions(conic_form(3), 2, m)
    print(f"  m={m}: raw={rec.raw_count:>10}  normalized={rec.normalized}")

print()
print("first-order tangent data: pairs (x0, x1) with x1 killed by the")
print("gradient pairing; the fiber over each solution is a p^4 kernel")
pair = count_tangent_pairs(conic_form(3), 2, 0)
print(f"  pairs={pair.raw_count}  normalized={pair.normalized}")

print()
print("degree 1 is empty: the pullback line bundle would have odd degree")
for p in (3, 5):
    print(f"  p={p}: {count_solutions(conic_form(p), 1, 0).raw_count}")
