"""Exponential sums over the dual space, and the major/minor arc split.

S(alpha) sums the additive character of alpha(F(x)) over generating
tuples; the values live in Z[zeta_p] and are computed exactly through one
character transform of the value histogram.  Summing over every functional
recovers p^(de+1) times the solution count (orthogonality), and each
functional is classified by the smallest divisor its reduction factors
through.
"""

from collections import Counter

from jetsums.arith import magnitude
from jetsums.expsums import (
    check_orthogonality,
    classify_arc,
    divisor_table,
    dual_from_code,
    exp_sum,
    t_vanishing_report,
)
from jetsums.forms import conic_form

F = conic_form(3)
e = 2

print("a few exact sums S(alpha) on the conic, e = 2, m = 0")
for code in (0, 1, 17, 200):
    alpha = dual_from_code(3, 4, 0, code)
    val = exp_sum(F, e, 0, alpha)
    iv = magnitude(val)
    print(f"  alpha code {code:>3}: coeffs {val.canonical()}  |S| in "
          f"[{iv.lo:.3f}, {iv.hi:.3f}]")

print()
rep = check_orthogonality(F, e, 0)
print(f"orthogonality m=0: {rep.verdict}; both sides {rep.rhs}")
rep = check_orthogonality(F, e, 1)
print(f"orthogonality m=1: {rep.verdict}")

print()
print("minimal divisor degrees over the 243 base functionals")
tab = divisor_table(3, 4)
print(" ", dict(sorted(Counter(int(x) for x in tab.degree).items())))
print("functionals with several minimizers at their minimal degree:",
      int((tab.multiplicity > 1).sum()),
      "(all at the boundary degree 3, where two coprime cubic divisors fit)")

label = classify_arc(dual_from_code(3, 4, 0, 17), e)
print(f"functional 17 classifies as {label.kind}, degree {label.degree}")

print()
print("the collapse input: the auxiliary linear sum vanishes for every")
print("nonzero low-degree functional at every generating base point")
print(" ", t_vanishing_report(F, e, samples=40, seed=1).verdict)
