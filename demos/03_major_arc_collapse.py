"""The major-arc collapse, verified exactly at jet orders 1, 2 and 3.

Grouping the dual sum by minimal divisors and collapsing the top jet layer
leaves exactly p^((n+1)(e+1)) times the full dual sum one layer down; the
pair version squares the factor.  Both sides are computed independently
(the left through divisor-grouped class sums, the right through the
lower-layer transform) and compared as cyclotomic integers.
"""

import time

from jetsums.expsums import check_major_identity
from jetsums.forms import conic_form

F = conic_form(3)

# e = 2 up to jet order 2; the order 3 identity needs the jet order 2 sums,
# which the budget admits at e = 1
cases = [(2, 1, False), (2, 1, True), (2, 2, False), (2, 2, True),
         (1, 3, False), (1, 3, True)]
for e, m, pairs in cases:
    t0 = time.time()
    rep = check_major_identity(F, e, m, pairs=pairs)
    kind = "pairs  " if pairs else "singles"
    print(
        f"e={e} m={m} {kind}: {rep.verdict:>5}  factor p^{rep.params['factor_exponent']}"
        f"  ({time.time() - t0:.1f}s)"
    )

print()
print("the identity holds even though boundary functionals factor through")
print("several minimal divisors: their sums vanish, so the multiplicity in")
print("the divisor-grouped double sum costs nothing")
