"""From link data to Seiberg-Witten polynomials of the family X_p.

The member with index p is built on the link K u Gamma_p, where Gamma_p is
T(p, p+1) and the linking number is 1.  The full two-variable link
polynomial is unknown, but the Torres condition pins down its x = 1
specialization, and that is enough to bound the number of basic classes of
X_p from below by a term count that grows with p.
"""

import sys

from knotsurgery import (
    LaurentPoly,
    LinkFamilyMember,
    SurgerySpec,
    family_rows,
    sw_link_surgery,
    sw_prefactor,
    sw_specialized,
    torres_specialize,
    write_family,
)

# The Torres condition, in isolation: with linking number 1 the
# specialization collapses to the component polynomial unchanged, and with
# larger linking numbers a geometric sum comes in.
delta = LaurentPoly.parse("t - 1 + t^-1")
print("lk=1:", torres_specialize(delta, 1))
print("lk=3:", torres_specialize(delta, 3))

# The E(n) parameter contributes the prefactor (t_K - t_K^-1)^(n-1), which
# kills the t_K = 1 specialization for n >= 2 but leaves the term-count
# bound untouched.
print("prefactor for n=3:", sw_prefactor(3))

for n in (1, 2):
    result = sw_specialized(SurgerySpec(n, LinkFamilyMember(3)))
    print(
        f"p=3, n={n}: specialization {result.specialization_at_tK1}, "
        f"lower bound {result.basic_class_lower_bound}"
    )

# A synthetic link polynomial can be pushed through the full formula; this
# is how the prefactor law is tested without knowing the true Delta_L.
synthetic = LaurentPoly.parse("x*y - 1")
sw = sw_link_surgery(SurgerySpec(2, LinkFamilyMember(1)), synthetic)
print("synthetic full SW polynomial:", sw)
print("its t_K = 1 value:", sw.evaluate_at_one("t_K"))

# Family reports aggregate the per-index data for a whole range; the rows
# are built as they are written.
print()
write_family("csv", 1, family_rows(n=1, p_min=1, p_max=8), sys.stdout.write)
print()
