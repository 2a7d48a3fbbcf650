"""Tour of the exact Laurent polynomial layer.

Everything downstream (Alexander polynomials, SW polynomials, certificates)
is a value of this type, so this is the place to see the conventions:
canonical sparse form, descending-exponent printing, exact division, and
the unit normalization that makes symmetric representatives unique.
"""

from knotsurgery import LaurentPoly, NotDivisibleError, VariableSet

T = VariableSet("t")
t = LaurentPoly.var(T, "t")

# Construction is ordinary arithmetic on generators and integers.
trefoil = t - 1 + LaurentPoly.var(T, "t", -1)
print("trefoil polynomial:", trefoil)
print("squared:           ", trefoil * trefoil)

# Division is exact or it is an error; there is no floating point anywhere.
numerator = (t ** 6 - 1) * (t - 1)
denominator = (t ** 2 - 1) * (t ** 3 - 1)
print("closed-formula quotient:", numerator.exact_divide(denominator))
try:
    (t ** 2 + 1).exact_divide(t - 1)
except NotDivisibleError as exc:
    print("non-divisible pair is refused:", exc)

# Symmetrize picks the unique unit multiple with P(1/t) = P(t) and a
# positive top coefficient; that canonical form is what gets compared.
raw = t ** 2 - t + 1
print("raw representative:", raw)
print("canonical form:    ", raw.symmetrize())
print("same up to units?  ", raw.equal_up_to_units(trefoil))

# Coefficients are arbitrary-precision integers.
huge = LaurentPoly.constant(T, 10 ** 40) * t ** 5 - 1
print("big coefficients survive serialization:",
      LaurentPoly.from_json(huge.to_json()) == huge)

# Text and JSON forms are deterministic: terms always print in descending
# exponent order, so output is stable across runs and machines.
two_vars = LaurentPoly.parse("t_K^2*t_G^-1 - 3")
print("two-variable term order:", two_vars)
print("JSON form:\n" + two_vars.to_json())
