"""Alexander polynomials of torus knots and connected sums.

The closed formula (t^(pq) - 1)(t - 1) / ((t^p - 1)(t^q - 1)) is evaluated
by exact division, one residue class mod q at a time, with its remainder and
span checked, so any arithmetic slip would surface as a NotDivisibleError or
an InternalInconsistencyError rather than a wrong polynomial.
"""

from knotsurgery import (
    ConnectedSum,
    Mirror,
    Torus,
    TorusKnotSpec,
    Unknot,
    alexander_expr,
    alexander_torus,
    genus_torus,
    parse_knot_expr,
)

# The first few torus knots.
for p, q in [(2, 3), (2, 5), (3, 4), (3, 5)]:
    spec = TorusKnotSpec(p, q)
    delta = alexander_torus(spec)
    print(f"T({p},{q}): genus {genus_torus(spec)}, span {delta.span()}")
    print(f"         {delta}")

# Torus knots are fibered, so the polynomial span is exactly twice the
# genus, and every coefficient is -1 or +1.
spec = TorusKnotSpec(5, 6)
delta = alexander_torus(spec)
assert delta.span() == 2 * genus_torus(spec)
assert all(c in (-1, 1) for _, c in delta.terms())
print(f"T(5,6) has {delta.term_count()} nonzero terms")

# Knot expressions: connected sums multiply, mirrors change nothing the
# Alexander polynomial can see.
granny = ConnectedSum(Torus.of(2, 3), Torus.of(2, 3))
square = ConnectedSum(Torus.of(2, 3), Mirror(Torus.of(2, 3)))
print("granny knot:", alexander_expr(granny))
print("square knot:", alexander_expr(square))
assert alexander_expr(granny) == alexander_expr(square)

# The same trees can be written in the CLI grammar.
expr = parse_knot_expr("sum(torus(2,3),unknot)")
assert expr == ConnectedSum(Torus.of(2, 3), Unknot())
print("sum with unknot:", alexander_expr(expr))
