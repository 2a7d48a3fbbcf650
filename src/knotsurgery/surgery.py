"""Seiberg-Witten polynomials of the link-surgery family.

The family member with index p is built from the two-component link
L_p = K u Gamma_p, where Gamma_p is the torus knot T(p, p+1) and the
linking number of the components is 1.  The surgery manifold X_p built from
E(n) has

    SW(X_p) = (t_K - t_K^-1)^(n-1) * Delta_L(t_K^2, t_G^2),

and the Torres condition pins down the specialization

    Delta_L(1, y) = (1 + y + ... + y^(lk-1)) * Delta_Gamma(y),

computed as Delta_Gamma * (y^lk - 1) / (y - 1) by the Laurent layer's
running sum over Delta_Gamma's own terms, at a cost proportional to the
input and output terms.

The full two-variable Delta_L is not determined by this data, so the
pipeline works through the specialization: sw_link_surgery, the one route
to the full polynomial, takes an explicit Delta_L for synthetic checks,
while sw_specialized carries the specialization and the basic-class lower
bound it yields, doubling Delta_L(1, y), from Torres or Delta_L, just once.
For n >= 2 the prefactor vanishes at t_K = 1, so the specialization is
zero by that law and is written down, not evaluated.  Each nonzero term of
an SW polynomial marks a basic class, so term counts bound the number of
basic classes from below, and basic_class_lower_bound is the one route to
that bound; it keeps nothing between calls.
"""

from __future__ import annotations

from .knots import TorusKnotSpec, alexander_torus
from .laurent import (
    LaurentPoly,
    VariableSet,
    _Frozen,
    _checked_exponent,
    _from_canonical,
    _geometric_multiple,
    _require_int,
    _require_one_variable,
    _write_text,
)

__all__ = [
    "KG_VARS",
    "TG_VARS",
    "XY_VARS",
    "LinkFamilyMember",
    "SurgerySpec",
    "SWResult",
    "torres_specialize",
    "sw_prefactor",
    "sw_link_surgery",
    "sw_specialized",
    "basic_class_lower_bound",
]

KG_VARS = VariableSet("t_K", "t_G")
TG_VARS = VariableSet("t_G")
XY_VARS = VariableSet("x", "y")


class LinkFamilyMember(_Frozen):
    """The link L_p = K u Gamma_p with Gamma_p = T(p, p+1) and lk = 1.

    No invariant computed here depends on the companion knot K.
    """

    def __init__(self, p: int):
        _require_int(p, "family index", 1)
        self._store(p=p, gamma=TorusKnotSpec(p, p + 1), linking_number=1)


class SurgerySpec(_Frozen):
    """The manifold X_p = E(n, 1; L_p): an E(n) parameter and a family member."""

    def __init__(self, n: int, member: LinkFamilyMember):
        _require_int(n, "E(n) parameter", 1)
        self._store(n=n, member=member)


class SWResult(_Frozen):
    """SW data for one X_p.

    polynomial is the full two-variable SW polynomial when a closed-form
    Delta_L was supplied, and None otherwise (the family pipeline cannot
    know it).  specialization_at_tK1 is the honest t_K = 1 specialization,
    which the prefactor kills for n >= 2.  The lower bound always counts
    the terms of the n = 1 specialization, since the basic-class bound does
    not depend on the prefactor.
    """

    def __init__(
        self, p: int, n: int, polynomial: LaurentPoly | None,
        specialization_at_tK1: LaurentPoly, basic_class_lower_bound: int
    ):
        self._store(
            p=p, n=n, polynomial=polynomial, specialization_at_tK1=specialization_at_tK1,
            basic_class_lower_bound=basic_class_lower_bound
        )

    def to_json_dict(self) -> dict:
        """The result's fields, with its polynomials as LaurentPoly values."""
        return {
            "p": self.p,
            "n": self.n,
            "specialization": self.specialization_at_tK1,
            "lower_bound": self.basic_class_lower_bound,
            "full_polynomial": "unavailable" if self.polynomial is None else self.polynomial,
        }


def _write_sw_text(doc: dict, write) -> None:
    # the text form of an SWResult document, both polynomials streamed
    write(f"p = {doc['p']}\nn = {doc['n']}\nspecialization at t_K = 1: ")
    _write_text(doc["specialization"], write)
    write(f"\nbasic-class lower bound: {doc['lower_bound']}\nfull polynomial: ")
    full = doc["full_polynomial"]
    if isinstance(full, str):
        write(full)
    else:
        _write_text(full, write)


def torres_specialize(delta_gamma: LaurentPoly, lk: int) -> LaurentPoly:
    """Delta_L(1, y) from the component polynomial and the linking number.

    The product with the geometric sum 1 + y + ... + y^(lk-1) is the
    quotient delta_gamma * (y^lk - 1) / (y - 1), taken as one running sum
    over the terms of delta_gamma, so the cost follows the input and output
    terms and no geometric sum, numerator or product is built.  A constant
    with no variables is read over y first.  lk = 0 gives 0, lk = 1 gives
    delta_gamma back.
    """
    _require_int(lk, "linking number", 0)
    _require_one_variable("torres_specialize", delta_gamma)
    if len(delta_gamma.variables) == 0:
        delta_gamma = LaurentPoly.constant(VariableSet("y"), delta_gamma.coefficient(()))
    if lk == 1:
        return delta_gamma
    return _geometric_multiple(delta_gamma, lk)


def sw_prefactor(n: int) -> LaurentPoly:
    """(t_K - t_K^-1)^(n-1), the part of SW(X_p) the E(n) factor contributes.

    Written from its binomial coefficients in ascending order, with no
    product taken: for m = n - 1 the coefficient of t_K^(2j-m) is
    (-1)^(m-j) C(m, j), each found from the one before it by one multiply
    and one exact divide, so the work takes n steps, linear in n.  m is
    checked against the 64-bit exponent range before the first term is
    built, so an n past that range fails at once.
    """
    _require_int(n, "E(n) parameter", 1)
    m = _checked_exponent(n - 1)
    keys, coeffs, c = [], [], -1 if m % 2 else 1
    for j in range(m + 1):
        keys.append((2 * j - m, 0))
        coeffs.append(c)
        c = -c * (m - j) // (j + 1)
    return _from_canonical(KG_VARS, keys, coeffs)


def sw_link_surgery(spec: SurgerySpec, delta_L: LaurentPoly) -> LaurentPoly:
    """Full SW polynomial (t_K - t_K^-1)^(n-1) * Delta_L(t_K^2, t_G^2)."""
    images = {"x": (2, 0), "y": (0, 2)}  # delta_L may lack either variable
    for name in delta_L.variables:
        if name not in images:
            raise ValueError(f"delta_L may only use x and y, found {name!r}")
    return sw_prefactor(spec.n) * delta_L.substitute(images, into=KG_VARS)


def sw_specialized(spec: SurgerySpec, delta_L: LaurentPoly | None = None) -> SWResult:
    """SW data for X_p through the t_K = 1 specialization.

    Without delta_L this is the production path: the specialization comes
    from the Torres condition and the full polynomial is unavailable.  With
    an explicit delta_L (over x, y) the full polynomial comes from
    sw_link_surgery.  Either way one substitution sets x to 1 and doubles
    Delta_L(1, y) into t_G.
    """
    member = spec.member
    if delta_L is None:
        # Torres with lk = 1 collapses Delta_L(1, y) to Delta_Gamma
        polynomial = None
        link = torres_specialize(alexander_torus(member.gamma), member.linking_number)
    else:
        polynomial, link = sw_link_surgery(spec, delta_L), delta_L
    # Delta_L(1, t_G^2) in one substitution: x to 1, and y or Torres' own t to t_G^2
    images = {name: (0,) if name == "x" else (2,) for name in link.variables}
    base = link.substitute(images, into=TG_VARS)
    # the prefactor (t_K - t_K^-1)^(n-1) vanishes at t_K = 1 for n >= 2
    specialization = base if spec.n == 1 else LaurentPoly.zero(TG_VARS)
    return SWResult(
        p=member.p,
        n=spec.n,
        polynomial=polynomial,
        specialization_at_tK1=specialization,
        basic_class_lower_bound=base.term_count(),
    )


def basic_class_lower_bound(p: int) -> int:
    """Nonzero-term count of Delta_{T(p,p+1)}; bounds the basic classes of X_p.

    Equals 2p - 1 for this family, so in particular it is at least p.
    Delta is written straight from Lam and Leung's two exponent grids, one
    row each for T(p, p+1), with no division, so the count costs O(p) time
    and about 16 bytes a term of Delta.
    """
    return alexander_torus(LinkFamilyMember(p).gamma).term_count()
