"""Fox free differential calculus on small knot-group presentations.

This is the independent cross-check for the torus-knot closed formula.  For
a knot group presented as <x, y | r> with abelianization phi sending each
generator to a power of t, the Alexander polynomial satisfies

    Delta(t) = phi(dr/dx) * (t - 1) / (phi(y) - 1)       (up to units)

where dr/dx is the Fox derivative of the relator with respect to the first
generator.  For T(p, q) the presentation is <x, y | x^p y^-q> with
phi(x) = t^q and phi(y) = t^p.

Words are tuples of nonzero ints: letter +k is generator number k (1-based)
and -k is its inverse.
"""

from __future__ import annotations

from collections.abc import Mapping

from .laurent import LaurentPoly, VariableSet, _Frozen

__all__ = [
    "UnsupportedPresentationError",
    "GroupPresentation",
    "alexander_fox_oracle",
]

_T = VariableSet("t")


class UnsupportedPresentationError(ValueError):
    """The oracle only handles <x | > and 2-generator 1-relator presentations."""


class GroupPresentation(_Frozen):
    """A finite presentation with freely reduced relators."""

    def __init__(self, generators: tuple[str, ...], relators: tuple[tuple[int, ...], ...]):
        generators = tuple(generators)
        relators = tuple(tuple(w) for w in relators)
        if len(set(generators)) != len(generators):
            raise ValueError("duplicate generator names")
        n = len(generators)
        for word in relators:
            for letter in word:
                if type(letter) is not int or not 0 < abs(letter) <= n:  # a bool is not a letter
                    raise ValueError(f"letter {letter!r} is not a valid generator index")
            for a, b in zip(word, word[1:]):
                if a == -b:
                    raise ValueError(f"relator {word!r} is not freely reduced")
        self._store(generators=generators, relators=relators)

    @classmethod
    def torus_knot(cls, p: int, q: int) -> "GroupPresentation":
        """<x, y | x^p y^-q>, the standard torus-knot group presentation."""
        if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in (p, q)):
            raise ValueError(f"torus knot presentation needs positive p, q, got {p!r}, {q!r}")
        return cls(("x", "y"), ((1,) * p + (-2,) * q,))

    @classmethod
    def unknot(cls) -> "GroupPresentation":
        """<x | >, the infinite cyclic group."""
        return cls(("x",), ())


def _abelianized_fox_derivative(
    word: tuple[int, ...], wrt: int, exponent_of: Mapping[int, int]
) -> LaurentPoly:
    """phi(dw/dg) for g the generator with 1-based index wrt.

    Uses the product rule d(uv) = du + phi(u) dv letter by letter, keeping
    only the running abelianized prefix instead of the free-group prefix.
    """
    terms: dict[tuple[int, ...], int] = {}
    prefix = 0
    for letter in word:
        gen = abs(letter)
        step = exponent_of[gen]
        if letter > 0:
            if gen == wrt:
                terms[(prefix,)] = terms.get((prefix,), 0) + 1
            prefix += step
        else:
            prefix -= step
            if gen == wrt:
                terms[(prefix,)] = terms.get((prefix,), 0) - 1
    return LaurentPoly(_T, terms)


def alexander_fox_oracle(
    g: GroupPresentation, abelianization: Mapping[str, int]
) -> LaurentPoly:
    """Alexander polynomial of a small presentation via Fox calculus.

    abelianization maps each generator name to the exponent of t it is sent
    to.  Every relator must die under the map (otherwise it does not define
    a homomorphism onto the infinite cyclic group).  The result is canonical
    but not symmetrized; compare with equal_up_to_units.
    """
    for name in g.generators:
        if name not in abelianization:
            raise ValueError(f"abelianization does not cover generator {name!r}")
    exponent_of = {i + 1: abelianization[name] for i, name in enumerate(g.generators)}

    for word in g.relators:
        image = sum(
            exponent_of[abs(letter)] * (1 if letter > 0 else -1) for letter in word
        )
        if image != 0:
            raise ValueError(
                f"relator {word!r} maps to t^{image}, not 1: not a homomorphism"
            )

    if len(g.generators) == 1 and not g.relators:
        return LaurentPoly.one(_T)
    if len(g.generators) != 2 or len(g.relators) != 1:
        raise UnsupportedPresentationError(
            "oracle needs <x | > or a 2-generator 1-relator presentation, got "
            f"{len(g.generators)} generators and {len(g.relators)} relators"
        )

    ey = exponent_of[2]
    if ey == 0:
        raise UnsupportedPresentationError(
            "abelianization kills the second generator; the recipe divides by phi(y) - 1"
        )
    t = LaurentPoly.var(_T, "t")
    dr_dx = _abelianized_fox_derivative(g.relators[0], 1, exponent_of)
    numerator = dr_dx * (t - 1)
    return numerator.exact_divide(LaurentPoly.var(_T, "t", ey) - 1)
