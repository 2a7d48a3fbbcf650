"""Fox free differential calculus on small knot-group presentations.

This is the independent cross-check for the torus-knot closed formula.  For
a knot group presented as <x, y | r> with abelianization phi sending each
generator to a power of t, the Alexander polynomial satisfies

    Delta(t) = phi(dr/dx) * (t - 1) / (phi(y) - 1)       (up to units)

where dr/dx is the Fox derivative of the relator with respect to the first
generator.  For T(p, q) the presentation is <x, y | x^p y^-q> with
phi(x) = t^q and phi(y) = t^p.

Words are tuples of nonzero ints: letter +k is generator number k (1-based)
and -k is its inverse.  The numerator phi(dr/dx) * (t - 1) is built run by
run, not letter by letter and with no polynomial product: a run g^n of the
generator adds an arithmetic progression of n exponents, once shifted by +1
and once subtracted in place, into two plain lists at C level.  When no
exponent repeats or is shared, as for x^p y^-q with q > 1, the numerator is
their sorted union with coefficients +-1; otherwise the lists are counted.
So the Python-level work is one step per run, and the quotient is the
Laurent layer's exact division.
"""

from __future__ import annotations

import operator
from array import array
from collections import Counter
from collections.abc import Mapping
from itertools import groupby, repeat

from .laurent import (
    LaurentPoly,
    VariableSet,
    _checked_exponent,
    _from_canonical,
    _from_dict,
    _Frozen,
    _require_int,
)

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
            for letter in word:  # a bool is not a letter
                if type(letter) is not int or not 0 < abs(letter) <= n:
                    raise ValueError(f"letter {letter!r} is not a valid generator index")
            if 0 in map(operator.add, word, word[1:]):
                raise ValueError(f"relator {word!r} is not freely reduced")
        self._store(generators=generators, relators=relators)

    @classmethod
    def torus_knot(cls, p: int, q: int) -> "GroupPresentation":
        """<x, y | x^p y^-q>, the standard torus-knot group presentation."""
        for v in (p, q):
            _require_int(v, "torus knot presentation parameter", 1)
        # the word is valid by construction: letters 1 and -2 of two
        # generators, and no letter next to its inverse
        g = object.__new__(cls)
        g._store(generators=("x", "y"), relators=((1,) * p + (-2,) * q,))
        return g


def _fox_numerator(
    word: tuple[int, ...], wrt: int, exponent_of: Mapping[int, int]
) -> LaurentPoly:
    """phi(dw/dg) * (t - 1) for g the generator with 1-based index wrt.

    Uses the product rule d(uv) = du + phi(u) dv run by run, keeping only the
    running abelianized prefix instead of the free-group prefix.  A run g^n
    of the wrt generator, phi(g) = t^step, adds t^prefix, t^(prefix + step),
    ..., t^(prefix + (n-1) step) to the derivative; a run g^-n first moves
    the prefix down by n step and then subtracts the same progression.  Times
    t - 1, a progression the derivative adds is added shifted by +1 and
    subtracted in place, and one it subtracts the other way round, so the
    numerator needs no product.  The progression's exponents are monotone,
    so its two ends, and the higher one plus 1, bound them all.

    Each progression is appended to a plain list, plus or minus.  If
    neither list repeats an exponent and they share none, each coefficient
    is +-1 by membership and the sorted union is written directly;
    otherwise (a step-0 run repeats its exponent, progressions that meet
    may cancel) the lists are counted with a Counter.
    """
    plus, minus = [], []
    prefix = 0
    for letter, run in groupby(word):
        n = len(tuple(run))
        step = exponent_of[abs(letter)]
        if letter < 0:
            prefix -= n * step
        if abs(letter) == wrt:
            last = prefix + (n - 1) * step
            _checked_exponent(prefix)
            _checked_exponent(last)
            _checked_exponent(max(prefix, last) + 1)
            up, down = (plus, minus) if letter > 0 else (minus, plus)
            if step:
                up.extend(range(prefix + 1, prefix + n * step + 1, step))
                down.extend(range(prefix, prefix + n * step, step))
            else:
                up.extend(repeat(prefix + 1, n))
                down.extend(repeat(prefix, n))
        if letter > 0:
            prefix += n * step
    ups = set(plus)
    if len(ups) == len(plus) and len(set(minus)) == len(minus) and ups.isdisjoint(minus):
        keys = sorted(plus + minus)
        signs = [1 if e in ups else -1 for e in keys]
        return _from_canonical(_T, array("q", keys), signs)
    acc = Counter(plus)
    acc.subtract(minus)
    return _from_dict(_T, acc)


def alexander_fox_oracle(
    g: GroupPresentation, abelianization: Mapping[str, int]
) -> LaurentPoly:
    """Alexander polynomial of a small presentation via Fox calculus.

    abelianization maps each generator name to the exponent of t it is sent
    to.  Every relator must die under the map (otherwise it does not define
    a homomorphism onto the infinite cyclic group).  The numerator
    phi(dr/dx) * (t - 1) is built run-wise by _fox_numerator and divided
    exactly by phi(y) - 1.  The result is canonical but not symmetrized;
    compare with equal_up_to_units.
    """
    for name in g.generators:
        if name not in abelianization:
            raise ValueError(f"abelianization does not cover generator {name!r}")
    exponent_of = {
        i + 1: _require_int(abelianization[name], "exponent")
        for i, name in enumerate(g.generators)
    }

    for word in g.relators:
        image = sum(
            exponent_of[abs(letter)] * (count if letter > 0 else -count)
            for letter, count in Counter(word).items()
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
    numerator = _fox_numerator(g.relators[0], 1, exponent_of)
    return numerator.exact_divide(_from_dict(_T, {_checked_exponent(ey): 1, 0: -1}))
