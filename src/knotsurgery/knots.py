"""Alexander polynomials for torus knots and their connected sums.

Torus knots use the closed formula

    Delta_{T(p,q)}(t) = (t^(p*q) - 1)(t - 1) / ((t^p - 1)(t^q - 1)),

with the first quotient written down as (t - 1)(1 + t^p + ... + t^((q-1)p))
and divided by t^q - 1 with the Laurent layer's running-sum kernel, one
residue class mod q at a time.  The numerator starts at t^-genus, so the
kernel writes Delta already centered, connected sums multiply centered
factors into a centered product, and symmetrize only checks the result; the
raw representative (symmetrize=False) is that Delta times t^genus.
Mirroring is the identity on these invariants (Alexander polynomials cannot
see chirality), so Mirror nodes exist purely to record how a knot was described.

Knot expressions have a small text grammar used by the CLI:

    unknot | torus(p,q) | mirror(E) | sum(E,E)

with at most MAX_KNOT_DEPTH = 200 mirror/sum nodes around any subexpression,
far below the interpreter's recursion limit that parsing, evaluation and
formatting (all recursive) would otherwise hit.  Parameters are ASCII
digits, and the text is split by the polynomial grammar's tokenizer.
"""

from __future__ import annotations

import math
import re
from itertools import repeat

from .laurent import (
    INT64_MAX,
    ExponentOverflowError,
    LaurentPoly,
    VariableSet,
    _binomial_quotient,
    _Frozen,
    _tokenize,
)

__all__ = [
    "InternalInconsistencyError",
    "KnotParseError",
    "TorusKnotSpec",
    "KnotExpr",
    "Unknot",
    "Torus",
    "Mirror",
    "ConnectedSum",
    "alexander_torus",
    "alexander_expr",
    "genus_torus",
    "parse_knot_expr",
    "format_knot_expr",
    "T_VARS",
    "MAX_KNOT_DEPTH",
]

T_VARS = VariableSet("t")
MAX_KNOT_DEPTH = 200


class InternalInconsistencyError(RuntimeError):
    """A closed formula violated a property it is supposed to guarantee.

    Raised when the quotient inside alexander_torus has the wrong span.
    Unreachable for valid inputs; seeing it means the arithmetic layer has a
    bug.
    """


class KnotParseError(ValueError):
    """A knot expression string could not be parsed."""


class TorusKnotSpec(_Frozen):
    """The torus knot T(p, q), normalized so p <= q.

    p and q must be positive and coprime; T(1, q) is the unknot.
    """

    def __init__(self, p: int, q: int):
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (p, q)):
            raise TypeError("torus knot parameters must be integers")
        if p < 1 or q < 1:
            raise ValueError(f"torus knot parameters must be positive, got T({p},{q})")
        if math.gcd(p, q) != 1:
            raise ValueError(f"T({p},{q}) is a link, not a knot: gcd must be 1")
        self._store(p=min(p, q), q=max(p, q))

    def is_unknot(self) -> bool:
        return self.p == 1


class KnotExpr:
    """Base of the knot expression tree; see the module grammar."""

    __slots__ = ()


class Unknot(KnotExpr, _Frozen):
    pass


class Torus(KnotExpr, _Frozen):
    def __init__(self, spec: TorusKnotSpec):
        self._store(spec=spec)

    @classmethod
    def of(cls, p: int, q: int) -> "Torus":
        return cls(TorusKnotSpec(p, q))


class Mirror(KnotExpr, _Frozen):
    def __init__(self, inner: KnotExpr):
        self._store(inner=inner)


class ConnectedSum(KnotExpr, _Frozen):
    def __init__(self, left: KnotExpr, right: KnotExpr):
        self._store(left=left, right=right)


def _torus_quotient(p: int, q: int) -> LaurentPoly:
    # t^-g (t^(pq) - 1)(t - 1) / ((t^p - 1)(t^q - 1)), g the genus: centered
    if p == 1:
        return LaurentPoly.one(T_VARS)
    if p * q > INT64_MAX:
        raise ExponentOverflowError(f"T({p},{q}) needs exponent {p * q} > {INT64_MAX}")
    g = (p - 1) * (q - 1) // 2
    # t^-g (t - 1)(1 + t^p + ... + t^((q-1)p)), ascending; distinct terms as p >= 2
    partial: list = [None] * (2 * q)
    partial[0::2] = zip(range(-g, q * p - g, p), repeat(-1))
    partial[1::2] = zip(range(1 - g, 1 + q * p - g, p), repeat(1))
    quotient = _binomial_quotient(T_VARS, partial, q)
    span = quotient.span()
    if span != 2 * g:
        raise InternalInconsistencyError(f"T({p},{q}) quotient has span {span}, expected {2 * g}")
    return quotient


def alexander_torus(k: TorusKnotSpec) -> LaurentPoly:
    """Symmetrized Alexander polynomial of a torus knot."""
    return _torus_quotient(k.p, k.q).symmetrize()


def genus_torus(k: TorusKnotSpec) -> int:
    """Seifert genus of T(p, q): (p-1)(q-1)/2.

    Torus knots are fibered, so span(alexander_torus(k)) = 2 * genus.
    """
    return (k.p - 1) * (k.q - 1) // 2


def _alexander_centered(k: KnotExpr) -> LaurentPoly:
    if isinstance(k, Unknot):
        return LaurentPoly.one(T_VARS)
    if isinstance(k, Torus):
        return _torus_quotient(k.spec.p, k.spec.q)
    if isinstance(k, Mirror):
        return _alexander_centered(k.inner)
    if isinstance(k, ConnectedSum):
        return _alexander_centered(k.left) * _alexander_centered(k.right)
    raise TypeError(f"not a knot expression: {k!r}")


def alexander_expr(k: KnotExpr, symmetrize: bool = True) -> LaurentPoly:
    """Alexander polynomial of a knot expression.

    Connected sums multiply centered factors and Mirror is the identity, so
    symmetrize only checks the product.  With symmetrize false the result is
    the raw representative Delta * t^(span/2), which starts at t^0.
    """
    delta = _alexander_centered(k).symmetrize()
    return delta if symmetrize else delta * LaurentPoly.var(T_VARS, "t", delta.span() // 2)


def format_knot_expr(k: KnotExpr) -> str:
    if isinstance(k, Unknot):
        return "unknot"
    if isinstance(k, Torus):
        return f"torus({k.spec.p},{k.spec.q})"
    if isinstance(k, Mirror):
        return f"mirror({format_knot_expr(k.inner)})"
    if isinstance(k, ConnectedSum):
        return f"sum({format_knot_expr(k.left)},{format_knot_expr(k.right)})"
    raise TypeError(f"not a knot expression: {k!r}")


_KNOT_TOKEN_RE = re.compile(r"\s*(?:(?P<word>[a-z]+)|(?P<int>[0-9]+)|(?P<punct>[(),]))")


def parse_knot_expr(text: str) -> KnotExpr:
    """Parse the grammar `unknot | torus(p,q) | mirror(E) | sum(E,E)`.

    Nesting deeper than MAX_KNOT_DEPTH mirror/sum levels is a KnotParseError.
    """
    tokens = [tok for _, tok in _tokenize(_KNOT_TOKEN_RE, text, KnotParseError)]
    cursor = 0

    def take(expected: str | None = None) -> str:
        nonlocal cursor
        if cursor >= len(tokens):
            raise KnotParseError("unexpected end of knot expression")
        tok = tokens[cursor]
        cursor += 1
        if expected is not None and tok != expected:
            raise KnotParseError(f"expected {expected!r}, got {tok!r}")
        return tok

    def parse_expr(depth: int) -> KnotExpr:
        if depth > MAX_KNOT_DEPTH:
            raise KnotParseError(f"knot expression nests deeper than {MAX_KNOT_DEPTH} levels")
        head = take()
        if head == "unknot":
            return Unknot()
        if head == "torus":
            take("(")
            p = take()
            take(",")
            q = take()
            take(")")
            if not (p.isdigit() and q.isdigit()):
                raise KnotParseError("torus(p,q) needs integer parameters")
            try:
                return Torus(TorusKnotSpec(int(p), int(q)))
            except ValueError as exc:
                raise KnotParseError(str(exc)) from exc
        if head == "mirror":
            take("(")
            inner = parse_expr(depth + 1)
            take(")")
            return Mirror(inner)
        if head == "sum":
            take("(")
            left = parse_expr(depth + 1)
            take(",")
            right = parse_expr(depth + 1)
            take(")")
            return ConnectedSum(left, right)
        raise KnotParseError(f"unknown knot constructor {head!r}")

    expr = parse_expr(0)
    if cursor != len(tokens):
        raise KnotParseError(f"trailing input after knot expression: {tokens[cursor]!r}")
    return expr
