"""Alexander polynomials for torus knots and their connected sums.

Torus knots use the closed formula

    Delta_{T(p,q)}(t) = (t^(p*q) - 1)(t - 1) / ((t^p - 1)(t^q - 1)),

written with no numerator and no division.  For coprime 1 < p < q, with
r p + s q = (p - 1)(q - 1) = 2 genus and r, s >= 0,

    t^genus Delta = sum_{i<=r, j<=s} t^(ip + jq) - sum_{r<i<q, s<j<p} t^(ip + jq - pq),

and the terms alternate +1, -1, ..., +1 along Delta (T. Y. Lam and K. H.
Leung, On the cyclotomic polynomial Phi_pq(X), Amer. Math. Monthly 103,
1996).  One writer interleaves the two grids' ascending exponents; the
family's T(p, p+1) and every T(2, q) have one row per grid.  It writes
Delta from t^-genus, centered, and its result passes two checks: the span
is 2 genus, and Delta(1) = 1, a sum of the coefficients.  So connected
sums multiply centered factors into a centered product, symmetrize only
checks the result, and the raw representative (symmetrize=False) is Delta
times t^genus.
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
from array import array

from .laurent import (
    INT64_MAX,
    ExponentOverflowError,
    LaurentPoly,
    VariableSet,
    _from_canonical,
    _Frozen,
    _require_int,
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
_WINDOW = 2048  # least exponents per row in a window of the torus writer


class InternalInconsistencyError(RuntimeError):
    """A closed formula violated a property it is supposed to guarantee.

    Raised when the torus writer's two exponent grids have the wrong sizes,
    or the quotient inside alexander_torus has the wrong span or a value at
    t = 1 other than 1.
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
        for v in (p, q):
            _require_int(v, "torus knot parameter")
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


def _check_torus_exponent(p: int, q: int) -> None:
    # refuses T(p, q), p > 1, whose pq leaves the signed 64-bit range (no t^(pq) is built)
    if p * q > INT64_MAX:
        raise ExponentOverflowError(f"T({p},{q}) needs exponent {p * q} > {INT64_MAX}")


def _grid(
    keys: array, start: int, m: int, a: int, ii: range, b: int, jj: range, shift: int
) -> int:
    # writes the distinct exponents i a + j b + shift, i in ii and j in jj,
    # ascending into keys[start::2], which has m slots, and returns how many
    # it wrote: one row of step b per i of the shorter side.  Each pass
    # slices the rows to one window of b * w exponents, sorts it and writes
    # it to its strided slice, so at most a window's exponents are int
    # objects at a time and no whole-grid array is built; w is at least the
    # row count, so the passes' slices number at most the grid's span over b,
    # plus the rows.  A window that would pass the m-th slot raises before
    # it is written
    if not (ii and jj):
        return 0
    if len(ii) > len(jj):
        a, ii, b, jj = b, jj, a, ii
    rows = [range(i * a + jj.start * b + shift, i * a + jj.stop * b + shift, b) for i in ii]
    w = max(_WINDOW, len(rows))
    count = 0
    for low in range(rows[0].start, rows[-1][-1] + 1, b * w):
        window = []
        for row in rows:
            k = -((row.start - low) // b)  # row[k] is the row's first exponent >= low
            window += row[max(k, 0):max(k + w, 0)]
        window.sort()
        end = count + len(window)
        if end > m:
            p, q = sorted((a, b))
            raise InternalInconsistencyError(f"T({p},{q}) grid holds more than {m} exponents")
        keys[start + 2 * count:start + 2 * end:2] = array("q", window)
        count = end
    return count


def _sized(p: int, q: int, m: int, count: int) -> None:
    # each grid's count is checked once it is written, before the next grid
    if count != m:
        raise InternalInconsistencyError(f"T({p},{q}) grid holds {count} exponents, not {m}")


def _torus_delta(p: int, q: int) -> LaurentPoly:
    # Delta_T(p,q) centered, 1 < p < q, from the two grids of the module
    # docstring: +1 at even and -1 at odd places.  Every exponent lies in
    # [-g, g]; the caller checks that pq is in range
    g = (p - 1) * (q - 1) // 2
    s = (pow(q, -1, p) - 1) % p
    r = (2 * g - s * q) // p
    m = (r + 1) * (s + 1)
    keys = array("q", [0]) * (2 * m - 1)
    _sized(p, q, m, _grid(keys, 0, m, p, range(r + 1), q, range(s + 1), -g))
    _sized(p, q, m - 1, _grid(keys, 1, m - 1, p, range(r + 1, q), q, range(s + 1, p), -p * q - g))
    coeffs = [1, -1] * m
    coeffs.pop()
    return _from_canonical(T_VARS, keys, coeffs)


def _torus_quotient(p: int, q: int) -> LaurentPoly:
    # t^-g (t^(pq) - 1)(t - 1) / ((t^p - 1)(t^q - 1)), g the genus: centered
    if p == 1:
        return LaurentPoly.one(T_VARS)
    _check_torus_exponent(p, q)
    g = (p - 1) * (q - 1) // 2
    quotient = _torus_delta(p, q)
    # the writer's ascending exponents must start at -g and end at g: span 2g
    keys = quotient._keys
    if not (keys and keys[0] == -g and keys[-1] == g):
        raise InternalInconsistencyError(
            f"T({p},{q}) quotient does not run from t^{-g} to t^{g}: its span is not {2 * g}"
        )
    value = sum(quotient._terms)
    if value != 1:
        raise InternalInconsistencyError(f"T({p},{q}) quotient has Delta(1) = {value}, not 1")
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

# each constructor's builder and arguments: E a subexpression, a letter an integer
_CONSTRUCTORS = {
    "unknot": (Unknot, ""),
    "torus": (Torus.of, "pq"),
    "mirror": (Mirror, "E"),
    "sum": (ConnectedSum, "EE"),
}


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
        if head not in _CONSTRUCTORS:
            raise KnotParseError(f"unknown knot constructor {head!r}")
        build, kinds = _CONSTRUCTORS[head]
        args = []
        for i, kind in enumerate(kinds):
            take("," if i else "(")
            args.append(parse_expr(depth + 1) if kind == "E" else take())
        if kinds:
            take(")")
        if not all(arg.isdigit() for arg, kind in zip(args, kinds) if kind != "E"):
            raise KnotParseError(f"{head}({','.join(kinds)}) needs integer parameters")
        try:
            return build(*(arg if kind == "E" else int(arg) for arg, kind in zip(args, kinds)))
        except ValueError as exc:
            raise KnotParseError(str(exc)) from exc

    expr = parse_expr(0)
    if cursor != len(tokens):
        raise KnotParseError(f"trailing input after knot expression: {tokens[cursor]!r}")
    return expr
