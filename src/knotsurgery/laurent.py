"""Exact sparse Laurent polynomial arithmetic over arbitrary-precision integers.

A polynomial is a finite map from exponent vectors to nonzero integer
coefficients.  Exponent vectors have one slot per variable of the owning
:class:`VariableSet`; slots may be negative (Laurent terms like ``t^-1``).
Coefficients are plain Python ints and never overflow.  Exponents are
restricted to the signed 64-bit range, and any operation that would leave
that range raises :class:`ExponentOverflowError` instead of wrapping.

The zero polynomial is the empty map.  Values are immutable and every
operation is a pure function, so instances can be shared freely between
concurrent callers.  Operations accumulate terms and drop the zero
coefficients in one place, so canonical form is enforced once.

A product checks its exponent range before any work: per variable, the sums
of the factors' lowest and of their highest exponents.  Both always occur in
the product, because Laurent polynomials over the integers have no zero
divisors.  A product of two one-variable polynomials whose exponent window
(the product's slot count) is no larger than the number of term pairs is
computed by Kronecker substitution: each factor is packed into one integer,
one machine-level multiply convolves them, and the bytes are read back one
slot per exponent.  Other products -- sparse, multivariate, or with a
single-term factor -- loop over the term pairs.

Division by t^q - 1, which the torus-knot formula and the Torres condition
both need, is one running-sum kernel that checks its own exponent range.
General exact division works on the stored exponents at any offset.

Text form: ``coeff*var^exp`` factors joined by ``+`` / ``-``, variables in
the set's fixed order, terms in descending lexicographic exponent order,
e.g. ``t_K^2*t_G^-1 - 3``; integers are ASCII digits, and the knot grammar
shares this grammar's tokenizer.  JSON form: ``{"variables": [...], "terms":
[{"exps": [...], "coeff": "<decimal string>"}]}`` -- coefficients travel as
decimal strings so arbitrary precision survives transport.  ``to_json`` is
compact.  The indented documents the CLI prints hold polynomials as
``LaurentPoly`` values, and one writer here turns them into the bytes of
``json.dumps(doc, indent=2, default=LaurentPoly.to_json_dict)``.
"""

from __future__ import annotations

import heapq
import json
import operator
import re
from collections.abc import Iterable, Iterator, Mapping

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

__all__ = [
    "INT64_MIN",
    "INT64_MAX",
    "ExponentOverflowError",
    "NotDivisibleError",
    "NotSymmetrizableError",
    "PolyParseError",
    "VariableSet",
    "LaurentPoly",
]


class ExponentOverflowError(OverflowError):
    """An exponent left the signed 64-bit range."""


class NotDivisibleError(ArithmeticError):
    """Exact division was requested but the remainder is nonzero."""


class NotSymmetrizableError(ArithmeticError):
    """No unit multiple of the input satisfies P(t) = P(1/t)."""


class PolyParseError(ValueError):
    """A polynomial text form could not be parsed."""


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_COEFF_RE = re.compile(r"-?[0-9]+\Z")


def _checked_exponent(e: int) -> int:
    if not (INT64_MIN <= e <= INT64_MAX):
        raise ExponentOverflowError(f"exponent {e} outside the signed 64-bit range")
    return e


def _as_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be int, got {type(value).__name__}")
    return value


def _require_int(value, what: str, minimum: int | None = None) -> None:
    # minimum is 0 (nonnegative), 1 (positive) or None (any integer); a bool
    # is an int to Python but not an integer argument here
    if not isinstance(value, int) or isinstance(value, bool) or (
        minimum is not None and value < minimum
    ):
        kind = {None: "an", 0: "a nonnegative", 1: "a positive"}[minimum]
        raise ValueError(f"{what} must be {kind} integer, got {value!r}")


def _require_one_variable(what: str, *polys: "LaurentPoly") -> None:
    for poly in polys:
        if len(poly.variables) > 1:
            names = poly.variables.names
            raise ValueError(f"{what} requires a single-variable polynomial, got {names}")


class _Frozen:
    # base of the package's immutable records: each __init__ stores its fields
    # once, in field order, through _store, and the instance dict then gives
    # equality (same class, equal fields), the hash of the field tuple and the
    # repr Name(field=value, ...)
    def _store(self, **fields) -> None:
        self.__dict__.update(fields)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _nonzero(acc: dict) -> dict:
    # the one place where accumulated terms drop their zero coefficients
    return {k: c for k, c in acc.items() if c} if 0 in acc.values() else acc


def _from_canonical(variables: "VariableSet", terms: dict) -> "LaurentPoly":
    # trusted constructor: the caller guarantees nonzero int coefficients keyed
    # by exponent tuples of the right width, every exponent already in range
    poly = object.__new__(LaurentPoly)
    poly.variables = variables
    poly._terms = terms
    return poly


def _packed_product(a: dict, lo_a: int, hi_a: int, b: dict, lo_b: int, hi_b: int) -> dict:
    # Kronecker substitution: each factor becomes one int holding the
    # coefficient of t^(lo + k) in slot k of `width` bytes, and one C-level
    # multiply convolves them.  Every product coefficient lies strictly
    # between -half and half, so adding half to every slot leaves each digit
    # in [1, 2^(8*width) - 1]: the bytes decode slot by slot, with no carries.
    bound = min(len(a), len(b)) * max(map(abs, a.values())) * max(map(abs, b.values()))
    width = (bound.bit_length() + 8) // 8
    half = 1 << (8 * width - 1)

    def pack(factor: dict, lo: int, hi: int) -> int:
        positive = bytearray((hi - lo + 1) * width)
        negative = bytearray(len(positive))
        for (e,), c in factor.items():
            at = (e - lo) * width
            (positive if c > 0 else negative)[at:at + width] = abs(c).to_bytes(width, "little")
        return int.from_bytes(positive, "little") - int.from_bytes(negative, "little")

    slots = hi_a - lo_a + hi_b - lo_b + 1
    biased = pack(a, lo_a, hi_a) * pack(b, lo_b, hi_b) + int.from_bytes(
        half.to_bytes(width, "little") * slots, "little"
    )
    raw = biased.to_bytes(slots * width, "little")
    lo = lo_a + lo_b
    out = {}
    for k in range(slots):
        c = int.from_bytes(raw[k * width:(k + 1) * width], "little") - half
        if c:
            out[(lo + k,)] = c
    return out


def _binomial_quotient(variables: VariableSet, num: list[tuple[int, int]], q: int) -> LaurentPoly:
    # N / (t^q - 1), N as ascending (exponent, coefficient) pairs that may
    # repeat an exponent.  N = Q (t^q - 1) gives Q_e = Q_(e-q) - N_e: per
    # residue class mod q, Q is a running sum of -N, constant between the
    # class's terms of N, so the cost follows the input and output terms; a
    # class whose sum is not 0 leaves a remainder.  A nonzero Q runs from N's
    # lowest exponent, in range, to N's highest minus q, checked here.
    if num and num[-1][0] - q >= num[0][0]:
        _checked_exponent(num[-1][0] - q)
    sums: dict[int, int] = {}  # class -> running sum
    starts: dict[int, int] = {}  # class -> exponent where that sum started
    terms: dict[tuple[int], int] = {}
    for e, c in num:
        r = e % q
        running = sums.get(r, 0)
        if running:
            for x in range(starts[r], e, q):
                terms[(x,)] = running
        sums[r] = running - c
        starts[r] = e
    if any(sums.values()):
        raise NotDivisibleError(f"division by t^{q} - 1 leaves a remainder")
    return _from_canonical(variables, terms)


class VariableSet:
    """Ordered collection of distinct variable names.

    The construction order is total and fixed; it determines the slot layout
    of exponent vectors and the canonical serialization order.
    """

    __slots__ = ("names", "_index")

    def __init__(self, *names: str):
        if len(names) == 1 and not isinstance(names[0], str):
            names = tuple(names[0])
        for name in names:
            if not isinstance(name, str) or not _NAME_RE.match(name):
                raise ValueError(f"invalid variable name: {name!r}")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names!r}")
        self.names: tuple[str, ...] = tuple(names)
        self._index = {name: i for i, name in enumerate(names)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r} (have {self.names})") from None

    def without(self, name: str) -> "VariableSet":
        """The set with one variable removed (used by specialization)."""
        i = self.index(name)
        return VariableSet(*(self.names[:i] + self.names[i + 1:]))

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VariableSet):
            return NotImplemented
        return self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VariableSet{self.names!r}"


class LaurentPoly:
    """Sparse Laurent polynomial in canonical form (no zero coefficients)."""

    __slots__ = ("variables", "_terms")

    def __init__(self, variables: VariableSet, terms: Mapping[tuple, int] | Iterable[tuple] = ()):
        if not isinstance(variables, VariableSet):
            raise TypeError(f"variables must be a VariableSet, got {type(variables).__name__}")
        nslots = len(variables)
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[tuple[int, ...], int] = {}
        for exps, coeff in items:
            coeff = _as_int(coeff, "coefficient")
            exps = tuple(_checked_exponent(_as_int(e, "exponent")) for e in exps)
            if len(exps) != nslots:
                raise ValueError(
                    f"exponent vector {exps} does not match variables {variables.names}"
                )
            acc[exps] = acc.get(exps, 0) + coeff
        self.variables = variables
        self._terms = _nonzero(acc)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: VariableSet) -> "LaurentPoly":
        return cls(variables)

    @classmethod
    def constant(cls, variables: VariableSet, value: int) -> "LaurentPoly":
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def one(cls, variables: VariableSet) -> "LaurentPoly":
        return cls.constant(variables, 1)

    @classmethod
    def var(cls, variables: VariableSet, name: str, exponent: int = 1) -> "LaurentPoly":
        """The polynomial ``name^exponent`` (exponent may be negative)."""
        exps = [0] * len(variables)
        exps[variables.index(name)] = exponent
        return cls(variables, {tuple(exps): 1})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def term_count(self) -> int:
        """Number of nonzero terms in canonical form."""
        return len(self._terms)

    def terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms as (exponent vector, coefficient), in canonical order."""
        return sorted(self._terms.items(), key=lambda kv: kv[0], reverse=True)

    def coefficient(self, exps: Iterable[int]) -> int:
        return self._terms.get(tuple(exps), 0)

    def exponents_of(self, name: str) -> list[int]:
        """All exponents of one variable that occur in the support."""
        i = self.variables.index(name)
        return sorted({exps[i] for exps in self._terms})

    def span(self) -> int:
        """max exponent - min exponent, for polynomials in at most one variable."""
        if not self._terms:
            raise ValueError("the zero polynomial has no exponent span")
        _require_one_variable("span", self)
        return max(self._terms)[0] - min(self._terms)[0] if self.variables else 0

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return LaurentPoly.constant(self.variables, other)
        return None

    def _require_same_variables(self, other: "LaurentPoly") -> None:
        if self.variables != other.variables:
            raise ValueError(
                f"variable-set mismatch: {self.variables.names} vs {other.variables.names}"
            )

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._require_same_variables(other)
        out = dict(self._terms)
        for exps, c in other._terms.items():
            out[exps] = out.get(exps, 0) + c
        return _from_canonical(self.variables, _nonzero(out))

    __radd__ = __add__

    def __neg__(self):
        return _from_canonical(self.variables, {exps: -c for exps, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other.__add__(-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._require_same_variables(other)
        a, b = self._terms, other._terms
        # over Z the extreme terms in each slot never cancel (no zero
        # divisors), so a product's exponents lie in range iff these sums do
        for slot_a, slot_b in zip(zip(*a), zip(*b)):
            _checked_exponent(min(slot_a) + min(slot_b))
            _checked_exponent(max(slot_a) + max(slot_b))
        if len(self.variables) == 1 and min(len(a), len(b)) > 1:
            # packed when the product's slots are no more than the term pairs
            # the loop below would visit; a single-term factor needs no merging
            (lo_a,), (hi_a,), (lo_b,), (hi_b,) = min(a), max(a), min(b), max(b)
            if hi_a - lo_a + hi_b - lo_b < len(a) * len(b):
                terms = _packed_product(a, lo_a, hi_a, b, lo_b, hi_b)
                return _from_canonical(self.variables, terms)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                exps = tuple(map(operator.add, e1, e2))
                out[exps] = out.get(exps, 0) + c1 * c2
        return _from_canonical(self.variables, _nonzero(out))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        k = _as_int(k, "power")
        if k < 0:
            raise ValueError("negative powers are not defined for Laurent polynomials")
        result = LaurentPoly.one(self.variables)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- structural operations ----------------------------------------------

    def substitute(
        self, mapping: Mapping[str, Iterable[int]], into: VariableSet
    ) -> "LaurentPoly":
        """Monomial substitution, extended multiplicatively over terms.

        Every variable of this polynomial's set must be mapped to an exponent
        vector over ``into``: ``{"x": (2, 0), "y": (0, 2)}`` into
        ``VariableSet("t_K", "t_G")`` sends x to t_K^2 and y to t_G^2.
        """
        if not isinstance(into, VariableSet):
            raise TypeError("the substitution target must be a VariableSet")
        width = len(into)
        images: list[list[tuple[int, int]]] = []
        for name in self.variables.names:
            if name not in mapping:
                raise ValueError(f"unmapped variable {name!r} in substitution")
            image = tuple(_checked_exponent(_as_int(e, "exponent")) for e in mapping[name])
            if len(image) != width:
                raise ValueError(
                    f"image of {name!r} has {len(image)} exponent slots, expected {width}"
                )
            images.append([(slot, ie) for slot, ie in enumerate(image) if ie])
        out: dict[tuple[int, ...], int] = {}
        for exps, coeff in self._terms.items():
            acc = [0] * width
            for e, image in zip(exps, images):
                for slot, ie in image:
                    acc[slot] += e * ie
            key = tuple(_checked_exponent(e) for e in acc)
            out[key] = out.get(key, 0) + coeff
        return _from_canonical(into, _nonzero(out))

    def evaluate_at_one(self, name: str) -> "LaurentPoly":
        """Set one variable to 1: substitute the empty monomial for it."""
        reduced = self.variables.without(name)
        width = len(reduced)
        mapping = {
            other: tuple(int(i == j) for j in range(width)) for i, other in enumerate(reduced)
        }
        mapping[name] = (0,) * width
        return self.substitute(mapping, reduced)

    def exact_divide(self, den: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / den for single-variable polynomials.

        Raises :class:`NotDivisibleError` when den does not divide self over
        the integers; that always signals a formula-application bug upstream.
        """
        self._require_same_variables(den)
        _require_one_variable("exact_divide", self)
        if den.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return self
        if len(self.variables) == 0:
            q, r = divmod(self._terms[()], den._terms[()])
            if r:
                raise NotDivisibleError("constant division leaves a remainder")
            return _from_canonical(self.variables, {(): q})

        num, div = self._terms, den._terms
        (dlead,) = max(div)
        dlc = div[(dlead,)]
        # every quotient exponent lies between shift and max(num) - dlead
        shift = min(num)[0] - min(div)[0]
        rem = {e: c for (e,), c in num.items()}
        heap = [-e for e in rem]
        heapq.heapify(heap)
        quotient: dict[tuple[int], int] = {}
        while heap:
            e = -heapq.heappop(heap)
            if e not in rem:
                continue
            qe = e - dlead
            qc, r = divmod(rem[e], dlc)
            if qe < shift or r:
                raise NotDivisibleError(f"{self} is not an exact multiple of {den}")
            quotient[(qe,)] = qc
            for (de,), dc in div.items():
                ne = qe + de
                merged = rem.get(ne, 0) - qc * dc
                if merged:
                    if ne not in rem:
                        heapq.heappush(heap, -ne)
                    rem[ne] = merged
                else:
                    rem.pop(ne, None)
        _checked_exponent(shift)
        _checked_exponent(max(quotient)[0])
        return _from_canonical(self.variables, quotient)

    def symmetrize(self) -> "LaurentPoly":
        """The unit multiple ±t^k·P satisfying S(1/t) = S(t), top coefficient > 0.

        A polynomial that already has both properties is returned as is.
        Raises :class:`NotSymmetrizableError` when no unit achieves symmetry
        (odd exponent span, or an asymmetric coefficient profile).
        """
        _require_one_variable("symmetrize", self)
        if not self._terms:
            raise NotSymmetrizableError("cannot symmetrize the zero polynomial")
        if len(self.variables) == 0:
            c = self._terms[()]
            return self if c > 0 else -self
        terms = self._terms
        (lo,), (hi,) = min(terms), max(terms)
        if (hi - lo) % 2:
            raise NotSymmetrizableError(
                f"exponent span {hi - lo} is odd; no centering unit exists"
            )
        if {(hi + lo - e,): c for (e,), c in terms.items()} != terms:
            raise NotSymmetrizableError("no unit multiple is symmetric")
        shift, sign = -((hi + lo) // 2), (1 if terms[(hi,)] > 0 else -1)
        if not shift and sign > 0:
            return self
        return _from_canonical(
            self.variables, {(e + shift,): sign * c for (e,), c in terms.items()}
        )

    def equal_up_to_units(self, other: "LaurentPoly") -> bool:
        """True iff self = ±t^k · other for some integer k."""
        _require_one_variable("equal_up_to_units", self, other)
        if self.variables != other.variables:
            return False
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if len(self._terms) != len(other._terms):
            return False
        a = self._terms
        if self.variables:
            shift = min(other._terms)[0] - min(a)[0]
            a = {(e + shift,): c for (e,), c in a.items()}
        return a == other._terms or a == (-other)._terms

    # -- equality / hashing --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.variables == other.variables and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.variables, frozenset(self._terms.items())))

    # -- serialization -------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        names = self.variables.names
        parts: list[str] = []
        for exps, coeff in self.terms():
            mon = _format_monomial(names, exps)
            mag = abs(coeff)
            if mon and mag == 1:
                body = mon
            elif mon:
                body = f"{mag}*{mon}"
            else:
                body = str(mag)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if coeff > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r}, variables={self.variables.names!r})"

    @classmethod
    def parse(cls, text: str, variables: VariableSet | None = None) -> "LaurentPoly":
        """Parse the text form.

        With ``variables`` given, every name must belong to it and the result
        is over exactly that set (this is the bit-exact inverse of ``str``).
        Without it, the set is inferred from the names in order of first
        appearance.
        """
        return _parse_poly(cls, text, variables)

    def to_json_dict(self) -> dict:
        return {
            "variables": list(self.variables.names),
            "terms": [
                {"exps": list(exps), "coeff": str(coeff)} for exps, coeff in self.terms()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "LaurentPoly":
        """Load a polynomial.schema.json document.

        Whatever the schema rejects raises PolyParseError, and so does an
        exponent vector whose width differs from the variable count.
        """
        try:
            _require_json_object(data, {"variables", "terms"})
            variables = VariableSet(_json_list(data["variables"]))
            terms = []
            for entry in _json_list(data["terms"]):
                _require_json_object(entry, {"exps", "coeff"})
                exps = tuple(_json_int(e, "exponent") for e in _json_list(entry["exps"]))
                coeff = entry["coeff"]
                if not isinstance(coeff, str) or not _COEFF_RE.match(coeff):
                    raise ValueError(f"coefficient must be a decimal string, got {coeff!r}")
                terms.append((exps, int(coeff)))
            return cls(variables, terms)
        except (TypeError, ValueError) as exc:
            raise PolyParseError(f"malformed polynomial JSON: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "LaurentPoly":
        return cls.from_json_dict(_json_loads(text, PolyParseError, "invalid JSON"))


def _dumps_indent2(doc) -> str:
    """json.dumps(doc, indent=2, default=LaurentPoly.to_json_dict), byte for byte.

    A LaurentPoly in doc is written from its terms, one f-string per term;
    everything else goes through json.dumps one scalar at a time.  With
    indent set, json.dumps uses the pure-Python encoder, whose per-value
    dispatch dominated large polynomial output.
    """
    parts: list[str] = []
    _write_indent2(doc, "\n", parts)
    return "".join(parts)


def _write_indent2(value, newline: str, parts: list[str]) -> None:
    # newline is "\n" plus the indentation of the line where value starts
    inner = newline + "  "
    if isinstance(value, LaurentPoly):
        _write_poly_indent2(value, newline, parts)
    elif isinstance(value, dict) and value:
        opening = "{"
        for key, item in value.items():
            parts.append(f"{opening}{inner}{json.dumps(key)}: ")
            _write_indent2(item, inner, parts)
            opening = ","
        parts.append(newline + "}")
    elif isinstance(value, list) and value:
        opening = "["
        for item in value:
            parts.append(opening + inner)
            _write_indent2(item, inner, parts)
            opening = ","
        parts.append(newline + "]")
    else:
        parts.append(json.dumps(value))


def _write_poly_indent2(poly: LaurentPoly, newline: str, parts: list[str]) -> None:
    # exponents go out as JSON numbers and coefficients as quoted decimal
    # strings, both as str gives them; variable names need no escaping
    n1, n2, n3, n4 = (newline + "  " * depth for depth in range(1, 5))
    parts.append(f'{{{n1}"variables": ')
    _write_indent2(list(poly.variables), n1, parts)
    parts.append(f',{n1}"terms": ')
    if poly.is_zero():
        parts.append("[]" + newline + "}")
        return
    opening, closing = (f"[{n4}", f"{n3}]") if poly.variables else ("[", "]")
    sep = "," + n4
    terms = [
        f'{{{n3}"exps": {opening}{sep.join(map(str, exps))}{closing},'
        f'{n3}"coeff": "{coeff}"{n2}}}'
        for exps, coeff in poly.terms()
    ]
    parts += (f"[{n2}", f",{n2}".join(terms), f"{n1}]{newline}}}")


def _require_json_object(data, keys: set[str]) -> None:
    if not isinstance(data, dict) or data.keys() != keys:
        raise ValueError(f"expected an object with keys {sorted(keys)}")


def _json_loads(text: str, error: type[ValueError], prefix: str):
    # malformed input too: a document nested too deeply for the decoder, or a
    # number beyond int()'s digit limit (a ValueError, as JSONDecodeError is)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{prefix}: {exc}") from exc


def _json_int(value, what: str, minimum: int | None = None) -> int:
    # a JSON Schema integer is a number with no fractional part, never a boolean
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    _require_int(value, what, minimum)
    return value


def _json_list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a JSON array, got {type(value).__name__}")
    return value


def _format_monomial(names: tuple[str, ...], exps: tuple[int, ...]) -> str:
    factors = []
    for name, e in zip(names, exps):
        if e == 0:
            continue
        factors.append(name if e == 1 else f"{name}^{e}")
    return "*".join(factors)


_SIGN_TOKENS = (("op", "+"), ("op", "-"))
_TOKEN_RE = re.compile(r"\s*(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[\^*+-]))")


def _tokenize(pattern: re.Pattern, text: str, error: type[ValueError]) -> list[tuple[str, str]]:
    # (group name, text) per token; pattern is optional whitespace, then named groups
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = pattern.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise error(f"unexpected character {text[pos:].strip()[0]!r}")
            break
        tokens.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    return tokens


def _int_literal(value: str) -> int:
    # int() refuses a literal beyond CPython's digit limit with a bare ValueError
    try:
        return int(value)
    except ValueError as exc:
        raise PolyParseError(str(exc)) from exc


def _parse_poly(cls, text: str, variables: VariableSet | None):
    tokens = _tokenize(_TOKEN_RE, text, PolyParseError)
    if not tokens:
        raise PolyParseError("empty polynomial text")
    pos = 0
    seen_names: list[str] = []
    raw_terms: list[tuple[dict[str, int], int]] = []

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None)

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def take_signs() -> int:
        # fold a run of '+' / '-' tokens into one sign
        sign = 1
        while peek() in _SIGN_TOKENS:
            if take() == ("op", "-"):
                sign = -sign
        return sign

    def parse_signed_int() -> int:
        sign = take_signs()
        kind, value = take()
        if kind != "int":
            raise PolyParseError("expected an integer")
        return sign * _int_literal(value)

    def parse_factor(term_exps: dict[str, int]) -> int:
        kind, value = take()
        if kind == "int":
            return _int_literal(value)
        if kind == "name":
            if value not in seen_names:
                seen_names.append(value)
            exponent = 1
            if peek() == ("op", "^"):
                take()
                exponent = parse_signed_int()
            term_exps[value] = term_exps.get(value, 0) + exponent
            return 1
        raise PolyParseError(f"expected a coefficient or variable, got {value!r}")

    def parse_term(sign: int) -> None:
        coeff = sign
        exps: dict[str, int] = {}
        coeff *= parse_factor(exps)
        while peek() == ("op", "*"):
            take()
            coeff *= parse_factor(exps)
        raw_terms.append((exps, coeff))

    parse_term(take_signs())
    while pos < len(tokens):
        if peek() not in _SIGN_TOKENS:
            raise PolyParseError(f"expected '+' or '-' between terms, got {peek()[1]!r}")
        parse_term(take_signs())

    if variables is None:
        variables = VariableSet(*seen_names)
    else:
        for name in seen_names:
            if name not in variables:
                raise PolyParseError(
                    f"variable {name!r} is not in the expected set {variables.names}"
                )
    width = len(variables)
    terms = []
    for exps_by_name, coeff in raw_terms:
        exps = [0] * width
        for name, e in exps_by_name.items():
            exps[variables.index(name)] = e
        terms.append((exps, coeff))
    return cls(variables, terms)
