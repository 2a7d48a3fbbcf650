"""Exact sparse Laurent polynomial arithmetic over arbitrary-precision integers.

A polynomial is a finite map from exponent vectors to nonzero integer
coefficients.  Exponent vectors have one slot per variable of the owning
:class:`VariableSet`; slots may be negative (Laurent terms like ``t^-1``).
Coefficients are plain Python ints and never overflow.  Exponents are
restricted to the signed 64-bit range, and any operation that would leave
that range raises :class:`ExponentOverflowError` instead of wrapping.

A polynomial is stored as two aligned sequences in ascending key order: the
keys, and a list of their nonzero coefficients.  For one variable a key is
the exponent and the keys are an ``array('q')``, about 16 bytes a term with
the coefficient's slot; otherwise a key is the exponent tuple and the keys
are a list.  Values are immutable and every operation is a pure function,
so instances can be shared freely between concurrent callers.  Operations
that accumulate terms in a dict (construction, ``+``, the pair loop of
``*``, substitution) end in ``_sorted_terms``, which sorts the keys once and
drops zero coefficients; the kernels write ascending sequences directly, and
every reader walks them, with no sort: ``terms()`` and the writers from the
top, ``coefficient`` by bisection, ``symmetrize`` against their reversal.

A product checks its exponent range before any work: per variable, the sums
of the factors' lowest and of their highest exponents.  Both always occur in
the product, because Laurent polynomials over the integers have no zero
divisors.  A product of two one-variable polynomials whose exponent window
(the product's slot count) is no larger than the number of term pairs is
computed by Kronecker substitution: each factor is packed into one integer,
one machine-level multiply convolves them, and the bytes are read back one
slot per exponent.  Other products -- sparse, multivariate, or with a
single-term factor -- loop over the term pairs, the factor with fewer terms
in the outer loop.

Multiplication by 1 + t + ... + t^(lk-1) for the Torres condition is a
running sum that checks its own top exponent.  Exact division has two
paths, and both work at any offset.  A divisor +-(t^a - t^b), such as the Fox
oracle's phi(y) - 1, is read from the top like long division, one residue
class mod a - b at a time: the quotient is a running sum of the numerator,
constant between the class's terms, so each stretch is one range of
exponents, and the division is exact iff every class sums to 0.  Every
other divisor keeps a remainder dict with a heap of its exponents: each
step pops the highest, takes its term as the lead's cancellation and
subtracts the quotient term times the divisor's lower terms, zipped once
beforehand.  No torus-knot formula lives here: the knot layer writes each
Delta_T(p,q) from Lam and Leung's two exponent grids into the sequences.

Text form: ``coeff*var^exp`` factors joined by ``+`` / ``-``, variables in
the set's fixed order, terms in descending lexicographic exponent order,
e.g. ``t_K^2*t_G^-1 - 3``; integers are ASCII digits, and the knot grammar
shares this grammar's tokenizer.  JSON form: ``{"variables": [...], "terms":
[{"exps": [...], "coeff": "<decimal string>"}]}`` -- coefficients travel as
decimal strings so arbitrary precision survives transport.  ``to_json``
gives the indent-2 bytes that the CLI's ``--format json`` prints.

Two writers stream what the CLI prints through a ``write`` callable, and
neither builds the whole output: ``_write_text`` writes one polynomial's
text form, and ``_write_indent2`` writes an indented document that holds
polynomials as ``LaurentPoly`` values, as the bytes of
``json.dumps(doc, indent=2, default=LaurentPoly.to_json_dict)``.  No writer
imports ``json``; only ``_json_loads`` does, to read.  ``str`` and
``to_json`` join what ``_write_text`` and ``_write_indent2`` write, and
``_joined`` what any writer writes.
Every polynomial goes out from the top of its sequences, one slice of terms
per call, with no sort: 4,096 terms for text and 1,024 for JSON, since a
JSON term is about seven times as long as a text term and a writer holds a
few copies of its slice's text at once.  A slice is written with one
C-level ``%``: a table built for the slice maps each distinct coefficient
to its term's text with a ``%d`` in each exponent slot, so a coefficient is
turned into decimal once per slice, and the slice's exponents fill the
slots.  Only one-variable text at exponents 0 and 1 and multivariable text
go term by term.  Writing can fail in one way only, on CPython's
int-to-string digit limit, and ``_check_digits`` raises that error for a
whole document before the first write, so a caller that streams to stdout
writes all of it or nothing.  An iterator in a document is written as a
list, drawn one item at a time, and ``_check_digits`` leaves it undrawn:
its items are the caller's guarantee.
"""

from __future__ import annotations

import heapq
import operator
import re
from array import array
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Mapping
from functools import partial
from itertools import chain, compress, islice, repeat, starmap

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1
_SLICE = 4096  # terms per chunk of written text; JSON chunks take a quarter

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


def _require_int(value, what: str, minimum: int | None = None) -> int:
    # minimum is 0 (nonnegative), 1 (positive) or None (any integer); a bool
    # is an int to Python but not an integer argument here
    if not isinstance(value, int) or isinstance(value, bool) or (
        minimum is not None and value < minimum
    ):
        kind = {None: "an", 0: "a nonnegative", 1: "a positive"}[minimum]
        raise ValueError(f"{what} must be {kind} integer, got {value!r}")
    return value


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


def _sorted_terms(variables: "VariableSet", acc: dict) -> tuple:
    # the one place where accumulated terms take the stored layout: the keys
    # sorted once, zero coefficients dropped.  acc is keyed by the exponent
    # for one variable and by the exponent tuple otherwise, and every
    # exponent in it is already in range
    keys = sorted(acc)
    coeffs = list(map(acc.__getitem__, keys))
    keys = compress(keys, coeffs)
    return (array("q", keys) if len(variables) == 1 else list(keys)), list(filter(None, coeffs))


def _from_canonical(variables: "VariableSet", keys, coeffs: list) -> "LaurentPoly":
    # trusted constructor: the caller guarantees strictly ascending keys of
    # the stored layout, aligned nonzero int coefficients, every exponent
    # already in range
    poly = object.__new__(LaurentPoly)
    poly.variables = variables
    poly._keys = keys
    poly._terms = coeffs
    return poly


def _from_dict(variables: "VariableSet", acc: dict) -> "LaurentPoly":
    return _from_canonical(variables, *_sorted_terms(variables, acc))


def _vector_sum(e1: tuple, e2: tuple) -> tuple:
    return tuple(map(operator.add, e1, e2))


def _packed_product(a: "LaurentPoly", b: "LaurentPoly") -> "LaurentPoly":
    # Kronecker substitution for one-variable factors of two or more terms:
    # each factor becomes one int holding the coefficient of t^(lo + k) in
    # slot k of `width` bytes, and one C-level multiply convolves them.
    # Every product coefficient lies strictly between -half and half, so
    # adding half to every slot leaves each digit in [1, 2^(8*width) - 1]:
    # the bytes decode slot by slot, with no carries, in ascending order.
    bound = min(len(a._terms), len(b._terms)) * max(map(abs, a._terms)) * max(map(abs, b._terms))
    width = (bound.bit_length() + 8) // 8
    half = 1 << (8 * width - 1)

    def pack(factor: LaurentPoly) -> int:
        keys = factor._keys
        lo = keys[0]
        positive = bytearray((keys[-1] - lo + 1) * width)
        negative = bytearray(len(positive))
        for e, c in zip(keys, factor._terms):
            at = (e - lo) * width
            (positive if c > 0 else negative)[at:at + width] = abs(c).to_bytes(width, "little")
        return int.from_bytes(positive, "little") - int.from_bytes(negative, "little")

    slots = a.span() + b.span() + 1
    biased = pack(a) * pack(b) + int.from_bytes(half.to_bytes(width, "little") * slots, "little")
    raw = biased.to_bytes(slots * width, "little")
    lo = a._keys[0] + b._keys[0]
    keys, coeffs = array("q"), []
    for k in range(slots):
        c = int.from_bytes(raw[k * width:(k + 1) * width], "little") - half
        if c:
            keys.append(lo + k)
            coeffs.append(c)
    return _from_canonical(a.variables, keys, coeffs)


def _geometric_multiple(poly: LaurentPoly, lk: int) -> LaurentPoly:
    # poly (1 + t + ... + t^(lk-1)) as a running sum: c t^e adds c on [e, e + lk)
    keys, coeffs = array("q"), []
    if lk and poly._keys:
        _checked_exponent(poly._keys[-1] + lk - 1)
    running = start = 0
    falls = zip(map(lk.__add__, poly._keys), map(operator.neg, poly._terms))
    for e, c in heapq.merge(zip(poly._keys, poly._terms), falls):
        if running:
            keys.extend(range(start, e))
            coeffs.extend(repeat(running, e - start))
        running, start = running + c, e
    return _from_canonical(poly.variables, keys, coeffs)


def _unit_binomial_quotient(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    # num / (lead (t^a - t^b)) for a > b and lead = +-1, from the top like long
    # division; exact_divide's route for a two-term divisor.
    # With d = a - b, num_e = lead (Q_(e-a) - Q_(e-b)) gives
    # Q_(k-d) = Q_k + num_(k+b) / lead: per residue class mod d, Q read
    # downward is a running sum of num / lead, constant between the class's
    # terms of num, so each stretch is one range of exponents, written by one
    # C-level update, or one store when it holds one term.  Q is finite,
    # and the division exact, iff every class sums to 0: one C-level any
    # over the sums tests that, and only a failure walks the classes to
    # name the first bad one.  A nonzero Q runs from num's lowest exponent
    # minus b to its highest minus a, and both ends are checked before the
    # array is written
    keys = num._keys
    (b, a), lead = den._keys, den._terms[1]
    d = a - b
    if d <= len(keys):
        sums, lasts = [0] * d, [0] * d  # class -> running sum, its last term of num
    else:
        sums, lasts = dict.fromkeys(map(d.__rmod__, keys), 0), {}
    coeffs = reversed(num._terms) if lead > 0 else map(operator.neg, reversed(num._terms))
    acc = {}
    for e, c in zip(reversed(keys), coeffs):
        r = e % d
        running = sums[r]
        if running:
            last = lasts[r]
            if last - e == d:
                acc[last - a] = running
            else:
                acc.update(zip(range(last - a, e - a, -d), repeat(running)))
        sums[r] = running + c
        lasts[r] = e
    if any(sums if d <= len(keys) else sums.values()):
        for r in range(d) if d <= len(keys) else sums:
            if sums[r]:
                raise NotDivisibleError(
                    f"remainder at exponent {lasts[r]}: a {len(keys)}-term polynomial is"
                    " not an exact multiple of a 2-term divisor"
                )
    _checked_exponent(keys[0] - b)
    _checked_exponent(keys[-1] - a)
    out = sorted(acc)
    return _from_canonical(num.variables, array("q", out), list(map(acc.__getitem__, out)))


class VariableSet:
    """Ordered collection of distinct variable names.

    The construction order is total and fixed; it determines the slot layout
    of exponent vectors and the canonical serialization order.
    """

    __slots__ = ("names", "_index")

    def __init__(self, *names: str):
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

    # _keys ascend, and _terms holds their nonzero coefficients in the same
    # order; see the module docstring for the layout
    __slots__ = ("variables", "_keys", "_terms")

    def __init__(self, variables: VariableSet, terms: Mapping[tuple, int] | Iterable[tuple] = ()):
        if not isinstance(variables, VariableSet):
            raise TypeError(f"variables must be a VariableSet, got {type(variables).__name__}")
        nslots = len(variables)
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict = {}
        for exps, coeff in items:
            coeff = _require_int(coeff, "coefficient")
            exps = tuple(_checked_exponent(_require_int(e, "exponent")) for e in exps)
            if len(exps) != nslots:
                raise ValueError(
                    f"exponent vector {exps} does not match variables {variables.names}"
                )
            key = exps[0] if nslots == 1 else exps
            acc[key] = acc.get(key, 0) + coeff
        self.variables = variables
        self._keys, self._terms = _sorted_terms(variables, acc)

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

    def _vectors(self) -> Iterable[tuple]:
        # the keys as exponent vectors, ascending
        return zip(self._keys) if len(self.variables) == 1 else self._keys

    def terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms as (exponent vector, coefficient), in canonical order."""
        keys = reversed(self._keys)
        return list(zip(zip(keys) if len(self.variables) == 1 else keys, reversed(self._terms)))

    def coefficient(self, exps: Iterable[int]) -> int:
        key, keys = tuple(exps), self._keys
        if len(self.variables) == 1:
            if len(key) != 1:
                return 0
            (key,) = key
        i = bisect_left(keys, key)
        return self._terms[i] if i < len(keys) and keys[i] == key else 0

    def exponents_of(self, name: str) -> list[int]:
        """All exponents of one variable that occur in the support."""
        i = self.variables.index(name)
        return sorted({exps[i] for exps in self._vectors()})

    def span(self) -> int:
        """max exponent - min exponent, for polynomials in at most one variable."""
        if not self._terms:
            raise ValueError("the zero polynomial has no exponent span")
        _require_one_variable("span", self)
        return self._keys[-1] - self._keys[0] if self.variables else 0

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
        out = dict(zip(self._keys, self._terms))
        for key, c in zip(other._keys, other._terms):
            out[key] = out.get(key, 0) + c
        return _from_dict(self.variables, out)

    __radd__ = __add__

    def __neg__(self):
        return _from_canonical(self.variables, self._keys, [-c for c in self._terms])

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
        # the factor with fewer terms runs the outer loop of the pair loop
        if len(self._terms) > len(other._terms):
            self, other = other, self
        a, b = self._keys, other._keys
        # over Z the extreme terms in each slot never cancel (no zero
        # divisors), so a product's exponents lie in range iff these sums do
        if len(self.variables) == 1:
            add = operator.add
            if a and b:
                _checked_exponent(a[0] + b[0])
                _checked_exponent(a[-1] + b[-1])
                # packed when the product's slots are no more than the term
                # pairs the loop below would visit; a single-term factor
                # needs no merging
                if min(len(a), len(b)) > 1 and a[-1] - a[0] + b[-1] - b[0] < len(a) * len(b):
                    return _packed_product(self, other)
        else:
            add = _vector_sum
            for slot_a, slot_b in zip(zip(*a), zip(*b)):
                _checked_exponent(min(slot_a) + min(slot_b))
                _checked_exponent(max(slot_a) + max(slot_b))
        out: dict = {}
        for e1, c1 in zip(a, self._terms):
            for e2, c2 in zip(b, other._terms):
                e = add(e1, e2)
                out[e] = out.get(e, 0) + c1 * c2
        return _from_dict(self.variables, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        k = _require_int(k, "power", 0)
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
            image = tuple(_checked_exponent(_require_int(e, "exponent")) for e in mapping[name])
            if len(image) != width:
                raise ValueError(
                    f"image of {name!r} has {len(image)} exponent slots, expected {width}"
                )
            images.append([(slot, ie) for slot, ie in enumerate(image) if ie])
        out: dict = {}
        for exps, coeff in zip(self._vectors(), self._terms):
            acc = [0] * width
            for e, image in zip(exps, images):
                for slot, ie in image:
                    acc[slot] += e * ie
            key = tuple(_checked_exponent(e) for e in acc)
            key = key[0] if width == 1 else key
            out[key] = out.get(key, 0) + coeff
        return _from_dict(into, out)

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
            qc, r = divmod(self._terms[0], den._terms[0])
            if r:
                raise NotDivisibleError("constant division leaves a remainder")
            return _from_canonical(self.variables, [()], [qc])

        div, dcoeffs = den._keys, den._terms
        if len(dcoeffs) == 2 and dcoeffs[0] == -dcoeffs[1] and dcoeffs[1] in (1, -1):
            return _unit_binomial_quotient(self, den)
        dlead, dlc = div[-1], dcoeffs[-1]
        lower = list(zip(div[:-1], dcoeffs[:-1]))  # the divisor's terms below its lead
        # every quotient exponent lies between shift and max(num) - dlead
        shift = self._keys[0] - div[0]
        rem = dict(zip(self._keys, self._terms))  # never holds a zero
        heap = [-e for e in reversed(self._keys)]  # ascending, so already a heap
        pop, push, get = heapq.heappop, heapq.heappush, rem.get
        # each step takes the highest remaining exponent, so the quotient's
        # exponents come out strictly descending; an exponent that left rem
        # and came back may sit in the heap twice, and its second pop finds 0
        qkeys, qcoeffs = [], []
        while heap:
            e = -pop(heap)
            c = rem.pop(e, 0)
            if not c:
                continue
            qe = e - dlead
            qc, r = divmod(c, dlc)
            if qe < shift or r:
                raise NotDivisibleError(
                    f"remainder at exponent {e}: a {len(self._terms)}-term polynomial is"
                    f" not an exact multiple of a {len(dcoeffs)}-term divisor"
                )
            qkeys.append(qe)
            qcoeffs.append(qc)
            for de, dc in lower:
                ne = qe + de
                old = get(ne, 0)
                merged = old - qc * dc
                if merged:
                    if not old:
                        push(heap, -ne)
                    rem[ne] = merged
                else:
                    del rem[ne]
        _checked_exponent(shift)
        _checked_exponent(qkeys[0])
        qcoeffs.reverse()
        return _from_canonical(self.variables, array("q", reversed(qkeys)), qcoeffs)

    def symmetrize(self) -> "LaurentPoly":
        """The unit multiple ±t^k·P satisfying S(1/t) = S(t), top coefficient > 0.

        A polynomial that already has both properties is returned as is.
        Raises :class:`NotSymmetrizableError` when no unit achieves symmetry
        (odd exponent span, or an asymmetric coefficient profile).
        """
        _require_one_variable("symmetrize", self)
        if not self._terms:
            raise NotSymmetrizableError("cannot symmetrize the zero polynomial")
        keys, coeffs = self._keys, self._terms
        if len(self.variables) == 0:
            return self if coeffs[0] > 0 else -self
        lo, hi = keys[0], keys[-1]
        if (hi - lo) % 2:
            raise NotSymmetrizableError(
                f"exponent span {hi - lo} is odd; no centering unit exists"
            )
        # symmetric: the coefficients read the same both ways along the keys,
        # and the i-th exponents from either end sum to lo + hi.  The first
        # half, middle term included, is walked against the reversal, with
        # no copy of either sequence
        half = (len(keys) + 1) // 2
        if not (
            all(map(operator.eq, islice(coeffs, half), reversed(coeffs)))
            and all(map((lo + hi).__eq__, map(operator.add, islice(keys, half), reversed(keys))))
        ):
            raise NotSymmetrizableError("no unit multiple is symmetric")
        shift = -((hi + lo) // 2)
        if shift:
            keys = array("q", map(shift.__add__, keys))
        if coeffs[-1] < 0:
            coeffs = [-c for c in coeffs]
        elif not shift:
            return self
        return _from_canonical(self.variables, keys, coeffs)

    def equal_up_to_units(self, other: "LaurentPoly") -> bool:
        """True iff self = ±t^k · other for some integer k."""
        _require_one_variable("equal_up_to_units", self, other)
        if self.variables != other.variables:
            return False
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if len(self._terms) != len(other._terms):
            return False
        if self.variables:
            a, b = self._keys, other._keys
            shift = b[0] - a[0]
            if [e + shift for e in a] != b.tolist():
                return False
        a, b = self._terms, other._terms
        return a == b or a == [-c for c in b]

    # -- equality / hashing --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        fields = operator.attrgetter("variables", "_keys", "_terms")
        return fields(self) == fields(other)

    def __hash__(self) -> int:
        return hash((self.variables, tuple(self._keys), tuple(self._terms)))

    # -- serialization -------------------------------------------------------

    def __str__(self) -> str:
        return _joined(_write_text, self)

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
        return _joined(_write_indent2, self)

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "LaurentPoly":
        """Load a polynomial.schema.json document.

        Whatever the schema rejects raises PolyParseError, and so does an
        exponent vector whose width differs from the variable count.
        """
        try:
            _require_json_object(data, {"variables", "terms"})
            variables = VariableSet(*_json_list(data["variables"]))
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


def _joined(writer, *args) -> str:
    # everything writer(*args, write) writes, as one string
    parts: list[str] = []
    writer(*args, parts.append)
    return "".join(parts)


def _check_digits(doc) -> None:
    """Raise, before anything is written, the one error writing doc can hit.

    That is CPython's int-to-string digit limit on a coefficient.  The
    coefficient of largest magnitude has the most digits, so converting it
    fails if and only if converting any coefficient of its polynomial would.
    doc is a LaurentPoly, or a dict or list holding documents; other values
    pass, and an iterator passes undrawn: its items are the caller's
    guarantee.
    """
    if isinstance(doc, LaurentPoly):
        coeffs = doc._terms
        if coeffs:
            str(max(max(coeffs), -min(coeffs)))
    elif isinstance(doc, (dict, list)):
        for item in doc.values() if isinstance(doc, dict) else doc:
            _check_digits(item)


def _slices(poly: LaurentPoly, start: int, stop: int, size: int) -> Iterator[tuple]:
    # poly's terms start..stop-1, from the top down, size terms at a time,
    # each slice as its keys and its coefficients, so a writer holds one
    # slice's text at once
    keys, coeffs = poly._keys, poly._terms
    for end in range(stop, start, -size):
        begin = max(end - size, start)
        yield keys[begin:end][::-1], coeffs[begin:end][::-1]


def _filled(template, sep: str, exps: Iterable[int], coeffs: list) -> str:
    # one slice's text with one C-level %: template(c) is the text of a term
    # with coefficient c and a %d in each exponent slot, built once per
    # distinct coefficient of the slice, and exps fills the slots in order.
    # Nothing needs escaping: coefficients are ints and variable names match
    # _NAME_RE, so neither can hold a "%"
    table = {c: template(c) for c in set(coeffs)}
    return sep.join(map(table.__getitem__, coeffs)) % tuple(exps)


def _signed_term(names: tuple[str, ...], exps: tuple[int, ...], coeff: int) -> str:
    # one term of any variable count, led by " + " or " - "
    mon = "*".join([name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e])
    mag = abs(coeff)
    body = mon if mon and mag == 1 else f"{mag}*{mon}" if mon else str(mag)
    return f" + {body}" if coeff > 0 else f" - {body}"


def _text_chunks(poly: LaurentPoly) -> Iterator[str]:
    # the text form as nonempty chunks, each term led by " + " or " - ", a
    # slice at a time.  One-variable terms at t^2 and above or below t^0
    # share a template per coefficient, _signed_term's term with "%d" for
    # its exponent, such as " - 3*t^%d"; t^1 and t^0, the exponents that
    # print no "^", and every term of other variable counts go through
    # _signed_term one by one
    names, keys = poly.variables.names, poly._keys

    def general(exps: Iterable[tuple], coeffs: list) -> str:
        return "".join(map(_signed_term, repeat(names), exps, coeffs))

    if len(names) != 1:
        yield from starmap(general, _slices(poly, 0, len(keys), _SLICE))
        return
    template = partial(_signed_term, names, ("%d",))
    low, high = bisect_left(keys, 0), bisect_left(keys, 2)
    for exps, coeffs in _slices(poly, high, len(keys), _SLICE):
        yield _filled(template, "", exps, coeffs)
    for exps, coeffs in _slices(poly, low, high, _SLICE):
        yield general(zip(exps), coeffs)
    for exps, coeffs in _slices(poly, 0, low, _SLICE):
        yield _filled(template, "", exps, coeffs)


def _write_text(poly: LaurentPoly, write) -> None:
    """Write str(poly) through write, one slice of terms per call."""
    if not poly._terms:
        write("0")
        return
    chunks = _text_chunks(poly)
    lead = next(chunks)
    write(lead[3:] if lead[1] == "+" else f"-{lead[3:]}")
    for chunk in chunks:
        write(chunk)


def _write_indent2(value, write, newline: str = "\n") -> None:
    """Write json.dumps(value, indent=2, default=LaurentPoly.to_json_dict) through write.

    value holds only what the package's documents hold: LaurentPoly values,
    dicts keyed by names, lists, iterators, bools, ints and names, the
    strings that match _NAME_RE.  Any other value, such as a float, None or
    a string that is no name, raises TypeError when the writer reaches it.
    A LaurentPoly is written from its terms, one C-level format per slice
    of terms; an iterator is written as the list of its items, each drawn
    just before it is written; the scalars are spelled as json.dumps spells
    them, with no JSON module loaded.  With indent set, json.dumps uses the
    pure-Python encoder, whose per-value dispatch dominated large polynomial
    output.  newline is "\n" plus the indentation of the line where value
    starts.
    """
    inner = newline + "  "
    if isinstance(value, LaurentPoly):
        _write_poly_indent2(value, write, newline)
    elif isinstance(value, dict):
        opening = "{"
        for key, item in value.items():
            write(f"{opening}{inner}{_json_name(key)}: ")
            _write_indent2(item, write, inner)
            opening = ","
        write("{}" if opening == "{" else newline + "}")
    elif isinstance(value, (list, Iterator)):
        opening = "["
        for item in value:
            write(opening + inner)
            _write_indent2(item, write, inner)
            opening = ","
        write("[]" if opening == "[" else newline + "]")
    elif isinstance(value, bool):
        write("true" if value else "false")
    elif isinstance(value, int):
        write(int.__repr__(value))
    else:
        write(_json_name(value))


def _json_name(value) -> str:
    # a key or string of a document, as json.dumps spells it: _NAME_RE's
    # characters are ASCII letters, digits and "_", none of which JSON escapes
    if not (isinstance(value, str) and _NAME_RE.match(value)):
        raise TypeError(f"cannot write {value!r}: a document's scalars are names, ints and bools")
    return f'"{value}"'


def _write_poly_indent2(poly: LaurentPoly, write, newline: str) -> None:
    # exponents go out as JSON numbers and coefficients as quoted decimal
    # strings, both as str gives them; variable names need no escaping.  The
    # terms go out a slice at a time, each term from its coefficient's
    # template with one %d per variable
    n1, n2, n3, n4 = (newline + "  " * depth for depth in range(1, 5))
    write(f'{{{n1}"variables": ')
    _write_indent2(list(poly.variables), write, n1)
    write(f',{n1}"terms": ')
    if not poly._terms:
        write("[]" + newline + "}")
        return
    width = len(poly.variables)
    slots = f"[{n4}{(',' + n4).join(['%d'] * width)}{n3}]" if width else "[]"
    head, tail = f'{{{n3}"exps": {slots},{n3}"coeff": "', f'"{n2}}}'

    def template(c: int) -> str:
        return f"{head}{c}{tail}"

    sep = f",{n2}"
    opening = f"[{n2}"
    # a one-variable JSON term at six-digit exponents is about 70 bytes and a
    # text term about 10, so a JSON slice takes a quarter of text's terms (at
    # least one): its text is about 70 KB, not 290 KB
    for exps, coeffs in _slices(poly, 0, len(poly._terms), max(_SLICE // 4, 1)):
        write(opening)
        write(_filled(template, sep, exps if width == 1 else chain.from_iterable(exps), coeffs))
        opening = sep
    write(f"{n1}]{newline}}}")


def _require_json_object(data, keys: set[str]) -> None:
    if not isinstance(data, dict) or data.keys() != keys:
        raise ValueError(f"expected an object with keys {sorted(keys)}")


def _json_loads(text: str, error: type[ValueError], prefix: str):
    # malformed input too: a document nested too deeply for the decoder, or a
    # number beyond int()'s digit limit (a ValueError, as JSONDecodeError is)
    import json

    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{prefix}: {exc}") from exc


def _json_int(value, what: str, minimum: int | None = None) -> int:
    # a JSON Schema integer is a number with no fractional part, never a boolean
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return _require_int(value, what, minimum)


def _json_list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a JSON array, got {type(value).__name__}")
    return value


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
    tokens.append((None, None))  # the end marker, which no rule accepts
    pos = 0
    seen_names: dict[str, None] = {}
    raw_terms: list[tuple[dict[str, int], int]] = []

    def sign() -> int:
        # fold the run of '+' / '-' tokens at pos into one sign
        nonlocal pos
        folded = 1
        while tokens[pos] in _SIGN_TOKENS:
            if tokens[pos][1] == "-":
                folded = -folded
            pos += 1
        return folded

    while True:
        # one term: its signs, then factors joined by '*'
        coeff, exps = sign(), {}
        while True:
            kind, value = tokens[pos]
            pos += 1
            if kind == "int":
                coeff *= _int_literal(value)
            elif kind == "name":
                seen_names[value] = None
                exponent = 1
                if tokens[pos] == ("op", "^"):
                    pos += 1
                    exponent = sign()
                    if tokens[pos][0] != "int":
                        raise PolyParseError("expected an integer")
                    exponent *= _int_literal(tokens[pos][1])
                    pos += 1
                exps[value] = exps.get(value, 0) + exponent
            else:
                raise PolyParseError(f"expected a coefficient or variable, got {value!r}")
            if tokens[pos] != ("op", "*"):
                break
            pos += 1
        raw_terms.append((exps, coeff))
        if tokens[pos] == (None, None):
            break
        if tokens[pos] not in _SIGN_TOKENS:
            raise PolyParseError(f"expected '+' or '-' between terms, got {tokens[pos][1]!r}")

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
