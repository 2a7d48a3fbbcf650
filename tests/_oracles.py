"""Reference implementations used only to check the library.

Everything here is deliberately naive and dense: schoolbook products,
classical long division, semigroup enumeration and a Fox derivative taken
one letter at a time, over plain ``{exponent: coefficient}`` dicts.  None
of it shares code with the package, so agreement is meaningful.
"""

from __future__ import annotations


def convolve(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Product of two one-variable Laurent polynomials, term by term."""
    out: dict[int, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def schoolbook(a: dict[tuple, int], b: dict[tuple, int]) -> dict[tuple, int]:
    """Product of two multivariate Laurent polynomials keyed by exponent tuples."""
    out: dict[tuple, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def dense_divide(num: dict[int, int], den: dict[int, int]) -> dict[int, int] | None:
    """Exact quotient num / den over the integers, or None if not exact.

    Classical long division on dense coefficient lists.  Laurent inputs are
    shifted so the minimum exponent is zero before dividing.
    """
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    if not num:
        return {}
    shift = min(num) - min(den)
    num_lo, den_lo = min(num), min(den)
    n = [0] * (max(num) - num_lo + 1)
    for e, c in num.items():
        n[e - num_lo] = c
    d = [0] * (max(den) - den_lo + 1)
    for e, c in den.items():
        d[e - den_lo] = c

    q = [0] * (len(n) - len(d) + 1) if len(n) >= len(d) else []
    r = list(n)
    while len(r) >= len(d) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(d):
            break
        lead, rem = divmod(r[-1], d[-1])
        if rem:
            return None
        k = len(r) - len(d)
        q[k] = lead
        for i, dc in enumerate(d):
            r[k + i] -= lead * dc
    if any(r):
        return None
    return {e + shift: c for e, c in enumerate(q) if c}


def geometric_sum(length: int) -> dict[int, int]:
    """1 + t + ... + t^(length-1); the empty sum for length 0."""
    return {e: 1 for e in range(length)}


def cyclotomic_quotient(p: int, q: int) -> dict[int, int] | None:
    """(t^(p*q) - 1)(t - 1) / ((t^p - 1)(t^q - 1)) by dense long division."""
    num = convolve({p * q: 1, 0: -1}, {1: 1, 0: -1})
    mid = dense_divide(num, {p: 1, 0: -1})
    if mid is None:
        return None
    return dense_divide(mid, {q: 1, 0: -1})


def semigroup_delta(p: int, q: int) -> dict[int, int]:
    """Delta_{T(p,q)} = (1 - t) * sum of t^s over the semigroup <p, q>.

    The semigroup of nonnegative combinations ap + bq contains every
    integer from the conductor c = (p-1)(q-1) on, so the product telescopes
    to a polynomial of degree c: truncating at c loses nothing.  Shares no
    formula with the cyclotomic quotient.
    """
    c = (p - 1) * (q - 1)
    members = {a * p + b * q for a in range(c // p + 1) for b in range(c // q + 1)}
    out: dict[int, int] = {}
    for s in members:
        if s <= c:
            out[s] = out.get(s, 0) + 1
            if s < c:
                out[s + 1] = out.get(s + 1, 0) - 1
    return {e: v for e, v in out.items() if v}


def single_pass_verdict(target, witnesses, lower_bound) -> bool:
    """An unboundedness certificate's verdict, one witness at a time.

    witnesses is a list of (p, bound) pairs, in the certificate's order.  For
    each in turn, p must exceed the previous index (0 before the first), the
    bound must equal lower_bound(p), where a ValueError counts as a mismatch,
    and it must exceed the previous bound.  Then the last bound must exceed
    the target.  No witness at all is no certificate.
    """
    if not witnesses:
        return False
    previous_p, previous_bound = 0, None
    for p, bound in witnesses:
        if p <= previous_p:
            return False
        try:
            recomputed = lower_bound(p)
        except ValueError:
            return False
        if bound != recomputed:
            return False
        if previous_bound is not None and bound <= previous_bound:
            return False
        previous_p, previous_bound = p, bound
    return previous_bound > target


def format_one_variable(poly: dict[int, int], name: str) -> str:
    """Text form of a one-variable {exponent: coefficient} map, highest term first.

    Written out case by case from the grammar: no factor at exponent 0, the
    bare name at exponent 1, and no coefficient 1 in front of a factor.
    """
    text = ""
    for e in sorted(poly, reverse=True):
        c = poly[e]
        digits = str(abs(c))
        if e == 0:
            body = digits
        else:
            factor = name if e == 1 else name + "^" + str(e)
            body = factor if digits == "1" else digits + "*" + factor
        if not text:
            text = body if c > 0 else "-" + body
        else:
            text += (" + " if c > 0 else " - ") + body
    return text or "0"


def fox_derivative_letters(
    word: tuple[int, ...], wrt: int, exponent_of: dict[int, int]
) -> dict[int, int]:
    """The abelianized Fox derivative of a word, one letter at a time.

    Letter +k is generator k and -k its inverse; generator k maps to
    t^exponent_of[k].  By the product rule, a letter g of the wrt generator
    adds t^prefix and a letter g^-1 subtracts t^(prefix after it), where
    prefix is the image of the word read so far.
    """
    out: dict[int, int] = {}
    prefix = 0
    for letter in word:
        step = exponent_of[abs(letter)]
        if letter > 0:
            if letter == wrt:
                out[prefix] = out.get(prefix, 0) + 1
            prefix += step
        else:
            prefix -= step
            if -letter == wrt:
                out[prefix] = out.get(prefix, 0) - 1
    return {e: c for e, c in out.items() if c}
