"""Independent reference values for the benchmark's output checks.

Nothing here imports knotsurgery.  Polynomials are plain dicts: one variable
maps an exponent to a coefficient, several variables map an exponent tuple
(in the variables' order) to a coefficient.  Every check returns an error
message, or None when the output matches.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re

# zero-width match at every position where membership flips between s-1 and s
_EDGE = re.compile(rb"(?=\x00\x01|\x01\x00)")


def torus_delta(p: int, q: int) -> dict[int, int]:
    """Symmetrized Alexander polynomial of T(p, q) from its semigroup.

    Delta = (1 - t) * sum of t^s over s in <p, q>: every s at or past the
    conductor c = (p-1)(q-1) is in the semigroup, so the product collapses
    to a polynomial of degree c whose coefficient at k is [k in S] - [k-1 in S].
    """
    p, q = min(p, q), max(p, q)
    if p == 1:
        return {0: 1}
    c = (p - 1) * (q - 1)
    member = bytearray(c + 1)
    # bq is the least element of <p, q> in its residue class mod p
    for b in range(min(p, c // q + 1)):
        start = b * q
        member[start::p] = b"\x01" * len(range(start, c + 1, p))
    half = c // 2
    delta = {-half: 1}
    for m in _EDGE.finditer(member):
        k = m.start() + 1
        delta[k - half] = member[k] - member[k - 1]
    return delta


def convolve(a: dict, b: dict) -> dict:
    """Schoolbook product of two polynomials with int or tuple exponents."""
    out: dict = {}
    tuples = isinstance(next(iter(a), 0), tuple)
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb)) if tuples else ea + eb
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def binomial_power(m: int) -> dict[int, int]:
    """(t - t^-1)^m expanded with binomial coefficients."""
    out = {}
    coeff = 1
    for k in range(m + 1):
        out[m - 2 * k] = coeff * (-1) ** k
        coeff = coeff * (m - k) // (k + 1)
    return out


def format_poly(poly: dict, names: tuple[str, ...]) -> str:
    """Text form, highest exponent first, as a user would type it."""
    parts = []
    for key in sorted(poly, reverse=True):
        c = poly[key]
        exps = key if isinstance(key, tuple) else (key,)
        mon = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)
        body = f"{abs(c)}*{mon}" if mon and abs(c) != 1 else (mon or str(abs(c)))
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {body}" if parts else (f"-{body}" if c < 0 else body))
    return " ".join(parts) if parts else "0"


_SEPARATOR = re.compile(r" ([+-]) ")


def parse_poly(text: str, names: tuple[str, ...]) -> dict:
    """Parse the CLI text form over ``names``; one name gives int exponents.

    Raises ValueError on anything that is not a term list over ``names``
    in strictly descending exponent order.
    """
    text = text.strip()
    if text == "0":
        return {}
    pieces = _SEPARATOR.split(text)
    signs = [-1 if pieces[0].startswith("-") else 1] + [
        -1 if s == "-" else 1 for s in pieces[1::2]
    ]
    bodies = [pieces[0].lstrip("-")] + pieces[2::2]
    index = {name: i for i, name in enumerate(names)}
    out: dict = {}
    previous = None
    for sign, body in zip(signs, bodies):
        coeff = sign
        exps = [0] * len(names)
        for factor in body.split("*"):
            if factor.isdigit():
                coeff *= int(factor)
                continue
            name, _, power = factor.partition("^")
            exps[index[name]] += int(power) if power else 1
        key = tuple(exps) if len(names) > 1 else exps[0]
        if previous is not None and not key < previous:
            raise ValueError(f"terms out of order at {body!r}")
        previous = key
        out[key] = coeff
    return out


def json_poly(data: dict, names: tuple[str, ...]) -> dict:
    """Read a polynomial JSON document; one name gives int exponents."""
    if tuple(data["variables"]) != names:
        raise ValueError(f"variables {data['variables']} != {list(names)}")
    out: dict = {}
    for term in data["terms"]:
        exps = tuple(term["exps"])
        out[exps if len(names) > 1 else exps[0]] = int(term["coeff"])
    return out


def poly_digest(terms) -> str:
    """Digest of a one-variable polynomial up to units (sign and a power of t).

    ``terms`` are (exponent, coefficient) pairs.  Shifted so the lowest
    exponent is 0 and signed so its coefficient is positive.
    """
    terms = sorted(terms)
    lo, sign = terms[0][0], 1 if terms[0][1] > 0 else -1
    text = ",".join(f"{e - lo}:{sign * c}" for e, c in terms)
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def _mismatch(what: str, got, want) -> str | None:
    if got == want:
        return None
    if isinstance(got, dict) and isinstance(want, dict):
        diff = sorted(set(got.items()) ^ set(want.items()))[:3]
        return f"{what}: {len(got)} terms vs expected {len(want)}; first differences {diff}"
    return f"{what}: got {got!r:.300}, expected {want!r:.300}"


def check_poly_text(out: str, want: dict, names: tuple[str, ...]) -> str | None:
    try:
        got = parse_poly(out, names)
    except (ValueError, KeyError) as exc:
        return f"unparsable polynomial text: {exc}"
    return _mismatch("polynomial", got, want)


def check_poly_json(out: str, want: dict, names: tuple[str, ...]) -> str | None:
    try:
        got = json_poly(json.loads(out), names)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable polynomial JSON: {exc}"
    return _mismatch("polynomial", got, want)


def geometric_times(poly: dict[int, int], lk: int) -> dict[int, int]:
    """(1 + y + ... + y^(lk-1)) * poly by schoolbook convolution."""
    return convolve({e: 1 for e in range(lk)}, poly) if poly else {}


def family_deltas(p_max: int) -> list[dict[int, int]]:
    """Delta of T(p, p+1) for p = 1..p_max, at list index p - 1."""
    return [torus_delta(p, p + 1) for p in range(1, p_max + 1)]


def family_row_error(p: int, lower_bound, genus, span, lemma_ok, delta: dict, want_delta: dict) -> str | None:
    """Check one family row against 2p - 1, p(p-1)/2, p(p-1) and the semigroup."""
    want = (2 * p - 1, p * (p - 1) // 2, p * (p - 1), True)
    if (lower_bound, genus, span, lemma_ok) != want:
        return _mismatch(f"row p={p}", (lower_bound, genus, span, lemma_ok), want)
    return _mismatch(f"row p={p} delta", delta, want_delta)


def check_family_json(out: str, n: int, deltas: list[dict[int, int]]) -> str | None:
    try:
        data = json.loads(out)
        if data["n"] != n or [row["p"] for row in data["rows"]] != list(range(1, len(deltas) + 1)):
            return f"family JSON has n={data['n']} and {len(data['rows'])} rows"
        for row, want_delta in zip(data["rows"], deltas):
            error = family_row_error(
                row["p"], row["lower_bound"], row["genus"], row["span"],
                row["lemma63_ok"], json_poly(row["delta_gamma"], ("t",)), want_delta,
            )
            if error:
                return error
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable family JSON: {exc}"
    return None


CSV_HEADER = ["p", "lower_bound", "lemma63_ok", "genus", "span", "delta_gamma"]


def check_family_csv(out: str, deltas: list[dict[int, int]]) -> str | None:
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != CSV_HEADER:
        return f"family CSV header is {rows[:1]}"
    if [row[0] for row in rows[1:]] != [str(p) for p in range(1, len(deltas) + 1)]:
        return f"family CSV has {len(rows) - 1} rows, expected p = 1..{len(deltas)}"
    for (p_text, bound, lemma, genus, span, delta), want_delta in zip(rows[1:], deltas):
        try:
            error = family_row_error(
                int(p_text), int(bound), int(genus), int(span),
                lemma == "true", parse_poly(delta, ("t",)), want_delta,
            )
        except (ValueError, KeyError) as exc:
            return f"unparsable CSV row p={p_text}: {exc}"
        if error:
            return error
    return None


def certificate_witnesses(target: int) -> list[tuple[int, int]]:
    """The greedy witnesses: every p has bound 2p - 1, so every p up to the first 2p - 1 > target."""
    return [(p, 2 * p - 1) for p in range(1, (target + 1) // 2 + 2)]


def check_certificate(out: str, target: int) -> str | None:
    try:
        data = json.loads(out)
        got = (data["schema_version"], data["target"],
               [(w["p"], w["lower_bound"]) for w in data["witnesses"]])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable certificate: {exc}"
    return _mismatch("certificate", got, (1, target, certificate_witnesses(target)))


def check_verify(out: str, target: int, witness_count: int, valid: bool) -> str | None:
    try:
        got = json.loads(out)
    except ValueError as exc:
        return f"unreadable verify document: {exc}"
    want = {"valid": valid, "target": target, "witness_count": witness_count}
    return _mismatch("verify document", got, want)


def check_sw_json(out: str, p: int, n: int, full: dict, bound: int) -> str | None:
    try:
        data = json.loads(out)
        got = (data["p"], data["n"], data["lower_bound"],
               json_poly(data["specialization"], ("t_G",)),
               json_poly(data["full_polynomial"], ("t_K", "t_G")))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable sw document: {exc}"
    # the (t_K - t_K^-1)^(n-1) prefactor vanishes at t_K = 1 for n >= 2
    return _mismatch("sw document", got, (p, n, bound, {}, full))


def crosscheck_lines(pairs: list[tuple[int, int]]) -> list[str]:
    """Expected cross-check lines: Fox and the closed formula agree with the semigroup."""
    lines = []
    for p, q in pairs:
        digest = poly_digest(torus_delta(p, q).items())
        lines.append(f"{p} {q} 1 {digest} {digest}")
    return lines


def check_crosscheck(out: str, want: list[str]) -> str | None:
    lines = out.splitlines()
    if len(lines) != len(want):
        return f"crosscheck printed {len(lines)} lines for {len(want)} pairs"
    for got_line, want_line in zip(lines, want):
        if got_line != want_line:
            return f"crosscheck: got {got_line!r}, expected {want_line!r}"
    return None
