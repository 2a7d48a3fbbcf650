"""Acceptance gate: the seven headline guarantees, one test each.

Every test prints a single PASS or FAIL line (run with -s to see them all)
and enforces its runtime budget where one is stated.  Randomized criteria
use a fixed seed, so the whole gate is reproducible.
"""

import math
import random
import time

from knotsurgery.family import certify_unbounded, verify_certificate
from knotsurgery.fox import GroupPresentation, alexander_fox_oracle
from knotsurgery.knots import TorusKnotSpec, alexander_torus
from knotsurgery.laurent import LaurentPoly, VariableSet
from knotsurgery.surgery import (
    KG_VARS,
    LinkFamilyMember,
    SurgerySpec,
    basic_class_lower_bound,
    sw_link_surgery,
    torres_specialize,
)

from _oracles import convolve, geometric_sum

T = VariableSet("t")
XY = VariableSet("x", "y")
TG = VariableSet("t_G")

SEED = 20260815


def _finish(name, start, failures, budget=None):
    elapsed = time.monotonic() - start
    over_budget = budget is not None and elapsed > budget
    status = "FAIL" if failures or over_budget else "PASS"
    note = f" (budget {budget:.0f}s)" if budget is not None else ""
    print(f"[{status}] {name}: {elapsed:.2f}s{note}")
    assert not failures, f"{len(failures)} failures, first: {failures[0]}"
    assert not over_budget, f"{name} took {elapsed:.2f}s, budget {budget}s"


def _coprime_pairs(lo, hi):
    for p in range(lo, hi + 1):
        for q in range(p + 1, hi + 1):
            if math.gcd(p, q) == 1:
                yield p, q


def _random_poly(rng, variables, max_terms, max_exp, coeff_bound=999):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(-max_exp, max_exp) for _ in variables.names)
        terms[exps] = rng.randint(-coeff_bound, coeff_bound)
    return LaurentPoly(variables, terms)


def test_criterion_1_torus_knot_divisibility():
    start = time.monotonic()
    failures = []
    t = LaurentPoly.var(T, "t")
    for p, q in _coprime_pairs(2, 60):
        numerator = (t ** (p * q) - 1) * (t - 1)
        denominator = (t ** p - 1) * (t ** q - 1)
        quotient = numerator.exact_divide(denominator)
        if quotient * denominator != numerator:
            failures.append(f"T({p},{q}): quotient does not reproduce the numerator")
        if not all(c in (-1, 1) for _, c in quotient.terms()):
            failures.append(f"T({p},{q}): coefficient outside {{-1,0,1}}")
        if quotient.span() != (p - 1) * (q - 1):
            failures.append(f"T({p},{q}): span {quotient.span()}")
    _finish("criterion 1, torus-knot divisibility sweep", start, failures, budget=10)


def test_criterion_2_fox_oracle_equivalence():
    start = time.monotonic()
    failures = []
    for p, q in _coprime_pairs(2, 9):
        presentation = GroupPresentation.torus_knot(p, q)
        oracle = alexander_fox_oracle(presentation, {"x": q, "y": p})
        closed = alexander_torus(TorusKnotSpec(p, q))
        if not oracle.equal_up_to_units(closed):
            failures.append(f"T({p},{q}): oracle disagrees with closed formula")
        elif oracle.symmetrize() != closed:
            failures.append(f"T({p},{q}): canonical forms differ")
    _finish("criterion 2, Fox oracle equivalence", start, failures, budget=5)


def test_criterion_3_lower_bound_sweep():
    start = time.monotonic()
    failures = []
    for p in range(1, 301):
        bound = basic_class_lower_bound(p)
        if bound < p:
            failures.append(f"p={p}: bound {bound} < p")
    _finish("criterion 3, lower-bound sweep p <= 300", start, failures, budget=30)


def test_criterion_4_torres_identity():
    start = time.monotonic()
    failures = []
    for p in range(1, 101):
        delta = alexander_torus(TorusKnotSpec(p, p + 1))
        if torres_specialize(delta, 1) != delta:
            failures.append(f"p={p}: lk=1 specialization changed the polynomial")
    for lk in (0, 2, 3):
        for p in (1, 2, 3, 5, 8):
            delta = alexander_torus(TorusKnotSpec(p, p + 1))
            got = torres_specialize(delta, lk)
            expected_dict = convolve(
                geometric_sum(lk), {e[0]: c for e, c in delta.terms()}
            )
            expected = LaurentPoly(delta.variables, {(e,): c for e, c in expected_dict.items()})
            if got != expected:
                failures.append(f"p={p}, lk={lk}: torres disagrees with convolution")
    _finish("criterion 4, Torres identity", start, failures)


def test_criterion_5_prefactor_law():
    start = time.monotonic()
    failures = []
    rng = random.Random(SEED)
    samples = [_random_poly(rng, XY, max_terms=8, max_exp=10) for _ in range(20)]
    for i, delta_L in enumerate(samples):
        for n in (2, 3, 4):
            spec = SurgerySpec(n, LinkFamilyMember(1))
            sw = sw_link_surgery(spec, delta_L)
            if not sw.evaluate_at_one("t_K").is_zero():
                failures.append(f"sample {i}, n={n}: t_K=1 value is nonzero")
        spec1 = SurgerySpec(1, LinkFamilyMember(1))
        at_one = sw_link_surgery(spec1, delta_L).evaluate_at_one("t_K")
        direct = delta_L.evaluate_at_one("x").substitute({"y": (2,)}, into=TG)
        if at_one != direct:
            failures.append(f"sample {i}: n=1 specialization differs from direct route")
    _finish("criterion 5, prefactor law", start, failures)


def test_criterion_6_unboundedness_certificates():
    start = time.monotonic()
    failures = []
    for m in range(1, 501):
        certificate = certify_unbounded(m, 1000)
        last = certificate.witnesses[-1]
        if last.p > m + 1:
            failures.append(f"m={m}: last witness p={last.p} exceeds m+1")
        if last.lower_bound <= m:
            failures.append(f"m={m}: final bound {last.lower_bound} does not exceed target")
        if not verify_certificate(certificate):
            failures.append(f"m={m}: verification rejected a fresh certificate")
    _finish("criterion 6, unboundedness certificates", start, failures, budget=60)


def test_criterion_7_algebra_property_suite():
    start = time.monotonic()
    failures = []
    rng = random.Random(SEED)

    for case in range(1000):
        a = _random_poly(rng, T, max_terms=6, max_exp=15)
        b = _random_poly(rng, T, max_terms=6, max_exp=15)
        c = _random_poly(rng, T, max_terms=6, max_exp=15)
        if a + b != b + a or a * b != b * a:
            failures.append(f"ring case {case}: commutativity")
        if (a + b) + c != a + (b + c) or (a * b) * c != a * (b * c):
            failures.append(f"ring case {case}: associativity")
        if a * (b + c) != a * b + a * c:
            failures.append(f"ring case {case}: distributivity")

    for case in range(1000):
        a = _random_poly(rng, T, max_terms=6, max_exp=12)
        b = _random_poly(rng, T, max_terms=5, max_exp=12)
        while b.is_zero():
            b = _random_poly(rng, T, max_terms=5, max_exp=12)
        if (a * b).exact_divide(b) != a:
            failures.append(f"division case {case}: round trip broke")

    doubling = {"x": (2, 0), "y": (0, 2)}
    for case in range(1000):
        poly = _random_poly(rng, XY, max_terms=8, max_exp=12)
        image = poly.substitute(doubling, into=KG_VARS)
        if image.term_count() != poly.term_count():
            failures.append(f"substitution case {case}: term count changed")

    for case in range(1000):
        seed = _random_poly(rng, T, max_terms=5, max_exp=10)
        mirrored = LaurentPoly(T, {(-e[0],): coeff for e, coeff in seed.terms()})
        symmetric = seed + mirrored
        if symmetric.is_zero():
            continue
        shift = rng.randint(-8, 8)
        sign = rng.choice((1, -1))
        skewed = symmetric * LaurentPoly(T, {(shift,): sign})
        canonical = skewed.symmetrize()
        if canonical.symmetrize() != canonical:
            failures.append(f"symmetrize case {case}: not idempotent")
        if not canonical.equal_up_to_units(skewed):
            failures.append(f"symmetrize case {case}: left the unit class")

    for case in range(1000):
        variables = rng.choice((T, XY))
        poly = _random_poly(rng, variables, max_terms=6, max_exp=15, coeff_bound=10 ** 35)
        if LaurentPoly.parse(str(poly), variables) != poly:
            failures.append(f"serialization case {case}: text round trip")
        if LaurentPoly.from_json(poly.to_json()) != poly:
            failures.append(f"serialization case {case}: json round trip")

    _finish("criterion 7, algebra property suite", start, failures)
