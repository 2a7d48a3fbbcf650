"""Property-based checks of the algebra layer and of the four input parsers."""

import json
import math
import os
import re
import subprocess
import sys
from functools import reduce
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from knotsurgery import knots, laurent
from knotsurgery.family import (
    FamilyReport,
    FamilyRow,
    UnboundednessCertificate,
    Witness,
    verify_certificate,
)
from knotsurgery.knots import (
    ConnectedSum,
    KnotParseError,
    Mirror,
    Torus,
    Unknot,
    alexander_expr,
    format_knot_expr,
    parse_knot_expr,
)
from knotsurgery.laurent import (
    INT64_MAX,
    INT64_MIN,
    ExponentOverflowError,
    LaurentPoly,
    NotDivisibleError,
    PolyParseError,
    VariableSet,
    _joined,
    _write_indent2,
)
from knotsurgery.surgery import (
    LinkFamilyMember,
    SurgerySpec,
    SWResult,
    sw_link_surgery,
    sw_specialized,
    torres_specialize,
)

from _oracles import (
    convolve,
    cyclotomic_quotient,
    dense_divide,
    format_one_variable,
    geometric_sum,
    schoolbook,
    semigroup_delta,
    single_pass_verdict,
)

T = VariableSet("t")
XY = VariableSet("x", "y")
KG = VariableSet("t_K", "t_G")

coefficients = st.integers(min_value=-(10 ** 9), max_value=10 ** 9)
big_coefficients = st.integers(min_value=-(10 ** 40), max_value=10 ** 40)
exponents = st.integers(min_value=-20, max_value=20)


def polys(variables=T, max_terms=8, coeff=coefficients):
    width = len(variables)
    term = st.tuples(st.tuples(*([exponents] * width)), coeff)
    return st.lists(term, max_size=max_terms).map(lambda ts: LaurentPoly(variables, ts))


nonzero_polys = polys().filter(lambda poly: not poly.is_zero())


def from_dict(terms: dict, variables=T) -> LaurentPoly:
    return LaurentPoly(variables, {(e,): c for e, c in terms.items()})


# one-variable {exponent: coefficient} maps; dense ones fill most of a
# 13-exponent window, sparse ones spread over a span far above their size
mixed_coefficients = st.one_of(st.integers(-3, 3), big_coefficients).filter(bool)
dense_terms = st.integers(-30, 30).flatmap(
    lambda lo: st.dictionaries(st.integers(lo, lo + 12), mixed_coefficients, min_size=1, max_size=13)
)
sparse_terms = st.dictionaries(
    st.integers(-40, 40).map(lambda k: 997 * k), mixed_coefficients, min_size=1, max_size=6
)


# exponents within 6 of INT64_MIN, 0 or INT64_MAX: a product of two such
# factors lands near an end of the range, inside it or just outside
def near(anchor):
    return st.integers(max(INT64_MIN, anchor - 6), min(INT64_MAX, anchor + 6))


anchors = st.sampled_from([INT64_MIN, 0, INT64_MAX])
edge_terms = anchors.flatmap(lambda a: st.dictionaries(near(a), mixed_coefficients, max_size=13))
edge_xy_terms = st.tuples(anchors, anchors).flatmap(
    lambda a: st.dictionaries(st.tuples(near(a[0]), near(a[1])), mixed_coefficients, max_size=6)
)


def in_range(exps) -> bool:
    return all(INT64_MIN <= e <= INT64_MAX for e in exps)


# the documents the CLI prints, with polynomials over 0-3 variables inside
any_poly = st.sampled_from([VariableSet(), T, XY, VariableSet("a", "b", "c")]).flatmap(
    lambda v: polys(variables=v, max_terms=5, coeff=big_coefficients)
)
counts = st.integers(min_value=0, max_value=10 ** 20)
family_rows = st.builds(FamilyRow, counts, any_poly, counts, st.booleans(), counts, counts)
documents = st.one_of(
    any_poly,
    any_poly.map(LaurentPoly.to_json_dict),
    st.builds(SWResult, counts, counts, st.none() | any_poly, any_poly, counts).map(
        SWResult.to_json_dict
    ),
    st.builds(FamilyReport, counts, st.lists(family_rows, max_size=3).map(tuple)).map(
        FamilyReport.to_json_dict
    ),
    st.builds(
        UnboundednessCertificate, counts, st.lists(st.builds(Witness, counts, counts)).map(tuple)
    ).map(UnboundednessCertificate.to_json_dict),
    st.fixed_dictionaries({"valid": st.booleans(), "target": counts, "witness_count": counts}),
)


class TestRingAxioms:
    @given(polys(), polys())
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(polys(), polys(), polys())
    def test_addition_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(polys(), polys())
    def test_multiplication_commutes(self, a, b):
        assert a * b == b * a

    @given(polys(max_terms=5), polys(max_terms=5), polys(max_terms=5))
    @settings(deadline=None)
    def test_multiplication_associates(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(polys(max_terms=5), polys(max_terms=5), polys(max_terms=5))
    @settings(deadline=None)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys())
    def test_identities(self, a):
        assert a + LaurentPoly.zero(T) == a
        assert a * LaurentPoly.one(T) == a
        assert (a - a).is_zero()
        assert (a * LaurentPoly.zero(T)).is_zero()

    @given(polys(variables=XY, max_terms=6), polys(variables=XY, max_terms=6))
    def test_two_variable_arithmetic(self, a, b):
        assert a * b == b * a
        assert a + b == b + a


class TestProduct:
    @given(st.one_of(dense_terms, sparse_terms), st.one_of(dense_terms, sparse_terms))
    @settings(deadline=None)
    def test_matches_schoolbook_oracle(self, a, b):
        slots = max(a) - min(a) + max(b) - min(b) + 1
        event("packed" if min(len(a), len(b)) > 1 and slots <= len(a) * len(b) else "loop")
        assert from_dict(a) * from_dict(b) == from_dict(convolve(a, b))


class TestProductRange:
    @given(edge_terms, edge_terms)
    @settings(deadline=None)
    def test_one_variable_raises_iff_schoolbook_leaves_range(self, a, b):
        packed = min(len(a), len(b)) > 1 and max(a) - min(a) + max(b) - min(b) < len(a) * len(b)
        event("packed" if packed else "loop")
        expected = convolve(a, b)
        if all(in_range((e,)) for e in expected):
            assert from_dict(a) * from_dict(b) == from_dict(expected)
        else:
            with pytest.raises(ExponentOverflowError):
                from_dict(a) * from_dict(b)

    @given(edge_xy_terms, edge_xy_terms)
    @settings(deadline=None)
    def test_two_variables_raise_iff_schoolbook_leaves_range(self, a, b):
        expected = schoolbook(a, b)
        if all(in_range(exps) for exps in expected):
            assert LaurentPoly(XY, a) * LaurentPoly(XY, b) == LaurentPoly(XY, expected)
        else:
            with pytest.raises(ExponentOverflowError):
                LaurentPoly(XY, a) * LaurentPoly(XY, b)


class TestTorres:
    @given(polys(coeff=mixed_coefficients), st.integers(min_value=0, max_value=30))
    def test_matches_geometric_product(self, delta, lk):
        terms = {e: c for (e,), c in delta.terms()}
        assert torres_specialize(delta, lk) == from_dict(convolve(geometric_sum(lk), terms))

    @given(coefficients, st.integers(min_value=0, max_value=30))
    def test_constant_without_variables(self, c, lk):
        delta = LaurentPoly(VariableSet(), {(): c})
        expected = from_dict(convolve(geometric_sum(lk), {0: c}), VariableSet("y"))
        assert torres_specialize(delta, lk) == expected


class TestDivision:
    @given(polys(max_terms=6), nonzero_polys)
    @settings(deadline=None)
    def test_exact_divide_inverts_multiplication(self, a, b):
        assert (a * b).exact_divide(b) == a

    @given(polys(max_terms=6), nonzero_polys)
    @settings(deadline=None)
    def test_agrees_with_dense_oracle(self, a, b):
        num = {e[0]: c for e, c in a.terms()}
        den = {e[0]: c for e, c in b.terms()}
        expected = dense_divide(num, den)
        if expected is None:
            with pytest.raises(NotDivisibleError):
                a.exact_divide(b)
        else:
            got = a.exact_divide(b)
            assert got == LaurentPoly(T, {(e,): c for e, c in expected.items()})


# coprime p < q, with p = 2 and the family's q = p + 1 drawn often: their
# grids are one row each, and the others' grids have several
torus_pairs = st.one_of(
    st.integers(1, 150).map(lambda k: (2, 2 * k + 1)),
    st.integers(2, 24)
    .flatmap(lambda p: st.tuples(st.just(p), st.just(p + 1) | st.integers(p + 1, 8 * p + 40)))
    .filter(lambda pq: math.gcd(*pq) == 1),
)


class TestTorusWriter:
    @given(torus_pairs, st.sampled_from([1, 2, 3, knots._WINDOW]))
    # T(3, 5) in windows of 10 and of 3 exponents: its first grid's two rows
    # overlap, and a slice cut one term off there puts a term in the next
    # window, out of order, or drops it; random draws find such a case only
    # some of the time
    @example((3, 5), 1)
    @settings(deadline=None)
    def test_matches_both_oracles_in_every_window(self, pq, window):
        # windows of step * max(window, rows) exponents cut the rows at many
        # places
        p, q = pq
        event("adjacent" if q == p + 1 else "other")
        with mock.patch.object(knots, "_WINDOW", window):
            got = knots._torus_delta(p, q)
        g = (p - 1) * (q - 1) // 2
        raw = got * LaurentPoly.var(T, "t", g)
        assert raw == from_dict(semigroup_delta(p, q))
        assert raw == from_dict(cyclotomic_quotient(p, q))
        assert_canonical(got)


# divisors +-t^c (t^d - 1), c < 0 allowed, which exact_divide reads from the
# top one residue class mod d at a time, and quotients over negative
# exponents with big coefficients, dense, sparse or neither
unit_binomials = st.tuples(st.integers(-40, 40), st.integers(1, 60), st.sampled_from([1, -1])).map(
    lambda cds: {cds[0] + cds[1]: cds[2], cds[0]: -cds[2]}
)
binomial_quotients = st.one_of(
    dense_terms,
    sparse_terms,
    st.dictionaries(st.integers(-90, 30), mixed_coefficients, max_size=12),
)


@given(binomial_quotients, unit_binomials, st.integers(-200, 200), mixed_coefficients)
@settings(deadline=None, database=None, max_examples=300)
def _a_stray_term_is_a_remainder(quotient, den, e, c):
    # Q D + c t^e: the class of e mod d no longer sums to 0, and the error
    # names that class's lowest exponent.  Run in a child process with a
    # time bound by the test below, so a division that never ends fails
    num = convolve(quotient, den)
    num[e] = num.get(e, 0) + c
    num = {k: v for k, v in num.items() if v}
    d = max(den) - min(den)
    with pytest.raises(NotDivisibleError) as caught:
        from_dict(num).exact_divide(from_dict(den))
    named = re.search(r"remainder at exponent (-?[0-9]+):", str(caught.value))
    assert named and int(named[1]) == min(k for k in num if (k - e) % d == 0)


class TestUnitBinomialDivision:
    @given(binomial_quotients, unit_binomials)
    @settings(deadline=None)
    def test_inverts_multiplication_and_agrees_with_dense_oracle(self, quotient, den):
        num = convolve(quotient, den)
        event("a list per class" if max(den) - min(den) <= len(num) else "a dict per class")
        got = from_dict(num).exact_divide(from_dict(den))
        assert got == from_dict(quotient)
        assert got == from_dict(dense_divide(num, den))
        assert_canonical(got)

    def test_a_stray_term_is_a_remainder(self, tmp_path):
        tests = Path(__file__).resolve().parent
        child = f"import sys; sys.path.insert(0, {str(tests)!r}); import test_properties; " + (
            "test_properties._a_stray_term_is_a_remainder()"
        )
        env = {**os.environ, "PYTHONPATH": str(tests.parent / "src")}
        argv = [sys.executable, "-c", child]
        subprocess.run(argv, cwd=tmp_path, env=env, check=True, timeout=120)

    @given(
        st.sampled_from([INT64_MIN, INT64_MAX]).flatmap(
            lambda a: st.dictionaries(
                st.integers(a - 6, a + 6), mixed_coefficients, min_size=1, max_size=6
            )
        ),
        st.integers(1, 6),
        st.integers(0, 6),
        st.sampled_from([1, -1]),
    )
    @settings(deadline=None)
    def test_raises_iff_the_quotient_leaves_the_range(self, quotient, d, slack, sign):
        # Q near one end of the range, maybe past it, and t^c (t^d - 1) placed
        # so that Q times it fits the range with `slack` to spare
        if max(quotient) > 0:
            c = INT64_MAX - max(quotient) - d - slack
        else:
            c = INT64_MIN - min(quotient) + slack
        den = {c + d: sign, c: -sign}
        num = convolve(quotient, den)
        assert in_range(num)
        if in_range(quotient):
            assert from_dict(num).exact_divide(from_dict(den)) == from_dict(quotient)
        else:
            event("the quotient leaves the range at the " + ("top" if c < 0 else "bottom"))
            with pytest.raises(ExponentOverflowError):
                from_dict(num).exact_divide(from_dict(den))


def assert_canonical(poly: LaurentPoly) -> None:
    # the stored sequences ascend with no zero coefficient: the polynomial
    # built again by the sorting constructor is the same value with the same
    # hash, and terms(), their reversed walk, strictly descends
    rebuilt = LaurentPoly(poly.variables, dict(poly.terms()))
    assert poly == rebuilt
    assert hash(poly) == hash(rebuilt)
    terms = poly.terms()
    assert all(a > b for (a, _), (b, _) in zip(terms, terms[1:]))
    assert all(c for _, c in terms)


coprime_pairs = st.tuples(st.integers(2, 30), st.integers(3, 400)).filter(
    lambda pq: math.gcd(*pq) == 1
)


class TestEveryRouteIsCanonical:
    # each route that builds the sorted sequences directly, not through the
    # constructor that sorts a dict of accumulated terms

    @given(coprime_pairs, st.sampled_from([1, 3, 2048]))
    @settings(deadline=None)
    def test_torus_delta(self, pq, window):
        with mock.patch.object(knots, "_WINDOW", window):
            assert_canonical(alexander_expr(Torus.of(*pq)))
            assert_canonical(alexander_expr(Torus.of(*pq), symmetrize=False))

    @given(st.integers(1, 400))
    def test_adjacent_torus_delta(self, p):
        assert_canonical(knots._torus_quotient(p, p + 1))

    @given(polys(), st.integers(2, 60))
    def test_torres(self, poly, lk):
        assert_canonical(torres_specialize(poly, lk))

    @given(dense_terms, dense_terms)
    def test_packed_product(self, a, b):
        product = from_dict(a) * from_dict(b)
        event("packed" if max(a) - min(a) + max(b) - min(b) < len(a) * len(b) else "pairs")
        assert_canonical(product)

    @given(nonzero_polys, st.integers(-10, 10).filter(bool), st.booleans())
    def test_symmetrize_with_a_shift(self, seed, shift, flip):
        # seed(t) seed(1/t) is centered; the unit moves it off center
        centered = seed * seed.substitute({"t": (-1,)}, into=T)
        unit = LaurentPoly.var(T, "t", shift) * (-1 if flip else 1)
        assert_canonical((centered * unit).symmetrize())

    @given(any_poly)
    def test_negation(self, poly):
        assert_canonical(-poly)

    @given(polys(max_terms=6), nonzero_polys)
    def test_exact_divide(self, a, b):
        assert_canonical((a * b).exact_divide(b))


class TestSymmetrize:
    @given(polys(max_terms=6), st.integers(min_value=-10, max_value=10), st.booleans())
    @settings(deadline=None)
    def test_involution_and_unit_insensitivity(self, seed, shift, flip):
        mirrored = LaurentPoly(T, {(-e[0],): c for e, c in seed.terms()})
        symmetric = seed + mirrored
        if symmetric.is_zero():
            return
        unit = LaurentPoly(T, {(shift,): -1 if flip else 1})
        skewed = symmetric * unit
        canonical = skewed.symmetrize()
        assert canonical.symmetrize() == canonical
        assert canonical == symmetric.symmetrize()
        assert canonical.equal_up_to_units(skewed)

    @given(nonzero_polys, st.integers(min_value=-10, max_value=10), st.booleans())
    def test_equal_up_to_units_accepts_all_units(self, a, shift, flip):
        unit = LaurentPoly(T, {(shift,): -1 if flip else 1})
        assert a.equal_up_to_units(a * unit)


# torus factors with p <= q and pq <= 200, T(1, q) being the unknot
torus_leaves = (
    st.integers(1, 14)
    .flatmap(lambda p: st.tuples(st.just(p), st.integers(p, 200 // p)))
    .filter(lambda pq: math.gcd(*pq) == 1)
    .map(lambda pq: Torus.of(*pq))
)


def knot_exprs(depth: int = 4):
    """Knot expressions with at most `depth` mirror/sum levels."""
    leaves = st.one_of(st.just(Unknot()), torus_leaves)
    if depth == 0:
        return leaves
    inner = knot_exprs(depth - 1)
    return st.one_of(
        leaves,
        inner.map(Mirror),
        st.tuples(inner, inner).map(lambda pair: ConnectedSum(*pair)),
    )


def torus_factors(expr) -> list:
    if isinstance(expr, Torus):
        return [expr.spec]
    if isinstance(expr, Mirror):
        return torus_factors(expr.inner)
    if isinstance(expr, ConnectedSum):
        return torus_factors(expr.left) + torus_factors(expr.right)
    return []


class TestKnotExpressions:
    @given(knot_exprs())
    @settings(deadline=None)
    def test_both_representatives_match_semigroup_oracle(self, expr):
        factors = [semigroup_delta(spec.p, spec.q) for spec in torus_factors(expr)]
        expected = reduce(convolve, factors, {0: 1})
        raw = alexander_expr(expr, symmetrize=False)
        assert raw == from_dict(expected)
        assert min(raw.terms())[0] == (0,)
        half = raw.span() // 2
        symmetric = alexander_expr(expr)
        assert symmetric == from_dict({e - half: c for e, c in expected.items()})
        assert alexander_expr(Mirror(expr), symmetrize=False) == raw
        assert alexander_expr(Mirror(expr)) == symmetric


class TestSubstitutionAndEvaluation:
    @given(polys(max_terms=8))
    def test_single_variable_doubling_preserves_term_count(self, poly):
        doubled = poly.substitute({"t": (2,)}, into=T)
        assert doubled.term_count() == poly.term_count()

    @given(polys(variables=XY, max_terms=8))
    def test_doubling_substitution_preserves_term_count(self, poly):
        image = poly.substitute({"x": (2, 0), "y": (0, 2)}, into=KG)
        assert image.term_count() == poly.term_count()

    @given(polys(variables=XY, max_terms=8))
    def test_evaluate_at_one_sums_coefficients(self, poly):
        constant = poly.evaluate_at_one("x").evaluate_at_one("y")
        total = sum(c for _, c in poly.terms())
        assert constant.coefficient(()) == total


class TestSwRoutes:
    @settings(deadline=None)
    @given(
        st.sampled_from([XY, VariableSet("x"), VariableSet("y"), VariableSet()]).flatmap(polys),
        st.integers(1, 6),
    )
    def test_specialization_is_the_full_polynomial_at_tK1(self, delta_L, p):
        # Delta_L over x and y, x only, y only, or a constant, with exponents
        # of both signs: the doubled Delta_L(1, y) is SW(X_p) at t_K = 1
        spec = SurgerySpec(1, LinkFamilyMember(p))
        full = sw_link_surgery(spec, delta_L)
        result = sw_specialized(spec, delta_L)
        assert result.polynomial == full
        assert result.specialization_at_tK1 == full.evaluate_at_one("t_K")
        assert result.basic_class_lower_bound == result.specialization_at_tK1.term_count()


class TestSerialization:
    @given(polys(coeff=big_coefficients))
    def test_text_round_trip(self, poly):
        assert LaurentPoly.parse(str(poly), poly.variables) == poly

    @given(polys(variables=KG, max_terms=6, coeff=big_coefficients))
    def test_two_variable_text_round_trip(self, poly):
        assert LaurentPoly.parse(str(poly), poly.variables) == poly

    @given(polys(coeff=big_coefficients))
    def test_json_round_trip(self, poly):
        assert LaurentPoly.from_json(poly.to_json()) == poly

    @given(polys(variables=XY, max_terms=6, coeff=big_coefficients))
    def test_two_variable_json_round_trip(self, poly):
        assert LaurentPoly.from_json(poly.to_json()) == poly

    @given(
        st.dictionaries(
            exponents | st.sampled_from([INT64_MIN, INT64_MAX]),
            st.sampled_from([1, -1, 2, -2]) | big_coefficients.filter(bool),
            max_size=40,
        ),
        st.sampled_from([1, 2, 3, 5, 4096]),
    )
    def test_one_variable_writers_match_independent_formatters(self, terms, slice_size):
        # small slices put t^1, t^0 and the leading term on every side of a
        # slice boundary
        poly = from_dict(terms)
        with mock.patch.object(laurent, "_SLICE", slice_size):
            assert str(poly) == format_one_variable(terms, "t")
            assert _joined(_write_indent2, poly) == json.dumps(poly.to_json_dict(), indent=2)

    @given(
        st.sampled_from([VariableSet(), XY, VariableSet("a", "b", "c")]).flatmap(
            lambda v: polys(
                variables=v,
                max_terms=40,
                coeff=st.sampled_from([1, -1, 2, -2]) | big_coefficients.filter(bool),
            )
        ),
        st.sampled_from([1, 2, 3, 5, 4096]),
    )
    def test_writers_match_json_and_parse_at_other_variable_counts(self, poly, slice_size):
        # each slice's table of term templates holds repeated coefficients
        # next to ones drawn once
        with mock.patch.object(laurent, "_SLICE", slice_size):
            assert _joined(_write_indent2, poly) == json.dumps(poly.to_json_dict(), indent=2)
            assert LaurentPoly.parse(str(poly), poly.variables) == poly

    @given(documents)
    # plain dicts that only look like polynomial documents are plain dicts
    @example({"variables": ["a"], "terms": [{"exps": [1], "coeff": 5}]})
    @example({"variables": ["a"], "terms": [{"exps": [1], "coeff": "5", "note": None}]})
    # scalars that skip json.dumps: bools, None, ints of either sign and size
    @example({"flag": True})
    @example([False])
    @example({"none": None})
    @example([None])
    @example({"n": -7})
    @example([-7])
    @example({"n": 10 ** 999})
    @example([10 ** 999])
    @settings(deadline=None)
    def test_indent2_writer_matches_json_dumps(self, doc):
        assert _joined(_write_indent2, doc) == json.dumps(
            doc, indent=2, default=LaurentPoly.to_json_dict
        )


@st.composite
def integer_certificates(draw):
    # indices up to 60, half of the lists strictly increasing and the rest
    # with repeats and reorders; bounds 2p - 1 moved by -2..2, most by 0;
    # targets around the last bound
    ps = draw(st.lists(st.integers(0, 60), max_size=8))
    if draw(st.booleans()):
        ps = sorted(set(ps))
    offsets = st.integers(-2, 2) | st.just(0)
    witnesses = [(p, 2 * p - 1 + draw(offsets)) for p in ps]
    last = witnesses[-1][1] if witnesses else 0
    return draw(st.integers(last - 3, last + 1)), witnesses


class TestVerifyCertificate:
    @given(integer_certificates())
    @settings(deadline=None, max_examples=300)
    def test_two_passes_give_the_single_pass_verdict(self, certificate):
        target, witnesses = certificate
        expected = single_pass_verdict(
            target, witnesses, lambda p: len(semigroup_delta(p, p + 1))
        )
        event("valid" if expected else "rejected")
        cert = UnboundednessCertificate(target, tuple(Witness(*w) for w in witnesses))
        assert verify_certificate(cert) is expected


# -- the parsing gate: text and JSON loaders fail only with their own errors --

# characters outside both grammars: whitespace, non-ASCII digits, punctuation
NOISE = [" ", "\t", "\n", "\u0663", "\uff13", "!", ".", "x", "\x00", "\u00e9", "{"]


def texts(pieces, valid):
    # valid text with one piece spliced in, runs of pieces, and free text over
    # the same characters
    alphabet = "".join(sorted(set("".join(pieces))))
    spliced = st.tuples(valid, st.integers(0, 60), st.sampled_from(pieces)).map(
        lambda v: v[0][: v[1]] + v[2] + v[0][v[1]:]
    )
    return st.one_of(
        valid,
        spliced,
        st.lists(st.sampled_from(pieces), max_size=24).map("".join),
        st.text(alphabet=alphabet, max_size=40),
    )


knot_exprs = st.recursive(
    st.one_of(
        st.just("unknot"),
        # mostly coprime pairs; 0 and a common factor are rejected
        st.sampled_from([(1, 1), (2, 3), (5, 3), (3, 4), (2, 9), (7, 4), (0, 3), (4, 6)]).map(
            lambda pq: "torus(%d,%d)" % pq
        ),
    ),
    lambda inner: st.one_of(
        inner.map(lambda e: f"mirror({e})"),
        st.tuples(inner, inner).map(lambda lr: "sum(%s,%s)" % lr),
    ),
    max_leaves=4,
)
knot_texts = texts(
    ["unknot", "torus", "mirror", "sum", "(", ")", ",", "1", "2", "3", "12", "0"] + NOISE,
    knot_exprs,
)
poly_texts = texts(
    ["t", "y", "t_K", "^", "*", "+", "-", "0", "1", "2", "12", "9223372036854775807", "("]
    + NOISE,
    st.one_of(polys(), polys(variables=XY, max_terms=4)).map(str),
)
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def maybe(strategy):
    # near-miss documents: mostly the right shape, one node in ten junk
    return st.integers(0, 9).flatmap(lambda k: strategy if k else json_values)


poly_documents = st.one_of(
    st.one_of(polys(), polys(variables=XY, max_terms=4)).map(LaurentPoly.to_json_dict),
    maybe(
        st.fixed_dictionaries(
            {
                "variables": maybe(st.lists(st.sampled_from(["t", "y", "t", "1t", ""]), max_size=2)),
                "terms": maybe(
                    st.lists(
                        maybe(
                            st.fixed_dictionaries(
                                {
                                    "exps": maybe(st.lists(maybe(st.integers()), max_size=2)),
                                    "coeff": maybe(st.integers().map(str)),
                                }
                            )
                        ),
                        max_size=4,
                    )
                ),
            }
        )
    ),
)
witness_lists = st.lists(st.builds(Witness, st.integers(1), st.integers(0)), min_size=1, max_size=4)
certificate_documents = st.one_of(
    st.builds(UnboundednessCertificate, st.integers(0), witness_lists.map(tuple)).map(
        UnboundednessCertificate.to_json_dict
    ),
    maybe(
        st.fixed_dictionaries(
            {
                "schema_version": maybe(st.just(1)),
                "target": maybe(st.integers(min_value=-1)),
                "witnesses": maybe(
                    st.lists(
                        maybe(
                            st.fixed_dictionaries(
                                {
                                    "p": maybe(st.integers(min_value=0)),
                                    "lower_bound": maybe(st.integers(min_value=-1)),
                                }
                            )
                        ),
                        max_size=4,
                    )
                ),
            }
        )
    ),
)


class TestParsingGate:
    # parse only: a fuzzed knot is never evaluated, so no kernel sees a fuzzed size
    @given(knot_texts)
    @settings(deadline=None)
    def test_knot_grammar(self, text):
        try:
            expr = parse_knot_expr(text)
        except KnotParseError:
            event("rejected")
            return
        event("accepted")
        assert parse_knot_expr(format_knot_expr(expr)) == expr

    @pytest.mark.parametrize("variables", [None, T], ids=["inferred", "fixed"])
    @given(text=poly_texts)
    @settings(deadline=None)
    def test_polynomial_grammar(self, variables, text):
        try:
            poly = LaurentPoly.parse(text, variables)
        except (PolyParseError, ExponentOverflowError):
            event("rejected")
            return
        event("accepted")
        assert LaurentPoly.parse(str(poly), poly.variables) == poly

    @given(poly_documents)
    @settings(deadline=None)
    def test_polynomial_json(self, doc):
        try:
            poly = LaurentPoly.from_json(json.dumps(doc))
        except (PolyParseError, ExponentOverflowError):
            event("rejected")
            return
        event("accepted")
        assert LaurentPoly.from_json(poly.to_json()) == poly

    @given(certificate_documents)
    @settings(deadline=None)
    def test_certificate_json(self, doc):
        try:
            certificate = UnboundednessCertificate.from_json(json.dumps(doc))
        except ValueError:
            event("rejected")
            return
        event("accepted")
        assert UnboundednessCertificate.from_json(certificate.to_json()) == certificate


def _parse_fixed(text):
    return LaurentPoly.parse(text, T)


# exact messages, recorded before the two grammars shared one tokenizer; the
# non-ASCII digits were accepted then and are rejected on purpose now
PARSE_ERROR_MESSAGES = [
    (parse_knot_expr, "", KnotParseError, "unexpected end of knot expression"),
    (parse_knot_expr, "knot", KnotParseError, "unknown knot constructor 'knot'"),
    (parse_knot_expr, "torus(2)", KnotParseError, "expected ',', got ')'"),
    (parse_knot_expr, "torus(2,3,4)", KnotParseError, "expected ')', got ','"),
    (parse_knot_expr, "torus(a,b)", KnotParseError, "torus(p,q) needs integer parameters"),
    (parse_knot_expr, "torus(4,6)", KnotParseError, "T(4,6) is a link, not a knot: gcd must be 1"),
    (parse_knot_expr, "mirror()", KnotParseError, "unknown knot constructor ')'"),
    (parse_knot_expr, "sum(unknot,unknot", KnotParseError, "unexpected end of knot expression"),
    (parse_knot_expr, "unknot extra", KnotParseError, "trailing input after knot expression: 'extra'"),
    (parse_knot_expr, "torus(2,3)!", KnotParseError, "unexpected character '!'"),
    (parse_knot_expr, "TORUS(2,3)", KnotParseError, "unexpected character 'T'"),
    (parse_knot_expr, "torus(-2,3)", KnotParseError, "unexpected character '-'"),
    (parse_knot_expr, "torus(2,3)\x00", KnotParseError, "unexpected character '\\x00'"),
    (parse_knot_expr, "torus(\u0663,4)", KnotParseError, "unexpected character '\u0663'"),
    (parse_knot_expr, "torus(2,3", KnotParseError, "unexpected end of knot expression"),
    (parse_knot_expr, "sum(unknot)", KnotParseError, "expected ',', got ')'"),
    (parse_knot_expr, "torus(2,3))", KnotParseError, "trailing input after knot expression: ')'"),
    (parse_knot_expr, "torus(2,\uff13)", KnotParseError, "unexpected character '\uff13'"),
    (parse_knot_expr, "torus(,3)", KnotParseError, "expected ',', got '3'"),
    (parse_knot_expr, "unknot(2)", KnotParseError, "trailing input after knot expression: '('"),
    (LaurentPoly.parse, "", PolyParseError, "empty polynomial text"),
    (LaurentPoly.parse, "t +", PolyParseError, "expected a coefficient or variable, got None"),
    (LaurentPoly.parse, "* t", PolyParseError, "expected a coefficient or variable, got '*'"),
    (LaurentPoly.parse, "t**2", PolyParseError, "expected a coefficient or variable, got '*'"),
    (LaurentPoly.parse, "t ^", PolyParseError, "expected an integer"),
    (LaurentPoly.parse, "t^x", PolyParseError, "expected an integer"),
    (LaurentPoly.parse, "2t", PolyParseError, "expected '+' or '-' between terms, got 't'"),
    (LaurentPoly.parse, "3 4", PolyParseError, "expected '+' or '-' between terms, got '4'"),
    (LaurentPoly.parse, "(t)", PolyParseError, "unexpected character '('"),
    (LaurentPoly.parse, "1..2", PolyParseError, "unexpected character '.'"),
    (LaurentPoly.parse, "t\x00", PolyParseError, "unexpected character '\\x00'"),
    (LaurentPoly.parse, "\u0663*t", PolyParseError, "unexpected character '\u0663'"),
    (
        _parse_fixed,
        "s + 1",
        PolyParseError,
        "variable 's' is not in the expected set ('t',)",
    ),
    (
        LaurentPoly.parse,
        "t^9223372036854775807*t",
        ExponentOverflowError,
        "exponent 9223372036854775808 outside the signed 64-bit range",
    ),
]


@pytest.mark.parametrize(
    "parse,text,error,message",
    PARSE_ERROR_MESSAGES,
    ids=[f"{parse.__name__}:{text}" for parse, text, _, _ in PARSE_ERROR_MESSAGES],
)
def test_parse_error_messages(parse, text, error, message):
    with pytest.raises(error) as excinfo:
        parse(text)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message
