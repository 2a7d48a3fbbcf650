"""Property-based checks of the algebra layer."""

import json

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from knotsurgery.family import FamilyReport, FamilyRow, UnboundednessCertificate, Witness
from knotsurgery.laurent import (
    INT64_MAX,
    INT64_MIN,
    ExponentOverflowError,
    LaurentPoly,
    NotDivisibleError,
    VariableSet,
    _dumps_indent2,
)
from knotsurgery.surgery import SWResult, torres_specialize

from _oracles import convolve, dense_divide, geometric_sum, schoolbook

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
        assert torres_specialize(delta, lk) == (delta if lk == 1 else expected)


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

    @given(documents)
    @settings(deadline=None)
    def test_indent2_writer_matches_json_dumps(self, doc):
        assert _dumps_indent2(doc) == json.dumps(doc, indent=2)
