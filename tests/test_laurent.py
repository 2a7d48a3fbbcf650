import json
import os
import re
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import jsonschema
import pytest

from knotsurgery import laurent, schemas
from knotsurgery.laurent import (
    INT64_MAX,
    INT64_MIN,
    ExponentOverflowError,
    LaurentPoly,
    NotDivisibleError,
    NotSymmetrizableError,
    PolyParseError,
    VariableSet,
    _check_digits,
    _joined,
    _write_indent2,
    _write_text,
)
from knotsurgery.surgery import torres_specialize

from _oracles import convolve, dense_divide

SRC = Path(__file__).resolve().parents[1] / "src"
T = VariableSet("t")


def p(text: str, variables: VariableSet = T) -> LaurentPoly:
    return LaurentPoly.parse(text, variables)


def from_dict(terms: dict) -> LaurentPoly:
    return LaurentPoly(T, {(e,): c for e, c in terms.items()})


class TestVariableSet:
    def test_order_is_construction_order(self):
        vs = VariableSet("t_K", "t_G")
        assert vs.names == ("t_K", "t_G")
        assert vs.index("t_G") == 1

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            VariableSet("t", "t")

    def test_rejects_bad_names(self):
        with pytest.raises(ValueError):
            VariableSet("2t")
        with pytest.raises(ValueError):
            VariableSet("a b")

    @pytest.mark.parametrize("name", [5, None, ["x", "y"]], ids=["int", "None", "list"])
    def test_names_are_the_arguments(self, name):
        with pytest.raises(ValueError, match=f"^invalid variable name: {re.escape(repr(name))}$"):
            VariableSet(name)

    def test_without(self):
        vs = VariableSet("x", "y")
        assert vs.without("x").names == ("y",)
        with pytest.raises(ValueError):
            vs.without("z")


class TestConstruction:
    def test_zero_coefficients_are_dropped(self):
        poly = LaurentPoly(T, {(3,): 0, (1,): 2})
        assert poly.term_count() == 1
        assert poly.coefficient((3,)) == 0

    def test_coefficient_reads_only_its_own_exponent(self):
        poly = p("3*t^4 - t + 7*t^-2")
        assert [poly.coefficient((e,)) for e in range(-3, 6)] == [0, 7, 0, 0, -1, 0, 0, 3, 0]
        assert poly.coefficient((1, 0)) == 0
        xy = LaurentPoly.parse("x^2*y - 3*y^2")
        assert [xy.coefficient(e) for e in [(2, 1), (0, 2), (1, 1), (2,)]] == [1, -3, 0, 0]

    def test_duplicate_exponents_merge(self):
        poly = LaurentPoly(T, [((1,), 2), ((1,), -2), ((0,), 5)])
        assert poly == LaurentPoly.constant(T, 5)

    def test_rejects_float_coefficients(self):
        with pytest.raises(ValueError):
            LaurentPoly(T, {(0,): 1.5})

    def test_rejects_bool_coefficients(self):
        with pytest.raises(ValueError):
            LaurentPoly(T, {(0,): True})

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            LaurentPoly(T, {(1, 2): 1})

    def test_exponent_bounds_checked(self):
        LaurentPoly(T, {(INT64_MAX,): 1})
        with pytest.raises(ExponentOverflowError):
            LaurentPoly(T, {(INT64_MAX + 1,): 1})

    @pytest.mark.parametrize(
        "exps,error",
        [((1, 2), ValueError), (("a",), ValueError), ((2 ** 70,), ExponentOverflowError)],
        ids=["wrong_arity", "str_exponent", "exponent_beyond_64_bits"],
    )
    def test_zero_coefficient_terms_are_validated(self, exps, error):
        with pytest.raises(error):
            LaurentPoly(T, {exps: 0})

    def test_zero_variable_constants(self):
        empty = VariableSet()
        assert LaurentPoly.constant(empty, 7).term_count() == 1
        assert LaurentPoly.zero(empty).is_zero()


class TestArithmetic:
    def test_cancellation_on_add(self):
        assert p("t - 1") + p("1") == p("t")

    def test_doubling(self):
        tre = p("t - 1 + t^-1")
        assert tre + tre == p("2*t - 2 + 2*t^-1")

    def test_difference_of_squares(self):
        assert p("t - 1") * p("t + 1") == p("t^2 - 1")

    def test_trefoil_square(self):
        trefoil = p("t - 1 + t^-1")
        assert str(trefoil * trefoil) == "t^2 - 2*t + 3 - 2*t^-1 + t^-2"

    def test_add_cancels_to_zero(self):
        a = p("t^5 - 3")
        assert (a - a).is_zero()
        assert str(a - a) == "0"

    def test_int_coercion(self):
        a = p("t + 1")
        assert a + 1 == p("t + 2")
        assert 2 * a == p("2*t + 2")
        assert 1 - a == -p("t")

    def test_pow(self):
        a = p("t - 1")
        assert a ** 0 == LaurentPoly.one(T)
        assert a ** 1 == a
        assert a ** 5 == a * a * a * a * a

    def test_pow_of_prefactor_shape(self):
        base = p("t - t^-1")
        assert base ** 0 == p("1")
        assert base ** 1 == base
        assert base ** 2 == p("t^2 - 2 + t^-2")

    def test_pow_rejects_negative(self):
        with pytest.raises(ValueError):
            p("t + 1") ** -1

    def test_mul_matches_convolution_oracle(self):
        a = {4: 3, 0: -1, -2: 7}
        b = {3: -2, 1: 1, 0: 5, -1: -4}
        pa = LaurentPoly(T, {(e,): c for e, c in a.items()})
        pb = LaurentPoly(T, {(e,): c for e, c in b.items()})
        expected = convolve(a, b)
        assert pa * pb == LaurentPoly(T, {(e,): c for e, c in expected.items()})

    def test_variable_mismatch_raises(self):
        with pytest.raises(ValueError):
            p("t + 1") + LaurentPoly.one(VariableSet("s"))

    def test_mul_overflow_detected(self):
        cases = [
            ({INT64_MAX: 1}, {INT64_MAX: 1}),
            # dense factors, so the packed product; one end leaves the range
            ({INT64_MAX: 1, INT64_MAX - 1: 1}, {1: 1, 0: 1}),
            ({INT64_MIN: 1, INT64_MIN + 1: 1}, {-1: 1, 0: 1}),
        ]
        for a, b in cases:
            with pytest.raises(ExponentOverflowError):
                from_dict(a) * from_dict(b)
            with pytest.raises(ExponentOverflowError):
                from_dict(b) * from_dict(a)

    @pytest.mark.parametrize(
        "a, b, packed",
        [
            ({INT64_MAX - 1: 1, INT64_MAX - 2: 1}, {1: 1, 0: 1}, True),
            ({INT64_MIN + 1: 1, INT64_MIN + 2: 1}, {-1: 1, 0: 1}, True),
            ({0: 1, 1: -1, 2: 1}, {-1: 3, 0: 2, 1: 1}, True),
            ({0: 1, 1: 1}, {0: 1, 2: -1}, True),  # 4 slots, 4 pairs
            ({0: 1, 1: 1}, {0: 1, 3: -1}, False),  # 5 slots, 4 pairs
            # the middle coefficient, 200 or -200, reaches the slot bound
            (dict.fromkeys(range(200), 1), dict.fromkeys(range(200), 1), True),
            (dict.fromkeys(range(200), 1), dict.fromkeys(range(-5, 195), -1), True),
            ({3: 1}, {0: 1, 1: 1}, False),  # a single-term factor
            ({0: 1, 1000: -1}, {0: 1, 3: 2, 2000: 1}, False),
        ],
    )
    def test_density_selects_the_packed_product(self, a, b, packed, monkeypatch):
        calls = []
        original = laurent._packed_product
        monkeypatch.setattr(
            laurent, "_packed_product", lambda *args: calls.append(args) or original(*args)
        )
        assert from_dict(a) * from_dict(b) == from_dict(convolve(a, b))
        assert len(calls) == packed


class TestExactDivide:
    def test_linear_quotient(self):
        assert p("t^2 - 1").exact_divide(p("t - 1")) == p("t + 1")

    def test_trefoil_closed_formula_quotient(self):
        num = p("t^6 - 1") * p("t - 1")
        den = p("t^2 - 1") * p("t^3 - 1")
        assert num.exact_divide(den) == p("t^2 - t + 1")

    def test_even_geometric_quotient(self):
        num = p("t^10 - 1")
        den = p("t^2 - 1")
        assert num.exact_divide(den) == p("t^8 + t^6 + t^4 + t^2 + 1")

    def test_laurent_shift(self):
        num = p("t - t^-1")
        den = p("t^-1 + 1")
        # t - t^-1 = (t^-1)(t^2 - 1) = (t^-1)(t - 1)(t + 1)
        assert num.exact_divide(den) == p("t - 1")

    def test_not_divisible(self):
        # in a child process with a time bound, so a division that never
        # ends fails here instead of hanging the suite
        child = textwrap.dedent("""
            import pytest
            from knotsurgery.laurent import LaurentPoly, NotDivisibleError
            p = LaurentPoly.parse
            with pytest.raises(NotDivisibleError):
                p("t^2 + 1").exact_divide(p("t - 1"))
        """)
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        subprocess.run([sys.executable, "-c", child], env=env, check=True, timeout=30)

    def test_not_divisible_by_the_heap_loop(self):
        # the same bound for divisors that are not +-(t^a - t^b): without its
        # floor on the quotient's exponents, the heap loop never ends here
        child = textwrap.dedent("""
            import pytest
            from knotsurgery.laurent import LaurentPoly, NotDivisibleError
            p = LaurentPoly.parse
            for num, den in [("t^2 + 1", "t + 1"), ("t^3 + 2", "t^2 + t + 1"), ("t^2", "2*t - 2")]:
                with pytest.raises(NotDivisibleError):
                    p(num).exact_divide(p(den))
        """)
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        subprocess.run([sys.executable, "-c", child], env=env, check=True, timeout=30)

    def test_not_divisible_names_no_operand(self):
        # 10^5000 is past CPython's int-to-string digit limit: the message
        # names the exponent of the remainder and the two term counts, and
        # formats neither operand
        num = LaurentPoly(T, {(2,): 10 ** 5000, (0,): 1})
        with pytest.raises(NotDivisibleError) as caught:
            num.exact_divide(p("t - 1"))
        message = str(caught.value)
        assert len(message) < 200
        assert "exponent 0" in message and "2-term" in message

    def test_not_divisible_by_content(self):
        with pytest.raises(NotDivisibleError):
            p("t + 1").exact_divide(p("2*t + 2"))

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            p("t").exact_divide(LaurentPoly.zero(T))

    def test_zero_numerator(self):
        assert LaurentPoly.zero(T).exact_divide(p("t - 1")).is_zero()

    def test_constant_division(self):
        empty = VariableSet()
        six = LaurentPoly.constant(empty, 6)
        three = LaurentPoly.constant(empty, 3)
        assert six.exact_divide(three) == LaurentPoly.constant(empty, 2)
        with pytest.raises(NotDivisibleError):
            three.exact_divide(six)

    def test_quotient_overflow_detected(self):
        with pytest.raises(ExponentOverflowError):
            p("1").exact_divide(LaurentPoly(T, {(INT64_MIN,): 1}))
        with pytest.raises(ExponentOverflowError):
            LaurentPoly(T, {(INT64_MIN,): 1}).exact_divide(p("t"))
        top = LaurentPoly(T, {(INT64_MAX,): 1, (INT64_MAX - 1,): 1})
        assert top.exact_divide(p("t + 1")) == LaurentPoly(T, {(INT64_MAX - 1,): 1})
        # the quotient t^(INT64_MIN - 5) + t^-5 leaves the range at the low end
        with pytest.raises(ExponentOverflowError):
            LaurentPoly(T, {(INT64_MIN,): 1, (0,): 1}).exact_divide(p("t^5"))

    def test_quotient_top_overflow_detected(self):
        # (t - 1) t^m (1 + t^(2^63)) with m = INT64_MIN stays in range, but
        # its quotient by (t - 1) t^m has the top exponent 2^63
        low = LaurentPoly(T, {(INT64_MIN + 1,): 1, (INT64_MIN,): -1})
        with pytest.raises(ExponentOverflowError, match=str(1 << 63)):
            (low + p("t - 1")).exact_divide(low)

    def test_quotient_top_overflow_detected_by_the_heap_loop(self):
        # the twin of the test above with (t + 1) t^m, no +-(t^a - t^b)
        low = LaurentPoly(T, {(INT64_MIN + 1,): 1, (INT64_MIN,): 1})
        with pytest.raises(ExponentOverflowError, match=str(1 << 63)):
            (low + p("t + 1")).exact_divide(low)

    def test_quotient_low_end_overflow_detected_by_the_heap_loop(self):
        # (t^2 + t)(t^(INT64_MIN - 1) + 1) stays in range; the quotient does not
        num = LaurentPoly(T, {(INT64_MIN + 1,): 1, (INT64_MIN,): 1, (2,): 1, (1,): 1})
        with pytest.raises(ExponentOverflowError, match=str(INT64_MIN - 1)):
            num.exact_divide(p("t^2 + t"))

    @pytest.mark.parametrize("low", [-1, -10 ** 6])
    def test_offset_numerator_divides_in_linear_time(self, low):
        # N = Q (t - 1) with Q = sum (k + 1) t^(low + k), k < 19999: N has
        # 20,000 terms and starts below exponent 0, where a division that
        # re-derived N's lowest exponent per term ran for seconds
        quotient = from_dict({low + k: k + 1 for k in range(19999)})
        num = from_dict({**{low + k: -1 for k in range(19999)}, low + 19999: 19999})
        assert num.term_count() == 20000
        budget = 2.0
        start = time.monotonic()
        got = num.exact_divide(p("t - 1"))
        elapsed = time.monotonic() - start
        assert got == quotient
        assert elapsed <= budget, f"exact_divide took {elapsed:.2f}s, budget {budget}s"

    @pytest.mark.parametrize("low", [-1, -10 ** 6])
    def test_offset_numerator_divides_in_linear_time_by_the_heap_loop(self, low):
        # the twin of the test above with the divisor t + 1: N = Q (t + 1)
        # has the coefficient 2k + 1 at low + k for 0 < k < 19999
        quotient = from_dict({low + k: k + 1 for k in range(19999)})
        num = from_dict({low + k: 2 * k + 1 for k in range(1, 19999)})
        num += from_dict({low: 1, low + 19999: 19999})
        assert num.term_count() == 20000
        budget = 2.0
        start = time.monotonic()
        got = num.exact_divide(p("t + 1"))
        elapsed = time.monotonic() - start
        assert got == quotient
        assert elapsed <= budget, f"exact_divide took {elapsed:.2f}s, budget {budget}s"

    @pytest.mark.parametrize("pq", [(2, 3), (3, 4), (4, 5), (3, 5), (5, 7)])
    def test_matches_dense_oracle_on_torus_quotients(self, pq):
        pe, qe = pq
        num_dict = convolve({pe * qe: 1, 0: -1}, {1: 1, 0: -1})
        den_dict = convolve({pe: 1, 0: -1}, {qe: 1, 0: -1})
        expected = dense_divide(num_dict, den_dict)
        assert expected is not None
        num = LaurentPoly(T, {(e,): c for e, c in num_dict.items()})
        den = LaurentPoly(T, {(e,): c for e, c in den_dict.items()})
        got = num.exact_divide(den)
        assert got == LaurentPoly(T, {(e,): c for e, c in expected.items()})


class TestUnitBinomialDivision:
    # divisors +-(t^a - t^b), read from the top one residue class at a time

    @pytest.mark.parametrize(
        "num, den, quotient",
        [
            ("t^2 - 1", "t - 1", "t + 1"),
            ("t^2 - 1", "1 - t", "-t - 1"),
            ("t^10 - 1", "t^2 - 1", "t^8 + t^6 + t^4 + t^2 + 1"),
            ("t^5 - t^-5", "t^-1 - t^-3", "t^6 + t^4 + t^2 + 1 + t^-2"),
            ("3*t^4 - 3*t^3 + 5*t - 5", "t - 1", "3*t^3 + 5"),
            ("t^7 - t^4 - t^3 + 1", "t^3 - 1", "t^4 - 1"),
            # d = 100 is more than the numerator's term count: a dict per class
            ("t^200 - 1", "t^100 - 1", "t^100 + 1"),
            ("-t^103 + t^3", "t^100 - 1", "-t^3"),
        ],
    )
    def test_quotients(self, num, den, quotient):
        got = p(num).exact_divide(p(den))
        assert got == p(quotient)
        assert got * p(den) == p(num)

    @pytest.mark.parametrize("den", ["t^3 - 1", "t^1000 - 1"])
    def test_remainder_names_the_last_term_of_its_class(self, den):
        # t^4 - t is a multiple of t^3 - 1 and t^2 is alone in its class mod 3;
        # mod 1000 each term is alone, and the lowest class comes first
        with pytest.raises(NotDivisibleError) as caught:
            p("t^4 + t^2 - t").exact_divide(p(den))
        assert str(caught.value) == (
            f"remainder at exponent {2 if den == 't^3 - 1' else 1}: a 3-term polynomial"
            " is not an exact multiple of a 2-term divisor"
        )

    def test_quotient_top_overflow_detected(self):
        # (t^-1 - t^-2)(t^(INT64_MAX + 1) + 1) stays in range; the quotient does not
        num = LaurentPoly(T, {(INT64_MAX,): 1, (INT64_MAX - 1,): -1, (-1,): 1, (-2,): -1})
        with pytest.raises(ExponentOverflowError, match=str(1 << 63)):
            num.exact_divide(p("t^-1 - t^-2"))
        # one below the top, the same quotient is in range
        num = LaurentPoly(T, {(INT64_MAX - 1,): 1, (INT64_MAX - 2,): -1, (-1,): 1, (-2,): -1})
        assert num.exact_divide(p("t^-1 - t^-2")) == LaurentPoly(T, {(INT64_MAX,): 1, (0,): 1})

    def test_quotient_low_end_overflow_detected(self):
        # (t^2 - t)(t^(INT64_MIN - 1) + 1) stays in range; the quotient does not
        num = LaurentPoly(T, {(INT64_MIN + 1,): 1, (INT64_MIN,): -1, (2,): 1, (1,): -1})
        with pytest.raises(ExponentOverflowError, match=str(INT64_MIN - 1)):
            num.exact_divide(p("t^2 - t"))
        num = LaurentPoly(T, {(INT64_MIN + 2,): 1, (INT64_MIN + 1,): -1, (2,): 1, (1,): -1})
        assert num.exact_divide(p("t^2 - t")) == LaurentPoly(T, {(INT64_MIN,): 1, (0,): 1})


class TestSymmetrize:
    def test_shifts_trefoil_representative(self):
        assert p("t^2 - t + 1").symmetrize() == p("t - 1 + t^-1")

    def test_constant(self):
        assert p("1").symmetrize() == p("1")
        assert p("-5").symmetrize() == p("5")

    def test_symmetrizes_raw_torus_form(self):
        raw = p("t^6 - t^5 + t^3 - t + 1")
        assert raw.symmetrize() == p("t^3 - t^2 + 1 - t^-2 + t^-3")

    def test_already_symmetric_is_fixed(self):
        tre = p("t - 1 + t^-1")
        assert tre.symmetrize() == tre

    def test_sign_is_normalized(self):
        assert p("-t^2 + 3*t - 1").symmetrize() == p("t - 3 + t^-1")

    def test_odd_span_rejected(self):
        with pytest.raises(NotSymmetrizableError):
            p("t + 1").symmetrize()
        with pytest.raises(NotSymmetrizableError):
            p("t^2 + t").symmetrize()

    def test_asymmetric_rejected(self):
        # the second has an even span and a palindromic coefficient list, but
        # t^3 has no mirror partner t^1
        for text in ["t^2 + t + 2", "t^4 + t^3 + 1"]:
            with pytest.raises(NotSymmetrizableError):
                p(text).symmetrize()

    def test_zero_rejected(self):
        with pytest.raises(NotSymmetrizableError):
            LaurentPoly.zero(T).symmetrize()

    def test_centered_positive_input_is_returned_as_is(self):
        tre = p("t - 1 + t^-1")
        assert tre.symmetrize() is tre
        negated = -tre
        sym = negated.symmetrize()
        assert sym is not negated
        assert sym == tre

    def test_result_is_involution_fixed_point(self):
        raw = p("3*t^7 - 2*t^5 + 3*t^4 - 2*t^3 + 3*t")
        sym = raw.symmetrize()
        assert sym.symmetrize() == sym


class TestEqualUpToUnits:
    def test_unit_shift(self):
        assert p("t^2 - t + 1").equal_up_to_units(p("t - 1 + t^-1"))

    def test_sign_flip(self):
        assert p("t - 1").equal_up_to_units(p("-t^3 + t^2"))

    def test_detects_difference(self):
        assert not p("t - 1").equal_up_to_units(p("t + 1"))
        assert not p("2*t - 2").equal_up_to_units(p("t - 1"))

    def test_same_coefficients_on_other_exponents_differ(self):
        assert not p("t^2 + 1").equal_up_to_units(p("t + 1"))
        assert not p("t^5 - t^4 + 3").equal_up_to_units(p("-t^2 + t - 3"))

    def test_zero_cases(self):
        zero = LaurentPoly.zero(T)
        assert zero.equal_up_to_units(zero)
        assert not zero.equal_up_to_units(p("t"))

    def test_constants_over_no_variables(self):
        empty = VariableSet()
        three = LaurentPoly.constant(empty, 3)
        assert three.equal_up_to_units(LaurentPoly.constant(empty, -3))
        assert not three.equal_up_to_units(LaurentPoly.constant(empty, 2))

    def test_shift_to_the_range_edges(self):
        low = LaurentPoly(T, {(INT64_MIN,): 2, (INT64_MIN + 1,): -1})
        high = LaurentPoly(T, {(INT64_MAX - 1,): -2, (INT64_MAX,): 1})
        assert low.equal_up_to_units(high)
        assert not low.equal_up_to_units(LaurentPoly(T, {(INT64_MAX - 1,): 1, (INT64_MAX,): -2}))


class TestSubstituteAndEvaluate:
    def test_single_variable_doubling(self):
        tre = p("t - 1 + t^-1")
        doubled = tre.substitute({"t": (2,)}, into=T)
        assert doubled == p("t^2 - 1 + t^-2")
        assert doubled.term_count() == tre.term_count()

    def test_doubling_substitution(self):
        xy = VariableSet("x", "y")
        kg = VariableSet("t_K", "t_G")
        poly = LaurentPoly.parse("x^2*y^-1 - 3", xy)
        image = poly.substitute({"x": (2, 0), "y": (0, 2)}, into=kg)
        assert str(image) == "t_K^4*t_G^-2 - 3"

    def test_substitute_requires_all_variables(self):
        xy = VariableSet("x", "y")
        poly = LaurentPoly.parse("x + y", xy)
        bad_mappings = [
            ({"x": (1, 0)}, ValueError),  # y unmapped
            ({"x": (1,), "y": (0, 1)}, ValueError),  # image narrower than the target
            ({"x": (1, 0, 0), "y": (0, 1)}, ValueError),  # image wider than the target
            ({"x": (1.0, 0), "y": (0, 1)}, ValueError),
            ({"x": (True, 0), "y": (0, 1)}, ValueError),
        ]
        for mapping, error in bad_mappings:
            with pytest.raises(error):
                poly.substitute(mapping, into=xy)
        with pytest.raises(TypeError):
            poly.substitute({"x": (1, 0), "y": (0, 1)}, into=("x", "y"))

    def test_substitute_overflow_detected(self):
        # 2^62 * 4 and -2^62 * -4 are 2^64, outside the signed 64-bit range
        with pytest.raises(ExponentOverflowError):
            p("t^4611686018427387904").substitute({"t": (4,)}, into=T)
        with pytest.raises(ExponentOverflowError):
            p("t^-4611686018427387904 + 1").substitute({"t": (-4,)}, into=T)
        kg = VariableSet("t_K", "t_G")
        with pytest.raises(ExponentOverflowError):
            p("t^3074457345618258603").substitute({"t": (1, 3)}, into=kg)
        # an image exponent outside the range fails even where no term uses it
        with pytest.raises(ExponentOverflowError):
            p("1").substitute({"t": (INT64_MAX + 1,)}, into=T)

    def test_evaluate_at_one_projects(self):
        xy = VariableSet("x", "y")
        poly = LaurentPoly.parse("x^2*y + x*y + x", xy)
        at_x1 = poly.evaluate_at_one("x")
        assert at_x1.variables.names == ("y",)
        assert str(at_x1) == "2*y + 1"

    def test_evaluate_absent_variable_keeps_poly(self):
        xy = VariableSet("x", "y")
        poly = LaurentPoly.parse("y^2 + y + 1", xy)
        projected = poly.evaluate_at_one("x")
        assert str(projected) == "y^2 + y + 1"

    def test_evaluate_unknown_variable_raises(self):
        with pytest.raises(ValueError):
            p("t + 1").evaluate_at_one("s")

    def test_evaluate_can_cancel(self):
        xy = VariableSet("x", "y")
        poly = LaurentPoly.parse("x*y - y", xy)
        assert poly.evaluate_at_one("x").is_zero()


class TestTextForm:
    @pytest.mark.parametrize(
        "text",
        [
            "0",
            "1",
            "-1",
            "t",
            "-t^-1",
            "t - 1 + t^-1",
            "t^2 - 2*t + 3 - 2*t^-1 + t^-2",
            "7*t^11 - 5",
        ],
    )
    def test_str_parse_round_trip(self, text):
        assert str(p(text)) == text

    def test_two_variable_ordering(self):
        kg = VariableSet("t_K", "t_G")
        poly = LaurentPoly.parse("t_K^2*t_G^-1 - 3", kg)
        assert str(poly) == "t_K^2*t_G^-1 - 3"
        assert poly.coefficient((2, -1)) == 1

    def test_terms_sorted_descending(self):
        poly = p("t^-2 + t^3 - t")
        assert str(poly) == "t^3 - t + t^-2"

    def test_parse_infers_variable_order(self):
        poly = LaurentPoly.parse("y + x*y")
        assert poly.variables.names == ("y", "x")

    def test_parse_merges_repeated_terms(self):
        assert p("t + t") == p("2*t")
        assert p("t - t").is_zero()

    def test_parse_repeated_factor(self):
        assert p("t*t^-1 + 1") == p("2")

    def test_parse_signs_stack(self):
        assert p("- - t") == p("t")
        assert p("1 - -t") == p("t + 1")
        assert p("+-+t") == p("-t")
        assert p("t^--2") == p("t^2")
        assert p("t^+-2") == p("t^-2")
        assert p("t -+- 1") == p("t + 1")

    def test_parse_rejects_garbage(self):
        # non-ASCII digits, and literals beyond int()'s 4,300-digit limit
        long_literal = "1" * 4301
        for bad in ["", "t +", "* t", "t ^", "t^x", "(t)", "1..2", "\u0663*t",
                    long_literal, f"t^{long_literal}", f"{long_literal}*t"]:
            with pytest.raises(PolyParseError):
                p(bad)

    def test_parse_rejects_foreign_variable(self):
        with pytest.raises(PolyParseError):
            LaurentPoly.parse("s + 1", T)


class TestJsonForm:
    def test_round_trip(self):
        poly = p("t^2 - 2*t + 3 - 2*t^-1 + t^-2")
        assert LaurentPoly.from_json(poly.to_json()) == poly

    def test_big_coefficients_survive(self):
        huge = 10 ** 60 + 7
        poly = LaurentPoly(T, {(2,): huge, (0,): -huge})
        data = json.loads(poly.to_json())
        assert data["terms"][0]["coeff"] == str(huge)
        assert LaurentPoly.from_json_dict(data) == poly

    def test_terms_listed_in_canonical_order(self):
        poly = p("t^-2 + t^3 - t")
        data = poly.to_json_dict()
        assert [entry["exps"] for entry in data["terms"]] == [[3], [1], [-2]]

    @pytest.mark.parametrize(
        "doc", [[], [1, "a"], [{"rows": [p("t - 1"), []]}, {}], {"n": 2, "rows": [p("3")]}]
    )
    def test_indent2_writer_writes_an_iterator_as_its_list(self, doc):
        # each list in doc, the outermost too, passed as an iterator instead
        def lazy(value):
            if isinstance(value, dict):
                return {key: lazy(item) for key, item in value.items()}
            return map(lazy, value) if isinstance(value, list) else value

        assert _joined(_write_indent2, lazy(doc)) == _joined(_write_indent2, doc)
        assert _joined(_write_indent2, doc) == json.dumps(
            doc, indent=2, default=LaurentPoly.to_json_dict
        )

    def test_indent2_writer_peak_is_within_five_times_its_output(self):
        # the writer reads the terms straight off the polynomial: no JSON tree
        # of dicts, lists and strings is built on the way
        poly = torres_specialize(LaurentPoly.parse("1"), 100076)
        tracemalloc.start()
        try:
            text = _joined(_write_indent2, poly)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * len(text)

    def test_indent2_writer_peak_is_within_three_times_its_output(self):
        # the joined term block goes into the parts list as it is, not copied
        # once more into a string with its brackets
        poly = torres_specialize(LaurentPoly.parse("1"), 100076)
        tracemalloc.start()
        try:
            text = _joined(_write_indent2, poly)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * len(text)

    @pytest.mark.parametrize("writer", [_write_text, _write_indent2])
    def test_writers_stream_in_bounded_memory(self, writer):
        # a sorted key list and one slice of text at a time, never the
        # document: str of any of these polynomials alone is about 1 MB or
        # more.  The last two have no repeated coefficient, so each slice's
        # table of term templates is as large as the slice
        for poly in (
            torres_specialize(LaurentPoly.parse("1"), 100076),
            LaurentPoly(XY, {(e, e % 7 - 3): e % 5 - 2 or 1 for e in range(100_000)}),
            LaurentPoly(T, {(e,): 3 * e - 150_001 for e in range(100_000)}),
            LaurentPoly(XY, {(e, e % 7 - 3): (-1) ** e * (10 ** 20 + e) for e in range(100_000)}),
        ):
            written = []
            tracemalloc.start()
            try:
                writer(poly, lambda chunk: written.append(len(chunk)))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2_000_000
            want = _joined(_write_indent2, poly) if writer is _write_indent2 else str(poly)
            assert sum(written) == len(want)

    def test_digit_check_reaches_every_polynomial_of_a_document(self):
        big = -(10 ** 5000)
        _check_digits({"rows": [{"delta": p("t - 1")}], "n": 3, "name": "x"})
        for doc in (
            from_dict({3: 1, 0: big}),
            {"a": 1, "rows": [{"delta": p("t")}, {"delta": from_dict({1: 2, 0: big})}]},
            [LaurentPoly.zero(T), LaurentPoly(VariableSet("x", "y"), {(1, 2): big})],
        ):
            with pytest.raises(ValueError, match="4300 digits"):
                _check_digits(doc)

    def test_zero_poly(self):
        data = LaurentPoly.zero(T).to_json_dict()
        assert data == {"variables": ["t"], "terms": []}
        assert LaurentPoly.from_json_dict(data).is_zero()

    def test_malformed_json_raises(self):
        with pytest.raises(PolyParseError):
            LaurentPoly.from_json("{not json")
        with pytest.raises(PolyParseError):
            LaurentPoly.from_json("[" * 100_000 + "]" * 100_000)
        with pytest.raises(PolyParseError, match="^invalid JSON: "):
            # an exponent beyond int()'s 4,300-digit limit
            LaurentPoly.from_json(
                '{"variables": ["t"], "terms": [{"exps": [' + "1" * 4301 + '], "coeff": "1"}]}'
            )
        with pytest.raises(PolyParseError):
            LaurentPoly.from_json_dict({"variables": ["t"]})
        with pytest.raises(PolyParseError):
            LaurentPoly.from_json_dict(
                {"variables": ["t"], "terms": [{"exps": [0], "coeff": "x"}]}
            )

    @pytest.mark.parametrize("coeff", ["0", "5"])
    def test_width_mismatch_raises_parse_error(self, coeff):
        text = json.dumps({"variables": ["t"], "terms": [{"exps": [1, 2, 3], "coeff": coeff}]})
        with pytest.raises(PolyParseError, match="does not match"):
            LaurentPoly.from_json(text)

    @pytest.mark.parametrize("coeff", ["0", "5"])
    def test_exponent_overflow_is_not_wrapped(self, coeff):
        doc = {"variables": ["t"], "terms": [{"exps": [2 ** 70], "coeff": coeff}]}
        with pytest.raises(ExponentOverflowError):
            LaurentPoly.from_json_dict(doc)


def _poly_doc(coeff="1", **extra_term):
    return {"variables": ["t"], "terms": [{"exps": [0], "coeff": coeff, **extra_term}]}


OFF_SCHEMA_POLYNOMIALS = {
    "float_coeff": _poly_doc(1.9),
    "bool_coeff": _poly_doc(True),
    "int_coeff": _poly_doc(5),
    "underscore_coeff": _poly_doc("1_000"),
    "signed_padded_coeff": _poly_doc(" +5"),
    "extra_top_level_key": {**_poly_doc(), "extra": 1},
    "extra_term_key": _poly_doc(note="x"),
    "variables_not_a_list": {"variables": "t", "terms": []},
    "nested_variables": {"variables": [["t"]], "terms": []},
    "terms_not_a_list": {"variables": ["t"], "terms": {}},
    "exps_not_a_list": {"variables": ["t"], "terms": [{"exps": "0", "coeff": "1"}]},
    "fractional_exponent": {"variables": ["t"], "terms": [{"exps": [0.5], "coeff": "1"}]},
    "bool_exponent": {"variables": ["t"], "terms": [{"exps": [True], "coeff": "1"}]},
}


class TestJsonMatchesSchema:
    @pytest.mark.parametrize(
        "doc", OFF_SCHEMA_POLYNOMIALS.values(), ids=OFF_SCHEMA_POLYNOMIALS.keys()
    )
    def test_off_schema_rejected(self, doc):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(instance=doc, schema=schemas.load("polynomial"))
        with pytest.raises(PolyParseError):
            LaurentPoly.from_json_dict(doc)

    def test_schema_valid_accepted(self):
        # JSON Schema counts 2.0 as an integer, so the loader does too
        terms = [{"exps": [2.0], "coeff": "-12"}, {"exps": [0], "coeff": "007"}]
        doc = {"variables": ["t"], "terms": terms}
        jsonschema.validate(instance=doc, schema=schemas.load("polynomial"))
        assert LaurentPoly.from_json_dict(doc) == p("-12*t^2 + 7")


class TestMiscellany:
    def test_term_count(self):
        assert LaurentPoly.zero(T).term_count() == 0
        assert p("t - 1 + t^-1").term_count() == 3

    def test_span(self):
        assert p("t^3 - t^-2").span() == 5
        assert p("5").span() == 0
        with pytest.raises(ValueError):
            LaurentPoly.zero(T).span()

    def test_span_needs_one_variable(self):
        with pytest.raises(ValueError, match="single-variable"):
            p("x*y + 1", VariableSet("x", "y")).span()

    def test_exponents_of(self):
        kg = VariableSet("t_K", "t_G")
        poly = LaurentPoly.parse("t_K^2*t_G - t_K^-1 + 4", kg)
        assert poly.exponents_of("t_K") == [-1, 0, 2]

    def test_hash_consistency(self):
        a = p("t - 1 + t^-1")
        b = p("t^-1 - 1 + t")
        assert a == b
        assert hash(a) == hash(b)

    def test_unknown_schema_name(self):
        with pytest.raises(ValueError, match="no such schema 'nope'"):
            schemas.load("nope")


class TestEdgeBranches:
    @pytest.mark.parametrize("c", [3, -3])
    def test_symmetrize_without_variables(self, c):
        constant = LaurentPoly.constant(VariableSet(), c)
        assert constant.symmetrize() == LaurentPoly.constant(VariableSet(), 3)

    def test_equal_up_to_units_on_other_variables_or_term_counts(self):
        assert not p("t - 1").equal_up_to_units(p("y - 1", VariableSet("y")))
        assert not p("t - 1").equal_up_to_units(p("t^2 - t + 1"))

    @pytest.mark.parametrize(
        "operation",
        [lambda a: a + "a", lambda a: "a" - a, lambda a: a * "a"],
        ids=["add", "rsub", "mul"],
    )
    def test_non_polynomial_operands_raise_type_error(self, operation):
        with pytest.raises(TypeError):
            operation(p("t - 1"))

    def test_equality_with_other_types_is_false(self):
        assert (p("1") == 1) is False
        assert (VariableSet("t") == "t") is False

    def test_repr(self):
        assert repr(p("t - 1")) == "LaurentPoly('t - 1', variables=('t',))"
        assert repr(VariableSet("t_K", "t_G")) == "VariableSet('t_K', 't_G')"

    def test_variables_must_be_a_variable_set(self):
        with pytest.raises(TypeError, match="must be a VariableSet, got tuple"):
            LaurentPoly(("t",), {})


XY = VariableSet("x", "y")

# every guarded single-variable operation, with its exact message
SINGLE_VARIABLE_ERRORS = {
    "span": (
        lambda: p("x*y + 1", XY).span(),
        "span requires a single-variable polynomial, got ('x', 'y')",
    ),
    "exact_divide": (
        lambda: p("x*y - 1", XY).exact_divide(p("x", XY)),
        "exact_divide requires a single-variable polynomial, got ('x', 'y')",
    ),
    "symmetrize": (
        lambda: p("x*y + 1", XY).symmetrize(),
        "symmetrize requires a single-variable polynomial, got ('x', 'y')",
    ),
    "equal_up_to_units": (
        lambda: p("t").equal_up_to_units(p("x*y", XY)),
        "equal_up_to_units requires a single-variable polynomial, got ('x', 'y')",
    ),
    "torres_specialize": (
        lambda: torres_specialize(p("x - y", XY), 2),
        "torres_specialize requires a single-variable polynomial, got ('x', 'y')",
    ),
}


@pytest.mark.parametrize(
    "call,message", SINGLE_VARIABLE_ERRORS.values(), ids=SINGLE_VARIABLE_ERRORS.keys()
)
def test_single_variable_messages(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message
