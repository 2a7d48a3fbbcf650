import math
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotsurgery import fox, knots, laurent
from knotsurgery.fox import (
    GroupPresentation,
    UnsupportedPresentationError,
    _fox_numerator,
    alexander_fox_oracle,
)
from knotsurgery.knots import TorusKnotSpec, alexander_torus
from knotsurgery.laurent import ExponentOverflowError, LaurentPoly, VariableSet

from _oracles import convolve, fox_derivative_letters, semigroup_delta

T = VariableSet("t")


def poly(text: str) -> LaurentPoly:
    return LaurentPoly.parse(text, T)


class TestGroupPresentation:
    def test_torus_knot_word(self):
        g = GroupPresentation.torus_knot(2, 3)
        assert g.generators == ("x", "y")
        assert g.relators == ((1, 1, -2, -2, -2),)

    def test_unknot(self):
        g = GroupPresentation.unknot()
        assert g.generators == ("x",)
        assert g.relators == ()

    def test_rejects_unreduced_relator(self):
        with pytest.raises(ValueError):
            GroupPresentation(("x", "y"), ((1, -1),))

    def test_rejects_out_of_range_letters(self):
        with pytest.raises(ValueError):
            GroupPresentation(("x",), ((2,),))
        with pytest.raises(ValueError):
            GroupPresentation(("x",), ((0,),))
        # bool subclasses int, but True is not generator number 1
        with pytest.raises(ValueError, match="letter True is not a valid generator index"):
            GroupPresentation(("x", "y"), ((True, True, -2, -2, -2),))

    @pytest.mark.parametrize(
        "relators, message",
        [
            (((1, True, 2),), "letter True is not a valid generator index"),
            (((1, 2), (2, 0, 1)), "letter 0 is not a valid generator index"),
            (((1, -3, 2),), "letter -3 is not a valid generator index"),
            (((1, 2.0),), "letter 2.0 is not a valid generator index"),
            (((1, "y"),), "letter 'y' is not a valid generator index"),
            # the first bad letter of the first bad word is named
            (((1, 2), (1, 2, 1.5, -7)), "letter 1.5 is not a valid generator index"),
            (((1, 2), (1, 2, -2, 1)), "relator (1, 2, -2, 1) is not freely reduced"),
            (((2, 2, 2, -2),), "relator (2, 2, 2, -2) is not freely reduced"),
        ],
    )
    def test_rejection_messages(self, relators, message):
        with pytest.raises(ValueError) as caught:
            GroupPresentation(("x", "y"), relators)
        assert str(caught.value) == message

    @given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=12).map(tuple))
    def test_accepts_exactly_the_freely_reduced_words(self, word):
        # a word is freely reduced when no letter is next to its inverse
        reduced = all(a != -b for a, b in zip(word, word[1:]))
        try:
            GroupPresentation(("x", "y", "z"), (word,))
        except ValueError as error:
            assert not reduced and str(error) == f"relator {word!r} is not freely reduced"
        else:
            assert reduced

    @pytest.mark.parametrize(
        "p, q", [*((p, q) for p in range(1, 7) for q in range(1, 7)), (300, 307)]
    )
    def test_torus_knot_equals_the_checked_presentation(self, p, q):
        # torus_knot stores its word without the letter and reduction checks
        g = GroupPresentation.torus_knot(p, q)
        assert g == GroupPresentation(("x", "y"), ((1,) * p + (-2,) * q,))

    def test_torus_knot_rejects_nonpositive(self):
        with pytest.raises(ValueError) as caught:
            GroupPresentation.torus_knot(0, 3)
        assert str(caught.value) == (
            "torus knot presentation parameter must be a positive integer, got 0"
        )

    @pytest.mark.parametrize("p, q", [(True, 3), (3, False), (2.0, 3), (2, True)])
    def test_torus_knot_rejects_non_int(self, p, q):
        bad = p if type(p) is not int else q  # the first parameter that is not an int
        with pytest.raises(ValueError) as caught:
            GroupPresentation.torus_knot(p, q)
        assert str(caught.value) == (
            f"torus knot presentation parameter must be a positive integer, got {bad!r}"
        )

    def test_rejects_duplicate_generators(self):
        with pytest.raises(ValueError):
            GroupPresentation(("x", "x"), ())


class TestFoxOracle:
    def test_unknot_presentation(self):
        assert alexander_fox_oracle(GroupPresentation.unknot(), {"x": 1}) == poly("1")

    def test_trefoil_by_hand(self):
        # d/dx (x^2 y^-3) = 1 + x, image 1 + t^3; times (t - 1), divided by
        # phi(y) - 1 = t^2 - 1, leaves t^2 - t + 1
        g = GroupPresentation.torus_knot(2, 3)
        got = alexander_fox_oracle(g, {"x": 3, "y": 2})
        assert got == poly("t^2 - t + 1")
        assert got.equal_up_to_units(alexander_torus(TorusKnotSpec(2, 3)))

    def test_t34_cross_check(self):
        g = GroupPresentation.torus_knot(3, 4)
        got = alexander_fox_oracle(g, {"x": 4, "y": 3})
        assert got.equal_up_to_units(alexander_torus(TorusKnotSpec(3, 4)))

    def test_infinite_cyclic_two_generator_presentation(self):
        # <x, y | x y^-1> is the unknot group in disguise
        g = GroupPresentation(("x", "y"), ((1, -2),))
        assert alexander_fox_oracle(g, {"x": 1, "y": 1}) == poly("1")

    def test_small_sweep_matches_closed_formula(self):
        for p in range(2, 7):
            for q in range(p + 1, 7):
                if math.gcd(p, q) != 1:
                    continue
                g = GroupPresentation.torus_knot(p, q)
                got = alexander_fox_oracle(g, {"x": q, "y": p})
                assert got.equal_up_to_units(alexander_torus(TorusKnotSpec(p, q)))

    def test_negative_abelianization_matches_closed_formula(self):
        # phi(y) = t^-p, so the recipe divides by the Laurent polynomial t^-p - 1
        for p in range(2, 7):
            for q in range(p + 1, 7):
                if math.gcd(p, q) != 1:
                    continue
                g = GroupPresentation.torus_knot(p, q)
                got = alexander_fox_oracle(g, {"x": -q, "y": -p})
                assert got.equal_up_to_units(alexander_torus(TorusKnotSpec(p, q)))

    @pytest.mark.parametrize("pq", [(2, 3), (2, 5), (3, 4), (3, 5), (4, 7)])
    def test_inverse_letters_of_the_first_generator(self, pq):
        # <x, y | x^-p y^q> is the torus-knot group too; dr/dx runs over x^-1
        p, q = pq
        g = GroupPresentation(("x", "y"), ((-1,) * p + (2,) * q,))
        got = alexander_fox_oracle(g, {"x": q, "y": p})
        assert got.equal_up_to_units(alexander_torus(TorusKnotSpec(p, q)))

    def test_relator_must_die_under_abelianization(self):
        g = GroupPresentation.torus_knot(2, 3)
        with pytest.raises(ValueError, match="homomorphism"):
            alexander_fox_oracle(g, {"x": 1, "y": 1})

    def test_abelianization_must_cover_generators(self):
        g = GroupPresentation.torus_knot(2, 3)
        with pytest.raises(ValueError, match="cover"):
            alexander_fox_oracle(g, {"x": 3})

    def test_unsupported_shapes(self):
        three_gen = GroupPresentation(("x", "y", "z"), ((1, 2, -1, -2),))
        with pytest.raises(UnsupportedPresentationError):
            alexander_fox_oracle(three_gen, {"x": 0, "y": 0, "z": 1})
        two_relators = GroupPresentation(("x", "y"), ((1, -2), (2, -1)))
        with pytest.raises(UnsupportedPresentationError):
            alexander_fox_oracle(two_relators, {"x": 1, "y": 1})

    def test_killed_second_generator_unsupported(self):
        g = GroupPresentation(("x", "y"), ((2, 1, -2, -1),))
        with pytest.raises(UnsupportedPresentationError):
            alexander_fox_oracle(g, {"x": 1, "y": 0})

    @pytest.mark.parametrize("value", [3.0, True])
    def test_abelianization_values_must_be_integers(self, value):
        g = GroupPresentation.torus_knot(2, 3)
        with pytest.raises(ValueError, match=f"exponent must be an integer, got {value!r}"):
            alexander_fox_oracle(g, {"x": value, "y": 2})
        # <x, y | x y^-1> with x sent to True once came out as 1
        g = GroupPresentation(("x", "y"), ((1, -2),))
        with pytest.raises(ValueError, match="exponent must be an integer"):
            alexander_fox_oracle(g, {"x": value, "y": 1})

    @pytest.mark.parametrize("sign", [1, -1])
    def test_run_top_out_of_range(self, sign):
        # dr/dx of x^2 y^-3 is 1 + t^(±3 * 2^62): the run x^2 ends out of range
        g = GroupPresentation.torus_knot(2, 3)
        with pytest.raises(ExponentOverflowError):
            alexander_fox_oracle(g, {"x": sign * 3 << 62, "y": sign * 2 << 62})

    @pytest.mark.parametrize("sign", [1, -1])
    def test_run_start_out_of_range(self, sign):
        # dr/dx of x^-2 y^3 is -t^(-2s) - t^(-s) for s = ±3 * 2^61: the run
        # x^-2 starts out of range and ends inside it
        g = GroupPresentation(("x", "y"), ((-1, -1, 2, 2, 2),))
        with pytest.raises(ExponentOverflowError):
            alexander_fox_oracle(g, {"x": sign * 3 << 61, "y": sign << 62})

    def test_numerator_top_out_of_range(self):
        # dr/dx of x^2 y^-2 under x, y -> t^(2^63 - 1) is 1 + t^(2^63 - 1), in
        # range; times t - 1 it reaches t^(2^63)
        g = GroupPresentation(("x", "y"), ((1, 1, -2, -2),))
        top = (1 << 63) - 1
        with pytest.raises(ExponentOverflowError, match=str(1 << 63)):
            alexander_fox_oracle(g, {"x": top, "y": top})

    @pytest.mark.parametrize("sign", [1, -1])
    def test_divisor_out_of_range(self, sign):
        # <x, y | x y^-1> under x, y -> t^(±2^64): the numerator t - 1 is in
        # range, phi(y) - 1 is not
        g = GroupPresentation(("x", "y"), ((1, -2),))
        with pytest.raises(ExponentOverflowError, match=str(sign << 64)):
            alexander_fox_oracle(g, {"x": sign << 64, "y": sign << 64})


def _freely_reduced(runs) -> tuple[int, ...]:
    # the runs' letters with every adjacent inverse pair cancelled
    word: list[int] = []
    for letter, length in runs:
        for _ in range(length):
            if word and word[-1] == -letter:
                word.pop()
            else:
                word.append(letter)
    return tuple(word)


runs_of_letters = st.lists(
    st.tuples(st.sampled_from([1, -1, 2, -2]), st.integers(1, 5)), max_size=12
).map(_freely_reduced)
small_exponents = st.integers(-4, 4)


class TestRunWiseDerivative:
    @given(runs_of_letters, st.sampled_from([1, 2]), small_exponents, small_exponents)
    @settings(max_examples=500, deadline=None)
    def test_matches_the_letter_by_letter_derivative(self, word, wrt, ex, ey):
        exponent_of = {1: ex, 2: ey}
        got = _fox_numerator(word, wrt, exponent_of)
        expected = convolve(fox_derivative_letters(word, wrt, exponent_of), {1: 1, 0: -1})
        assert {exps[0]: c for exps, c in got.terms()} == expected

    @pytest.mark.parametrize(
        "word, exponent_of, counted",
        [
            # distinct exponents: the sorted union of the two lists, no Counter
            pytest.param((1,) * 5 + (-2,) * 6, {1: 6, 2: 5}, False, id="T(5,6)"),
            # a run with step 0 repeats its exponent: 3t - 3
            pytest.param((1, 1, 1), {1: 0}, True, id="zero-step"),
            # x y x^-1 under x -> t, y -> 1: the progressions meet and cancel to 0
            pytest.param((1, 2, -1), {1: 1, 2: 0}, True, id="progressions-meet"),
        ],
    )
    def test_both_numerator_branches(self, word, exponent_of, counted):
        with mock.patch.object(fox, "Counter", wraps=fox.Counter) as counter:
            got = _fox_numerator(word, 1, exponent_of)
        assert counter.called == counted
        expected = convolve(fox_derivative_letters(word, 1, exponent_of), {1: 1, 0: -1})
        assert {exps[0]: c for exps, c in got.terms()} == expected

    def test_adjacent_torus_knots_up_to_400(self):
        # the quotient by t^p - 1 is unique, so checking the product against
        # the letter-by-letter numerator pins the oracle's exact output
        for p in range(1, 401):
            g = GroupPresentation.torus_knot(p, p + 1)
            got = alexander_fox_oracle(g, {"x": p + 1, "y": p})
            terms = {exps[0]: c for exps, c in got.terms()}
            derivative = fox_derivative_letters(g.relators[0], 1, {1: p + 1, 2: p})
            numerator = convolve(derivative, {1: 1, 0: -1})
            assert convolve(terms, {p: 1, 0: -1}) == numerator, p
            assert got.equal_up_to_units(alexander_torus(TorusKnotSpec(p, p + 1))), p

    def test_adjacent_torus_knot_at_p_2_to_the_17_within_budget(self):
        # the oracle's cost is linear in p: T(2^17, 2^17 + 1) in a few tenths
        # of a second on a 2-core host, against a budget of 5 s
        p = 1 << 17
        budget = 5.0
        start = time.monotonic()
        got = alexander_fox_oracle(GroupPresentation.torus_knot(p, p + 1), {"x": p + 1, "y": p})
        elapsed = time.monotonic() - start
        assert got.term_count() == 2 * p - 1
        assert got.equal_up_to_units(alexander_torus(TorusKnotSpec(p, p + 1)))
        assert elapsed <= budget, f"the Fox oracle took {elapsed:.2f}s, budget {budget}s"


def _raises(*args, **kwargs):
    raise AssertionError("a route used a kernel it must not share")


class TestIndependentRoutes:
    # the Fox oracle and the closed formula share no kernel: each still
    # builds Delta with the other's writer and division step patched to raise
    PAIRS = [(2, 3), (3, 4), (3, 7), (5, 12), (300, 307)]

    def expected(self, p, q) -> LaurentPoly:
        return LaurentPoly(T, {(e,): c for e, c in semigroup_delta(p, q).items()})

    def test_fox_oracle_without_the_torus_and_torres_kernels(self):
        with mock.patch.object(laurent, "_geometric_multiple", _raises), mock.patch.multiple(
            knots, _torus_delta=_raises, _grid=_raises
        ):
            for p, q in self.PAIRS:
                got = alexander_fox_oracle(GroupPresentation.torus_knot(p, q), {"x": q, "y": p})
                assert got.equal_up_to_units(self.expected(p, q)), (p, q)

    def test_closed_formula_without_the_fox_division_step(self):
        with mock.patch.object(laurent, "_unit_binomial_quotient", _raises):
            for p, q in self.PAIRS:
                got = alexander_torus(TorusKnotSpec(p, q))
                assert got.equal_up_to_units(self.expected(p, q)), (p, q)
