import math

import pytest

from knotsurgery.fox import (
    GroupPresentation,
    UnsupportedPresentationError,
    alexander_fox_oracle,
)
from knotsurgery.knots import TorusKnotSpec, alexander_torus
from knotsurgery.laurent import LaurentPoly, VariableSet

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

    def test_torus_knot_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive p, q"):
            GroupPresentation.torus_knot(0, 3)

    @pytest.mark.parametrize("p, q", [(True, 3), (3, False), (2.0, 3)])
    def test_torus_knot_rejects_non_int(self, p, q):
        with pytest.raises(ValueError, match="positive p, q"):
            GroupPresentation.torus_knot(p, q)

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
