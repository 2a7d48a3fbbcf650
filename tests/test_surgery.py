import pytest

from knotsurgery.knots import TorusKnotSpec, alexander_torus
from knotsurgery.laurent import INT64_MIN, LaurentPoly, VariableSet
from knotsurgery.surgery import (
    KG_VARS,
    TG_VARS,
    XY_VARS,
    LinkFamilyMember,
    SurgerySpec,
    basic_class_lower_bound,
    sw_link_surgery,
    sw_prefactor,
    sw_specialized,
    torres_specialize,
)

T = VariableSet("t")


def tpoly(text: str) -> LaurentPoly:
    return LaurentPoly.parse(text, T)


def kg(text: str) -> LaurentPoly:
    return LaurentPoly.parse(text, KG_VARS)


class TestLinkFamilyMember:
    def test_gamma_is_adjacent_torus_knot(self):
        member = LinkFamilyMember(5)
        assert member.gamma == TorusKnotSpec(5, 6)
        assert member.linking_number == 1

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            LinkFamilyMember(0)
        with pytest.raises(ValueError):
            LinkFamilyMember(-3)

    def test_surgery_spec_validates_n(self):
        with pytest.raises(ValueError):
            SurgerySpec(0, LinkFamilyMember(1))


class TestTorresSpecialize:
    def test_lk1_is_identity(self):
        delta = tpoly("t - 1 + t^-1")
        assert torres_specialize(delta, 1) == delta

    def test_lk0_kills_everything(self):
        assert torres_specialize(tpoly("t"), 0).is_zero()

    def test_lk0_gives_zero_over_the_variable(self):
        # over Delta's variable, or y when Delta has none; at the lowest
        # exponent too, where the zero quotient has no top exponent to check
        assert torres_specialize(tpoly("t - 1 + t^-1"), 0) == LaurentPoly.zero(T)
        assert torres_specialize(LaurentPoly.one(VariableSet()), 0) == LaurentPoly.zero(
            VariableSet("y")
        )
        bottom = LaurentPoly(T, {(INT64_MIN,): 3})
        assert torres_specialize(bottom, 0) == LaurentPoly.zero(T)
        assert torres_specialize(bottom, 2) == LaurentPoly(T, {(INT64_MIN,): 3, (INT64_MIN + 1,): 3})

    @pytest.mark.parametrize("lk", [0, 1, 2, 5])
    def test_zero_delta_gives_zero_over_the_variable(self, lk):
        assert torres_specialize(LaurentPoly.zero(T), lk) == LaurentPoly.zero(T)
        assert torres_specialize(LaurentPoly.zero(VariableSet()), lk) == LaurentPoly.zero(
            VariableSet("y")
        )

    def test_lk3_on_constant_is_geometric_sum(self):
        one = LaurentPoly.one(VariableSet("y"))
        assert str(torres_specialize(one, 3)) == "y^2 + y + 1"

    def test_constant_without_variables_defaults_to_y(self):
        one = LaurentPoly.one(VariableSet())
        assert str(torres_specialize(one, 3)) == "y^2 + y + 1"
        assert torres_specialize(one, 1) == LaurentPoly.one(VariableSet("y"))

    def test_lk2_matches_convolution(self):
        delta = tpoly("t - 1 + t^-1")
        geometric = tpoly("t + 1")
        assert torres_specialize(delta, 2) == geometric * delta

    def test_rejects_negative_lk(self):
        with pytest.raises(ValueError):
            torres_specialize(tpoly("t"), -1)

    def test_rejects_two_variable_input(self):
        with pytest.raises(ValueError):
            torres_specialize(LaurentPoly.one(XY_VARS), 2)


class TestSwLinkSurgery:
    def test_prefactor_values(self):
        assert sw_prefactor(1) == LaurentPoly.one(KG_VARS)
        assert sw_prefactor(2) == kg("t_K - t_K^-1")
        assert sw_prefactor(3) == kg("t_K^2 - 2 + t_K^-2")
        # the binomial expansion against repeated squaring through *
        for n in range(4, 40):
            assert sw_prefactor(n) == kg("t_K - t_K^-1") ** (n - 1), n

    def test_n1_doubles_variables(self):
        spec = SurgerySpec(1, LinkFamilyMember(1))
        delta = LaurentPoly.parse("x*y", XY_VARS)
        assert sw_link_surgery(spec, delta) == kg("t_K^2*t_G^2")

    def test_n2_prefactor_alone(self):
        spec = SurgerySpec(2, LinkFamilyMember(1))
        assert sw_link_surgery(spec, LaurentPoly.one(XY_VARS)) == kg("t_K - t_K^-1")

    def test_n3_prefactor_alone(self):
        spec = SurgerySpec(3, LinkFamilyMember(1))
        assert sw_link_surgery(spec, LaurentPoly.one(XY_VARS)) == kg("t_K^2 - 2 + t_K^-2")

    def test_rejects_foreign_variables(self):
        spec = SurgerySpec(1, LinkFamilyMember(1))
        with pytest.raises(ValueError):
            sw_link_surgery(spec, tpoly("t"))

    def test_prefactor_vanishes_at_tK1(self):
        delta = LaurentPoly.parse("x^2*y - x*y^-1 + 3", XY_VARS)
        for n in (2, 3, 4):
            spec = SurgerySpec(n, LinkFamilyMember(2))
            sw = sw_link_surgery(spec, delta)
            assert sw.evaluate_at_one("t_K").is_zero()


class TestSwSpecialized:
    def test_p1_n1(self):
        result = sw_specialized(SurgerySpec(1, LinkFamilyMember(1)))
        assert result.specialization_at_tK1 == LaurentPoly.one(TG_VARS)
        assert result.basic_class_lower_bound == 1
        assert result.polynomial is None

    def test_p2_n1(self):
        result = sw_specialized(SurgerySpec(1, LinkFamilyMember(2)))
        assert str(result.specialization_at_tK1) == "t_G^2 - 1 + t_G^-2"
        assert result.basic_class_lower_bound == 3

    def test_p5_bound_meets_family_promise(self):
        result = sw_specialized(SurgerySpec(1, LinkFamilyMember(5)))
        expected = alexander_torus(TorusKnotSpec(5, 6)).term_count()
        assert result.basic_class_lower_bound == expected
        assert expected >= 5

    def test_n2_specialization_vanishes_but_bound_stays(self):
        n1 = sw_specialized(SurgerySpec(1, LinkFamilyMember(4)))
        n2 = sw_specialized(SurgerySpec(2, LinkFamilyMember(4)))
        assert n2.specialization_at_tK1.is_zero()
        assert n2.basic_class_lower_bound == n1.basic_class_lower_bound

    def test_explicit_delta_L_populates_polynomial(self):
        delta = LaurentPoly.parse("x*y - 1", XY_VARS)
        result = sw_specialized(SurgerySpec(1, LinkFamilyMember(1)), delta)
        assert result.polynomial == kg("t_K^2*t_G^2 - 1")
        assert str(result.specialization_at_tK1) == "t_G^2 - 1"
        assert result.basic_class_lower_bound == 2

    def test_explicit_delta_L_n2(self):
        delta = LaurentPoly.parse("x*y - 1", XY_VARS)
        result = sw_specialized(SurgerySpec(2, LinkFamilyMember(1)), delta)
        assert result.polynomial == sw_prefactor(2) * kg("t_K^2*t_G^2 - 1")
        assert result.specialization_at_tK1.is_zero()
        assert result.basic_class_lower_bound == 2

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize(
        "text,variables",
        [
            ("x*y - 2 + y^-1", XY_VARS),
            ("x^2 - 3", VariableSet("x")),
            ("y - 1", VariableSet("y")),
            ("5", VariableSet()),
        ],
        ids=["x_and_y", "x_only", "y_only", "constant"],
    )
    def test_explicit_delta_L_obeys_prefactor_law(self, n, text, variables):
        delta = LaurentPoly.parse(text, variables)
        spec = SurgerySpec(n, LinkFamilyMember(3))
        result = sw_specialized(spec, delta)
        assert result.polynomial == sw_link_surgery(spec, delta)
        assert result.specialization_at_tK1 == LaurentPoly.zero(TG_VARS)
        assert result.polynomial.evaluate_at_one("t_K") == result.specialization_at_tK1

    def test_specialization_exponents_are_even(self):
        for p in (1, 2, 3, 7, 10):
            result = sw_specialized(SurgerySpec(1, LinkFamilyMember(p)))
            assert all(e % 2 == 0 for e in result.specialization_at_tK1.exponents_of("t_G"))

    def test_specialization_is_symmetric(self):
        for p in (2, 3, 8):
            result = sw_specialized(SurgerySpec(1, LinkFamilyMember(p)))
            spec = result.specialization_at_tK1
            assert spec.symmetrize() == spec

    def test_json_shape(self):
        result = sw_specialized(SurgerySpec(1, LinkFamilyMember(2)))
        data = result.to_json_dict()
        assert data["p"] == 2
        assert data["n"] == 1
        assert data["lower_bound"] == 3
        assert data["full_polynomial"] == "unavailable"
        assert data["specialization"] is result.specialization_at_tK1
        assert data["specialization"].variables == TG_VARS

    def test_json_with_full_polynomial(self):
        delta = LaurentPoly.parse("x*y", XY_VARS)
        result = sw_specialized(SurgerySpec(1, LinkFamilyMember(1)), delta)
        data = result.to_json_dict()
        assert data["full_polynomial"] is result.polynomial
        assert data["full_polynomial"].variables == KG_VARS


class TestBasicClassLowerBound:
    @pytest.mark.parametrize("p,bound", [(1, 1), (2, 3), (3, 5), (4, 7)])
    def test_first_values(self, p, bound):
        assert basic_class_lower_bound(p) == bound

    def test_agrees_with_term_count(self):
        for p in range(1, 30):
            assert basic_class_lower_bound(p) == alexander_torus(
                TorusKnotSpec(p, p + 1)
            ).term_count()

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            basic_class_lower_bound(0)
