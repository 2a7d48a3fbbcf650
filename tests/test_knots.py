import math
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knotsurgery import knots, laurent
from knotsurgery.knots import (
    ConnectedSum,
    InternalInconsistencyError,
    KnotParseError,
    Mirror,
    T_VARS,
    Torus,
    TorusKnotSpec,
    Unknot,
    alexander_expr,
    alexander_torus,
    format_knot_expr,
    genus_torus,
    _torus_delta,
    parse_knot_expr,
)
from knotsurgery.laurent import ExponentOverflowError, LaurentPoly, NotSymmetrizableError

from _oracles import cyclotomic_quotient, semigroup_delta


def poly(text: str) -> LaurentPoly:
    return LaurentPoly.parse(text, T_VARS)


class TestTorusKnotSpec:
    def test_normalizes_order(self):
        k = TorusKnotSpec(5, 2)
        assert (k.p, k.q) == (2, 5)
        # so every unknot T(1, q) or T(q, 1) has p == 1
        assert (TorusKnotSpec(7, 1).p, TorusKnotSpec(1, 7).p) == (1, 1)

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError):
            TorusKnotSpec(4, 6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TorusKnotSpec(0, 3)
        with pytest.raises(ValueError):
            TorusKnotSpec(2, -3)

    def test_rejects_non_integclass(self):
        with pytest.raises(ValueError, match=r"torus knot parameter must be an integer, got 2\.0"):
            TorusKnotSpec(2.0, 3)

    @pytest.mark.parametrize("pq", [(True, 2), (2, True), (False, 3)])
    def test_rejects_bool(self, pq):
        # bool subclasses int, but True is not a torus knot parameter
        with pytest.raises(ValueError, match="torus knot parameter must be an integer"):
            TorusKnotSpec(*pq)


class TestAlexanderTorus:
    def test_unknot_family(self):
        assert alexander_torus(TorusKnotSpec(1, 1)) == poly("1")
        assert alexander_torus(TorusKnotSpec(1, 9)) == poly("1")

    def test_trefoil(self):
        assert alexander_torus(TorusKnotSpec(2, 3)) == poly("t - 1 + t^-1")

    def test_t34(self):
        assert alexander_torus(TorusKnotSpec(3, 4)) == poly(
            "t^3 - t^2 + 1 - t^-2 + t^-3"
        )

    def test_t34_raw_form(self):
        raw = alexander_expr(Torus.of(3, 4), symmetrize=False)
        assert raw == poly("t^6 - t^5 + t^3 - t + 1")

    def test_orientation_convention_irrelevant(self):
        assert alexander_torus(TorusKnotSpec(5, 2)) == alexander_torus(
            TorusKnotSpec(2, 5)
        )

    @pytest.mark.parametrize(
        "pq", [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (5, 6), (7, 9), (8, 11)]
    )
    def test_matches_dense_division_oracle(self, pq):
        p, q = pq
        expected = cyclotomic_quotient(p, q)
        assert expected is not None
        raw = alexander_expr(Torus.of(p, q), symmetrize=False)
        assert raw == LaurentPoly(T_VARS, {(e,): c for e, c in expected.items()})

    def test_span_and_coefficient_profile(self):
        for p in range(2, 12):
            for q in range(p + 1, 13):
                if math.gcd(p, q) != 1:
                    continue
                delta = alexander_torus(TorusKnotSpec(p, q))
                assert delta.span() == (p - 1) * (q - 1)
                assert all(c in (-1, 1) for _, c in delta.terms())
                assert delta.symmetrize() == delta

    @pytest.mark.parametrize("pq", [(5, 6), (7, 9)])
    def test_builds_one_polynomial(self, pq, monkeypatch):
        # the writers write Delta centered, so symmetrize makes no copy
        built = []
        from_canonical = laurent._from_canonical

        def counting(variables, keys, coeffs):
            built.append(len(coeffs))
            return from_canonical(variables, keys, coeffs)

        monkeypatch.setattr(laurent, "_from_canonical", counting)
        monkeypatch.setattr(knots, "_from_canonical", counting)
        delta = alexander_torus(TorusKnotSpec(*pq))
        assert len(built) == 1
        assert delta == semigroup_delta_centered(*pq)

        # alexander_expr: one per torus factor, plus one per product
        for expr, count in [
            (Torus.of(*pq), 1),
            (Mirror(Torus.of(*pq)), 1),
            (ConnectedSum(Torus.of(*pq), Torus.of(2, 3)), 3),
            (ConnectedSum(Torus.of(*pq), ConnectedSum(Torus.of(2, 3), Torus.of(3, 4))), 5),
        ]:
            built.clear()
            alexander_expr(expr)
            assert len(built) == count, format_knot_expr(expr)

    def test_symmetry_is_still_checked(self, monkeypatch):
        # centered, of the right span and with Delta(1) = 1, but the
        # coefficients of t^g and t^-g differ, on T(2,5) (g = 2) and on the
        # family's T(2,3) (g = 1)
        def asymmetric(p, q):
            g = (p - 1) * (q - 1) // 2
            return poly(f"t^{g} + 1 - t^{-g}")

        monkeypatch.setattr(knots, "_torus_delta", asymmetric)
        for pq in [(2, 5), (2, 3)]:
            with pytest.raises(NotSymmetrizableError):
                alexander_torus(TorusKnotSpec(*pq))

    @pytest.mark.parametrize("pq", [(2, 3), (2, 9), (3, 4), (3, 10), (5, 12), (7, 9), (11, 13)])
    def test_raw_form_starts_at_t0(self, pq):
        raw = alexander_expr(Torus.of(*pq), symmetrize=False)
        assert min(raw.terms())[0] == (0,)
        assert raw.span() == (pq[0] - 1) * (pq[1] - 1)

    @pytest.mark.parametrize("p,count", [(1, 1), (2, 3), (3, 5), (4, 7), (5, 9)])
    def test_adjacent_family_term_counts(self, p, count):
        # Delta_{T(p,p+1)} has exactly 2p - 1 nonzero terms
        assert alexander_torus(TorusKnotSpec(p, p + 1)).term_count() == count


def raw_quotient(p: int, q: int) -> dict[int, int]:
    raw = alexander_expr(Torus.of(p, q), symmetrize=False)
    return {e: c for (e,), c in raw.terms()}


def semigroup_delta_centered(p: int, q: int) -> LaurentPoly:
    shift = (p - 1) * (q - 1) // 2
    return LaurentPoly(T_VARS, {(e - shift,): c for e, c in semigroup_delta(p, q).items()})


def coprime_pairs(lo: int, hi: int):
    return [(p, q) for p in range(lo, hi + 1) for q in range(p + 1, hi + 1) if math.gcd(p, q) == 1]


class TestTorusKernel:
    # the kernel of every T(p, q), p > 1, is the grid writer
    def test_small_pairs_match_both_oracles(self):
        for p, q in coprime_pairs(2, 40):
            got = raw_quotient(p, q)
            assert got == semigroup_delta(p, q), (p, q)
            assert got == cyclotomic_quotient(p, q), (p, q)

    def test_adjacent_family_matches_both_oracles(self):
        for p in range(1, 201):
            got = raw_quotient(p, p + 1)
            assert got == semigroup_delta(p, p + 1), p
            assert got == cyclotomic_quotient(p, p + 1), p

    @given(
        st.integers(min_value=1, max_value=70)
        .flatmap(lambda p: st.tuples(st.just(p), st.integers(min_value=p, max_value=5000 // p)))
        .filter(lambda pq: math.gcd(*pq) == 1)
    )
    def test_semigroup_identity(self, pq):
        assert raw_quotient(*pq) == semigroup_delta(*pq)

    @pytest.mark.parametrize("pq", [(2, 40001), (5, 12), (300, 307)])
    def test_divides_by_the_smaller_binomial(self, pq, monkeypatch):
        # the writer takes the smaller parameter first, whatever order the
        # knot was given in
        calls = []

        def spy(p, q):
            calls.append((p, q))
            return _torus_delta(p, q)

        monkeypatch.setattr(knots, "_torus_delta", spy)
        p, q = pq
        assert alexander_torus(TorusKnotSpec(q, p)).span() == (p - 1) * (q - 1)
        assert calls == [(p, q)]

    def test_peak_memory_is_within_one_and_a_half_times_the_result(self):
        # the writer holds at most a window of exponents as int objects,
        # nothing next to the q terms of Delta
        tracemalloc.start()
        try:
            delta = alexander_torus(TorusKnotSpec(2, 100001))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert delta.term_count() == 100001
        assert peak <= 1.5 * held

    def test_peak_memory_of_grids_with_several_rows(self):
        # T(101, 10007)'s grids have 38 and 63 rows: a window holds up to
        # 2048 exponents of each row, still few next to Delta's 474,391 terms
        tracemalloc.start()
        try:
            delta = alexander_torus(TorusKnotSpec(101, 10007))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert delta.term_count() == 474391
        assert peak <= 1.5 * held

    def test_rows_per_grid(self, monkeypatch):
        # a grid is laid out along its shorter side: the family's T(p, p+1)
        # and every T(2, q) fill each grid with one row, T(4001, 8003) its
        # second grid with two
        rows = []

        def spy(keys, start, m, a, ii, b, jj, shift):
            rows.append(min(len(ii), len(jj)))
            return grid(keys, start, m, a, ii, b, jj, shift)

        grid = knots._grid
        monkeypatch.setattr(knots, "_grid", spy)
        for pq, want in [
            *(((p, p + 1), [1, 1]) for p in (2, 3, 4, 300, 4096)),
            *(((2, q), [1, 1]) for q in (3, 5, 40147)),
            ((4001, 8003), [1, 2]),
        ]:
            rows.clear()
            alexander_torus(TorusKnotSpec(*pq))
            assert rows == want, pq

    def test_span_mismatch_detected(self, monkeypatch):
        # on T(2,5) and on the family's T(2,3)
        monkeypatch.setattr(knots, "_torus_delta", lambda p, q: poly("1 - t"))
        for pq in [(2, 5), (2, 3)]:
            with pytest.raises(InternalInconsistencyError, match="span"):
                knots._torus_quotient(*pq)

    def test_terms_beyond_the_genus_detected(self, monkeypatch):
        # t^-g and t^g are terms and Delta(1) = 1, but the span runs past 2g
        def stray(g):
            return poly(f"t^{-g} - 1 + t^{g} + t^{g + 1} - t^{g + 2}")

        monkeypatch.setattr(knots, "_torus_delta", lambda p, q: stray((p - 1) * (q - 1) // 2))
        for pq in [(2, 5), (2, 3)]:
            with pytest.raises(InternalInconsistencyError, match="span"):
                knots._torus_quotient(*pq)

    def test_exponent_overflow_before_allocation(self):
        # pq = 3037000508^2 - 1 is just above the signed 64-bit range
        with pytest.raises(ExponentOverflowError):
            alexander_torus(TorusKnotSpec(3037000507, 3037000509))

    def test_unknot_needs_no_exponent_check(self):
        assert alexander_torus(TorusKnotSpec(1, 2 ** 70)) == poly("1")


def adjacent_progressions(p: int) -> LaurentPoly:
    # Delta_T(p,p+1) centered, with g = p(p - 1)/2: (1 - t) times the sum of
    # t^s over the semigroup <p, p+1> is
    #   sum_{k<p} t^(kp - g) - sum_{k<p-1} t^(k(p+1) + 1 - g)
    g = p * (p - 1) // 2
    terms = {(k * p - g,): 1 for k in range(p)}
    terms.update({(k * (p + 1) + 1 - g,): -1 for k in range(p - 1)})
    return LaurentPoly(T_VARS, terms)


class TestAdjacentWriter:
    # the family's T(p, p+1), whose grids are one row each
    def test_matches_the_semigroup_and_the_kernel(self):
        for p in [*range(1, 301), 4096]:
            got = knots._torus_quotient(p, p + 1)
            assert got == adjacent_progressions(p), p
            if p <= 300:
                assert got == semigroup_delta_centered(p, p + 1), p

    def test_adjacent_knots_take_the_one_writer(self, monkeypatch):
        # T(p, p+1) and every other T(p, q) take the same writer
        calls = []

        def spy(p, q):
            calls.append((p, q))
            return writer(p, q)

        writer = knots._torus_delta
        monkeypatch.setattr(knots, "_torus_delta", spy)
        for p in (2, 3, 300):
            delta = alexander_torus(TorusKnotSpec(p, p + 1))
            assert delta == adjacent_progressions(p)
        alexander_torus(TorusKnotSpec(2, 5))
        assert calls == [(2, 3), (3, 4), (300, 301), (2, 5)]

    def test_peak_memory_is_within_twice_the_result(self):
        # no numerator, no dict of exponents: the keys and coefficient list
        # of Delta are the largest things built
        p = 2 ** 15
        tracemalloc.start()
        try:
            delta = alexander_torus(TorusKnotSpec(p, p + 1))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert delta.term_count() == 2 * p - 1
        assert peak <= 2 * held


class TestGenus:
    @pytest.mark.parametrize("pq,g", [((2, 3), 1), ((1, 5), 0), ((5, 6), 10)])
    def test_known_values(self, pq, g):
        assert genus_torus(TorusKnotSpec(*pq)) == g

    def test_fibered_span_identity(self):
        for p, q in [(2, 7), (3, 8), (4, 9), (5, 7)]:
            k = TorusKnotSpec(p, q)
            assert alexander_torus(k).span() == 2 * genus_torus(k)


class TestAlexanderExpr:
    def test_unknot(self):
        assert alexander_expr(Unknot()) == poly("1")

    def test_mirror_is_identity(self):
        assert alexander_expr(Mirror(Torus.of(2, 3))) == poly("t - 1 + t^-1")

    def test_identity_summand(self):
        expr = ConnectedSum(Torus.of(2, 3), Unknot())
        assert alexander_expr(expr) == poly("t - 1 + t^-1")

    def test_granny_square(self):
        expr = ConnectedSum(Torus.of(2, 3), Torus.of(2, 3))
        assert alexander_expr(expr) == poly("t^2 - 2*t + 3 - 2*t^-1 + t^-2")

    def test_multiplicativity(self):
        pieces = [Torus.of(2, 3), Torus.of(3, 4), Mirror(Torus.of(2, 5)), Unknot()]
        for a in pieces:
            for b in pieces:
                combined = alexander_expr(ConnectedSum(a, b))
                product = (alexander_expr(a) * alexander_expr(b)).symmetrize()
                assert combined == product

    def test_sum_is_order_insensitive(self):
        ab = ConnectedSum(Torus.of(2, 3), Torus.of(3, 4))
        ba = ConnectedSum(Torus.of(3, 4), Torus.of(2, 3))
        assert alexander_expr(ab) == alexander_expr(ba)

    def test_rejects_foreign_objects(self):
        with pytest.raises(TypeError):
            alexander_expr("torus(2,3)")

    @pytest.mark.parametrize("function", [alexander_expr, format_knot_expr])
    @pytest.mark.parametrize("value", ["torus(2,3)", TorusKnotSpec(2, 3), None])
    def test_non_expressions_raise_type_error(self, function, value):
        with pytest.raises(TypeError, match="not a knot expression"):
            function(value)


class TestExprGrammar:
    @pytest.mark.parametrize(
        "text,expr",
        [
            ("unknot", Unknot()),
            ("torus(2,3)", Torus.of(2, 3)),
            ("mirror(torus(2,3))", Mirror(Torus.of(2, 3))),
            (
                "sum(torus(2,3),unknot)",
                ConnectedSum(Torus.of(2, 3), Unknot()),
            ),
            (
                "sum(mirror(torus(2,3)),sum(torus(3,4),unknot))",
                ConnectedSum(
                    Mirror(Torus.of(2, 3)),
                    ConnectedSum(Torus.of(3, 4), Unknot()),
                ),
            ),
        ],
    )
    def test_round_trip(self, text, expr):
        assert parse_knot_expr(text) == expr
        assert format_knot_expr(expr) == text
        assert parse_knot_expr(format_knot_expr(expr)) == expr

    def test_whitespace_tolerated(self):
        assert parse_knot_expr(" sum( torus( 2 , 3 ) , unknot ) ") == ConnectedSum(
            Torus.of(2, 3), Unknot()
        )

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "knot",
            "torus(2)",
            "torus(2,3",
            "torus(a,b)",
            "torus(4,6)",
            "sum(unknot)",
            "mirror()",
            "unknot extra",
            "torus(2,3))",
            "torus(\u0663,4)",
            "torus(2,\uff13)",
        ],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(KnotParseError):
            parse_knot_expr(bad)

    @pytest.mark.parametrize("open_", ["mirror(", "sum(unknot,"])
    def test_nesting_limit(self, open_):
        def nested(depth):
            return open_ * depth + "torus(2,3)" + ")" * depth

        expr = parse_knot_expr(nested(knots.MAX_KNOT_DEPTH))
        assert format_knot_expr(expr) == nested(knots.MAX_KNOT_DEPTH)
        assert alexander_expr(expr) == poly("t - 1 + t^-1")
        with pytest.raises(KnotParseError, match="deeper than"):
            parse_knot_expr(nested(knots.MAX_KNOT_DEPTH + 1))
