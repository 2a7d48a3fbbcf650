import json
import subprocess
import sys

import pytest

from knotsurgery import family, surgery
from knotsurgery.family import (
    CapExhaustedError,
    UnboundednessCertificate,
    Witness,
    analyze_family,
    certify_unbounded,
    verify_certificate,
)
from knotsurgery.knots import T_VARS, alexander_torus
from knotsurgery.laurent import LaurentPoly
from knotsurgery.surgery import (
    LinkFamilyMember,
    SurgerySpec,
    basic_class_lower_bound,
    sw_prefactor,
    sw_specialized,
    torres_specialize,
)


class TestAnalyzeFamily:
    def test_single_trivial_row(self):
        report = analyze_family(1, 1, 1)
        assert report.n == 1
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.p == 1
        assert row.delta_gamma == LaurentPoly.one(T_VARS)
        assert row.lower_bound == 1
        assert row.lemma63_ok is True
        assert row.genus == 0
        assert row.span == 0

    def test_first_nontrivial_rows(self):
        report = analyze_family(1, 2, 3)
        assert [row.lower_bound for row in report.rows] == [3, 5]
        assert all(row.lemma63_ok for row in report.rows)

    def test_rows_sorted_and_flagged(self):
        report = analyze_family(1, 1, 40)
        assert [row.p for row in report.rows] == list(range(1, 41))
        for row in report.rows:
            assert row.lemma63_ok == (row.lower_bound >= row.p)
            assert row.lemma63_ok
            assert row.span == 2 * row.genus

    def test_bounds_independent_of_n(self):
        one = analyze_family(1, 1, 10)
        two = analyze_family(2, 1, 10)
        assert [r.lower_bound for r in one.rows] == [r.lower_bound for r in two.rows]

    def test_range_validation(self):
        with pytest.raises(ValueError):
            analyze_family(1, 0, 5)
        with pytest.raises(ValueError):
            analyze_family(1, 5, 4)
        with pytest.raises(ValueError):
            analyze_family(1, 1, 2000)
        with pytest.raises(ValueError):
            analyze_family(0, 1, 5)

    def test_repeated_runs_identical(self):
        a = analyze_family(1, 1, 25).to_json()
        b = analyze_family(1, 1, 25).to_json()
        assert a == b

    def test_csv_shape(self):
        text = analyze_family(1, 1, 3).to_csv()
        lines = text.splitlines()
        assert lines[0] == "p,lower_bound,lemma63_ok,genus,span,delta_gamma"
        assert lines[1] == "1,1,true,0,0,1"
        assert lines[2] == "2,3,true,1,2,t - 1 + t^-1"
        assert len(lines) == 4
        assert text.endswith("\n")

    def test_json_shape(self):
        data = json.loads(analyze_family(2, 2, 2).to_json())
        assert data["n"] == 2
        row = data["rows"][0]
        assert row["p"] == 2
        assert row["delta_gamma"]["variables"] == ["t"]


class TestCertifyUnbounded:
    def test_target_zero(self):
        cert = certify_unbounded(0)
        assert cert.witnesses == (Witness(p=1, lower_bound=1),)

    def test_target_one(self):
        cert = certify_unbounded(1)
        assert [w.p for w in cert.witnesses] == [1, 2]
        assert [w.lower_bound for w in cert.witnesses] == [1, 3]

    def test_last_witness_is_small(self):
        for target in (5, 17, 50):
            cert = certify_unbounded(target)
            assert cert.witnesses[-1].p <= target + 1
            assert cert.witnesses[-1].lower_bound > target

    def test_bounds_strictly_increase(self):
        cert = certify_unbounded(40)
        bounds = [w.lower_bound for w in cert.witnesses]
        assert bounds == sorted(set(bounds))

    def test_cap_exhaustion(self):
        with pytest.raises(CapExhaustedError):
            certify_unbounded(100, p_cap=10)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            certify_unbounded(-1)
        with pytest.raises(ValueError):
            certify_unbounded(5, p_cap=0)


class TestVerifyCertificate:
    def test_round_trip(self):
        cert = certify_unbounded(10)
        assert verify_certificate(cert) is True

    def test_reordered_witnesses_fail(self):
        cert = certify_unbounded(10)
        broken = UnboundednessCertificate(
            target=cert.target, witnesses=tuple(reversed(cert.witnesses))
        )
        assert verify_certificate(broken) is False

    def test_tampered_bound_fails(self):
        cert = certify_unbounded(10)
        witnesses = list(cert.witnesses)
        last = witnesses[-1]
        witnesses[-1] = Witness(p=last.p, lower_bound=last.lower_bound + 2)
        broken = UnboundednessCertificate(target=cert.target, witnesses=tuple(witnesses))
        assert verify_certificate(broken) is False

    def test_unmet_target_fails(self):
        cert = certify_unbounded(10)
        inflated = UnboundednessCertificate(target=99, witnesses=cert.witnesses)
        assert verify_certificate(inflated) is False

    def test_final_bound_equal_to_target_fails(self):
        # the bounds of p = 1, 2 are 1 and 3: the last must exceed 3, not equal it
        cert = UnboundednessCertificate(3, (Witness(1, 1), Witness(2, 3)))
        assert verify_certificate(cert) is False

    def test_empty_certificate_fails(self):
        assert verify_certificate(UnboundednessCertificate(target=0, witnesses=())) is False

    def test_nonsense_witness_fails(self):
        cert = UnboundednessCertificate(
            target=0, witnesses=(Witness(p=-2, lower_bound=1),)
        )
        assert verify_certificate(cert) is False

    def test_uncomputable_witness_fails(self):
        # T(p, p+1) for this p needs exponents beyond 64 bits
        cert = UnboundednessCertificate(target=0, witnesses=(Witness(3037000507, 1),))
        assert verify_certificate(cert) is False

    def test_non_increasing_bound_fails(self, monkeypatch):
        # every recomputed bound matches its witness, but the bounds stall
        monkeypatch.setattr(family, "basic_class_lower_bound", lambda p: 5)
        cert = UnboundednessCertificate(target=1, witnesses=(Witness(2, 5), Witness(3, 5)))
        assert verify_certificate(cert) is False

    def test_duplicate_p_fails(self):
        w = Witness(p=3, lower_bound=5)
        cert = UnboundednessCertificate(target=1, witnesses=(w, w))
        assert verify_certificate(cert) is False

    def test_falling_index_fails_whatever_the_bounds(self, monkeypatch):
        # both recomputed bounds match and rise, but p falls
        monkeypatch.setattr(family, "basic_class_lower_bound", lambda p: 10 - p)
        cert = UnboundednessCertificate(target=1, witnesses=(Witness(3, 7), Witness(2, 8)))
        assert verify_certificate(cert) is False

    @pytest.mark.parametrize(
        "target,witness",
        [
            ("x", Witness(1, 1)),
            (0.5, Witness(1, 1)),
            (None, Witness(1, 1)),
            (False, Witness(1, 1)),
            (0, Witness(1, 1.0)),
            (0, Witness(1, True)),
            (0, Witness(1.0, 1)),
            (0, Witness(True, 1)),
            (0, Witness("1", 1)),
        ],
    )
    def test_non_integer_field_fails_without_raising(self, target, witness):
        # the loader's rule: an int that is not a bool.  Each of these holds
        # the right bound for p = 1 up to its type
        cert = UnboundednessCertificate(target, (witness,))
        assert verify_certificate(cert) is False


def _moved(cert: UnboundednessCertificate, i: int, step: int) -> UnboundednessCertificate:
    # cert with witness i's bound moved by step
    witnesses = list(cert.witnesses)
    witnesses[i] = Witness(witnesses[i].p, witnesses[i].lower_bound + step)
    return UnboundednessCertificate(cert.target, tuple(witnesses))


class TestVerifyWork:
    """Pass 1 recomputes nothing; pass 2 stops at the first bound that differs."""

    CERT = certify_unbounded(40)  # p = 1, ..., 21, consecutive bounds 2 apart

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def spy(p):
            seen.append(p)
            return basic_class_lower_bound(p)

        monkeypatch.setattr(family, "basic_class_lower_bound", spy)
        return seen

    def test_valid_certificate_recomputes_each_witness_once(self, calls):
        assert verify_certificate(self.CERT) is True
        assert calls == [w.p for w in self.CERT.witnesses]

    @pytest.mark.parametrize("step", [-2, 2])
    def test_bound_tying_a_neighbour_recomputes_nothing(self, calls, step):
        for i in range(len(self.CERT.witnesses) - 1):
            assert verify_certificate(_moved(self.CERT, i, step)) is False, i
            assert calls == [], i

    def test_rising_bounds_recompute_up_to_the_first_mismatch(self, calls):
        ps = [w.p for w in self.CERT.witnesses]
        for i in range(1, len(ps) + 1):
            calls.clear()
            assert verify_certificate(_moved(self.CERT, i - 1, 1)) is False, i
            assert calls == ps[:i]
        calls.clear()
        assert verify_certificate(_moved(self.CERT, len(ps) - 1, 2)) is False
        assert calls == ps

    @pytest.mark.parametrize(
        "target,witnesses",
        [
            (4, ((2, 3), (1, 5))),  # p falls while the bounds rise
            (4, ((0, 3), (3, 5))),  # p below 1
            (4, ((1, 1), (2, 3))),  # the last bound at or below the target
            (0, ((1, 1), (2, 3.0))),  # a bound that is not an int
        ],
    )
    def test_broken_claims_recompute_nothing(self, calls, target, witnesses):
        cert = UnboundednessCertificate(target, tuple(Witness(*w) for w in witnesses))
        assert verify_certificate(cert) is False
        assert calls == []


class TestCertificateJson:
    def test_round_trip(self):
        cert = certify_unbounded(12)
        parsed = UnboundednessCertificate.from_json(cert.to_json())
        assert parsed == cert
        assert verify_certificate(parsed) is True

    def test_schema_version_present(self):
        data = json.loads(certify_unbounded(3).to_json())
        assert data["schema_version"] == 1

    def test_rejects_unknown_schema_version(self):
        data = json.loads(certify_unbounded(3).to_json())
        data["schema_version"] = 99
        with pytest.raises(ValueError):
            UnboundednessCertificate.from_json_dict(data)

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("p", 0, "certificate 'p' must be a positive integer, got 0"),
            ("lower_bound", -1, "certificate 'lower_bound' must be a nonnegative integer, got -1"),
            ("target", 1.5, "certificate 'target' must be a nonnegative integer, got 1.5"),
            ("target", True, "certificate 'target' must be a nonnegative integer, got True"),
        ],
    )
    def test_integer_field_messages(self, key, value, message):
        data = json.loads(certify_unbounded(3).to_json())
        (data if key == "target" else data["witnesses"][0])[key] = value
        with pytest.raises(ValueError) as excinfo:
            UnboundednessCertificate.from_json_dict(data)
        assert str(excinfo.value) == message

    def test_rejects_malformed_payloads(self):
        with pytest.raises(ValueError):
            UnboundednessCertificate.from_json("[1,2,3]")
        with pytest.raises(ValueError):
            UnboundednessCertificate.from_json("{not json")
        with pytest.raises(ValueError):
            UnboundednessCertificate.from_json("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ValueError, match="^certificate is not valid JSON: "):
            # a target beyond int()'s 4,300-digit limit
            UnboundednessCertificate.from_json(
                '{"schema_version": 1, "target": ' + "1" * 4301
                + ', "witnesses": [{"p": 1, "lower_bound": 1}]}'
            )
        with pytest.raises(ValueError):
            UnboundednessCertificate.from_json_dict({"schema_version": 1, "target": 2})


class TestOneBoundRoute:
    def test_routes_agree_on_2p_minus_1(self):
        rows = analyze_family(1, 1, 60).rows
        assert [row.p for row in rows] == list(range(1, 61))
        for p, row in zip(range(1, 61), rows):
            via_sw = sw_specialized(SurgerySpec(1, LinkFamilyMember(p))).basic_class_lower_bound
            assert via_sw == basic_class_lower_bound(p) == row.lower_bound == 2 * p - 1

    def test_verification_after_certifying_rebuilds_each_witness_delta(self, monkeypatch):
        # certify first in the same process: verification trusts nothing the
        # certifier computed and builds every witness's Delta again
        certificate = certify_unbounded(30)
        built = []

        def spy(k):
            built.append(k.p)
            return alexander_torus(k)

        monkeypatch.setattr(surgery, "alexander_torus", spy)
        assert verify_certificate(certificate) is True
        assert built == [w.p for w in certificate.witnesses]

    def test_certify_and_verify_keep_no_polynomials(self):
        # a fresh interpreter, so nothing held is left from earlier tests; no
        # polynomial may outlive a call
        script = (
            "import tracemalloc\n"
            "from knotsurgery.family import certify_unbounded, verify_certificate\n"
            "tracemalloc.start()\n"
            "assert verify_certificate(certify_unbounded(600))\n"
            "print(tracemalloc.get_traced_memory()[0])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        assert int(proc.stdout) < 1_000_000


# every integer argument of the family and surgery APIs, with its message
INT_ARGUMENT_ERRORS = {
    "family_index": (
        lambda: LinkFamilyMember(0),
        "family index must be a positive integer, got 0",
    ),
    "spec_n": (
        lambda: SurgerySpec(0, LinkFamilyMember(1)),
        "E(n) parameter must be a positive integer, got 0",
    ),
    "prefactor_n": (
        lambda: sw_prefactor(1.0),
        "E(n) parameter must be a positive integer, got 1.0",
    ),
    "linking_number": (
        lambda: torres_specialize(LaurentPoly.one(T_VARS), -1),
        "linking number must be a nonnegative integer, got -1",
    ),
    "family_n": (
        lambda: analyze_family(0, 1, 2),
        "E(n) parameter must be a positive integer, got 0",
    ),
    "target": (lambda: certify_unbounded(-1), "target must be a nonnegative integer, got -1"),
    "p_cap": (lambda: certify_unbounded(5, p_cap=0), "p_cap must be a positive integer, got 0"),
    # bool subclasses int, but neither True nor False is an integer argument
    "family_index_bool": (
        lambda: LinkFamilyMember(True),
        "family index must be a positive integer, got True",
    ),
    "spec_n_bool": (
        lambda: SurgerySpec(True, LinkFamilyMember(1)),
        "E(n) parameter must be a positive integer, got True",
    ),
    "prefactor_n_bool": (
        lambda: sw_prefactor(True),
        "E(n) parameter must be a positive integer, got True",
    ),
    "linking_number_bool": (
        lambda: torres_specialize(LaurentPoly.one(T_VARS), False),
        "linking number must be a nonnegative integer, got False",
    ),
    "target_bool": (
        lambda: certify_unbounded(True),
        "target must be a nonnegative integer, got True",
    ),
    "p_cap_bool": (
        lambda: certify_unbounded(5, p_cap=True),
        "p_cap must be a positive integer, got True",
    ),
    # the family range is type-checked before its ordering
    "family_p_min": (lambda: analyze_family(1, True, 2), "p_min must be an integer, got True"),
    "family_p_max": (lambda: analyze_family(1, 1, 1.5), "p_max must be an integer, got 1.5"),
    "family_p_cap": (
        lambda: analyze_family(1, 1, 2, p_cap=2.5),
        "p_cap must be an integer, got 2.5",
    ),
    "family_order": (
        lambda: analyze_family(1, 5, 2),
        "need 1 <= p_min <= p_max <= 1000, got p_min=5 p_max=2",
    ),
    "family_p_min_zero": (
        lambda: analyze_family(1, 0, 2),
        "need 1 <= p_min <= p_max <= 1000, got p_min=0 p_max=2",
    ),
}


@pytest.mark.parametrize(
    "call,message", INT_ARGUMENT_ERRORS.values(), ids=INT_ARGUMENT_ERRORS.keys()
)
def test_integer_argument_messages(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message
