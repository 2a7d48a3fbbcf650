import json
import os
import subprocess
import sys
import tracemalloc

import jsonschema
import pytest

from knotsurgery import cli, family, knots, schemas, surgery
from knotsurgery.cli import main
from knotsurgery.family import (
    FamilyReport,
    UnboundednessCertificate,
    analyze_family,
    certify_unbounded,
)
from knotsurgery.knots import (
    MAX_KNOT_DEPTH,
    T_VARS,
    InternalInconsistencyError,
    TorusKnotSpec,
    _grid,
    _torus_delta,
    alexander_expr,
    alexander_torus,
)
from knotsurgery.laurent import (
    LaurentPoly,
    NotSymmetrizableError,
    VariableSet,
    _joined,
    _write_indent2,
)
from knotsurgery.surgery import LinkFamilyMember, SurgerySpec, sw_specialized, torres_specialize

from _oracles import format_one_variable


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class _Discard:
    # a stdout that drops what it is given
    def write(self, text):
        return len(text)

    def flush(self):
        pass


def _unclosed(report: FamilyReport, fmt: str) -> str:
    # what the CLI writes of report when it stops after the last row: every
    # row in full, without the closing bytes
    text, end = {
        "json": (report.to_json(), "\n  ]\n}"),
        "csv": (report.to_csv(), "\n"),
        "text": (report.to_text(), "\n"),
    }[fmt]
    assert text.endswith(end)
    return text[: -len(end)]


class TestAlexanderCommand:
    def test_trefoil(self, capsys):
        code, out, _ = run(capsys, "alexander", "torus(2,3)")
        assert code == 0
        assert out == "t - 1 + t^-1\n"

    def test_unknot(self, capsys):
        code, out, _ = run(capsys, "alexander", "unknot")
        assert code == 0
        assert out == "1\n"

    def test_connected_sum(self, capsys):
        code, out, _ = run(capsys, "alexander", "sum(torus(2,3),torus(2,3))")
        assert code == 0
        assert out == "t^2 - 2*t + 3 - 2*t^-1 + t^-2\n"

    def test_no_symmetrize(self, capsys):
        code, out, _ = run(capsys, "alexander", "--no-symmetrize", "torus(3,4)")
        assert code == 0
        assert out == "t^6 - t^5 + t^3 - t + 1\n"

    def test_json_validates(self, capsys):
        code, out, _ = run(capsys, "alexander", "torus(2,3)", "--format", "json")
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(instance=data, schema=schemas.load("polynomial"))
        assert data["variables"] == ["t"]

    def test_parse_error_exits_1(self, capsys):
        code, _, err = run(capsys, "alexander", "torus(4,6)")
        assert code == 1
        assert "error" in err

    def test_garbage_expression_exits_1(self, capsys):
        code, _, err = run(capsys, "alexander", "knot(2,3)")
        assert code == 1
        assert "error" in err

    def test_non_ascii_digit_exits_1(self, capsys):
        code, out, err = run(capsys, "alexander", "torus(\u0663,4)")
        assert (code, out, err) == (1, "", "error: unexpected character '\u0663'\n")

    def test_exponent_overflow_exits_1(self, capsys):
        code, out, err = run(capsys, "alexander", "torus(3037000507,3037000509)")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("open_", ["mirror(", "sum(unknot,"])
    def test_nesting_beyond_limit_exits_1_without_traceback(self, open_, capsys):
        def nested(depth):
            return open_ * depth + "unknot" + ")" * depth

        code, out, _ = run(capsys, "alexander", nested(MAX_KNOT_DEPTH))
        assert (code, out) == (0, "1\n")
        for depth in (MAX_KNOT_DEPTH + 1, 3000):
            proc = subprocess.run(
                [sys.executable, "-m", "knotsurgery", "alexander", nested(depth)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 1
            assert proc.stdout == ""
            assert proc.stderr.startswith("error:")
            assert "Traceback" not in proc.stderr


class TestTorresCommand:
    def test_exponent_overflow_exits_1(self, capsys):
        code, out, err = run(capsys, "torres", "--lk", "1", "t^99999999999999999999")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        # the input fits, and the top output exponent INT64_MAX + 1 does not
        code, out, err = run(capsys, "torres", "--lk", "3", "t^9223372036854775806")
        assert (code, out) == (1, "")
        assert err.startswith("error: exponent 9223372036854775808 outside")

    def test_top_exponent_boundary(self, capsys):
        # the top output exponent is e + lk - 1, which fits for e = INT64_MAX - 1
        code, out, err = run(capsys, "torres", "--lk", "2", "t^9223372036854775806")
        assert (code, out, err) == (0, "t^9223372036854775807 + t^9223372036854775806\n", "")
        code, out, err = run(capsys, "torres", "--lk", "2", "t^9223372036854775807")
        assert (code, out) == (1, "")
        assert err.startswith("error:")

    def test_bad_literals_exit_1(self, capsys):
        code, out, err = run(capsys, "torres", "--lk", "2", "\u0663*t")
        assert (code, out, err) == (1, "", "error: unexpected character '\u0663'\n")
        code, out, err = run(capsys, "torres", "--lk", "2", "1" * 4301)
        assert (code, out) == (1, "")
        assert err.startswith("error: Exceeds the limit (4300 digits)")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_coefficient_past_the_output_digit_limit_exits_1(self, fmt, capsys):
        # the product is exact and in range, but its 8,000-digit coefficients
        # are longer than CPython's int-to-string limit: a documented exit-1 bound
        nines = "9" * 4000
        code, out, err = run(capsys, "torres", "--lk", "2", "--format", fmt, f"{nines}*{nines}")
        assert (code, out) == (1, "")
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_coefficient_past_the_digit_limit_in_a_later_slice_exits_1(self, capsys):
        # 5,000 small terms come first, so a writer that only failed on
        # reaching the last term would already have written a slice
        nines = "9" * 4000
        text = " + ".join(f"t^{e}" for e in range(5000, 0, -1)) + f" + {nines}*{nines}"
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "torres", "--lk", "1", "--format", fmt, text)
            assert (code, out) == (1, "")
            assert err.startswith("error: Exceeds the limit (4300 digits)")

    def test_lk1_unchanged(self, capsys):
        code, out, _ = run(capsys, "torres", "--lk", "1", "t - 1 + t^-1")
        assert code == 0
        assert out == "t - 1 + t^-1\n"

    def test_lk0_zero(self, capsys):
        code, out, _ = run(capsys, "torres", "--lk", "0", "t")
        assert code == 0
        assert out == "0\n"

    def test_lk3_geometric(self, capsys):
        code, out, _ = run(capsys, "torres", "--lk", "3", "1")
        assert code == 0
        assert out == "y^2 + y + 1\n"

    def test_json_validates(self, capsys):
        code, out, _ = run(capsys, "torres", "--lk", "2", "t - 1 + t^-1", "--format", "json")
        assert code == 0
        jsonschema.validate(instance=json.loads(out), schema=schemas.load("polynomial"))

    def test_negative_lk_exits_1(self, capsys):
        code, _, err = run(capsys, "torres", "--lk", "-2", "t")
        assert code == 1
        assert "error" in err

    def test_bad_polynomial_exits_1(self, capsys):
        code, _, err = run(capsys, "torres", "--lk", "1", "t +")
        assert code == 1
        assert "error" in err


class TestSwCommand:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "sw", "--p", "2")
        assert code == 0
        assert "specialization at t_K = 1: t_G^2 - 1 + t_G^-2" in out
        assert "basic-class lower bound: 3" in out
        assert "full polynomial: unavailable" in out

    def test_json_validates(self, capsys):
        code, out, _ = run(capsys, "sw", "--p", "5", "--n", "2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(instance=data, schema=schemas.load("sw"))
        assert data["lower_bound"] == 9
        assert data["specialization"]["terms"] == []

    def test_explicit_delta_l(self, capsys):
        code, out, _ = run(
            capsys, "sw", "--p", "1", "--n", "2", "--delta-l", "x*y - 1", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(instance=data, schema=schemas.load("sw"))
        assert data["full_polynomial"] != "unavailable"

    def test_explicit_delta_l_takes_one_sw_link_surgery_call(self, capsys, monkeypatch):
        calls = []
        original = surgery.sw_link_surgery
        monkeypatch.setattr(
            surgery, "sw_link_surgery", lambda *args: calls.append(args) or original(*args)
        )
        code, _, _ = run(capsys, "sw", "--p", "3", "--n", "2", "--delta-l", "x*y - 2 + y^-1")
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_coefficient_past_the_output_digit_limit_exits_1(self, fmt, capsys):
        # the 8,000-digit coefficient is in the full polynomial, the last
        # field of the document: nothing before it may reach stdout
        nines = "9" * 4000
        code, out, err = run(
            capsys, "sw", "--p", "2", "--n", "3", "--format", fmt,
            "--delta-l", f"{nines}*{nines}*x*y - 1",
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: Exceeds the limit (4300 digits)")

    def test_bad_delta_l_variables_exit_1(self, capsys):
        code, _, err = run(capsys, "sw", "--p", "1", "--delta-l", "t - 1")
        assert code == 1
        assert "error" in err

    def test_bad_p_exits_1(self, capsys):
        code, _, err = run(capsys, "sw", "--p", "0")
        assert code == 1


class TestFamilyCommand:
    def test_csv_five_rows_all_ok(self, capsys):
        code, out, _ = run(
            capsys, "family", "--n", "1", "--pmin", "1", "--pmax", "5", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p,lower_bound,lemma63_ok,genus,span,delta_gamma"
        assert len(lines) == 6
        assert all(line.split(",")[2] == "true" for line in lines[1:])

    def test_single_trivial_row_text(self, capsys):
        code, out, _ = run(capsys, "family", "--n", "1", "--pmin", "1", "--pmax", "1")
        assert code == 0
        assert "p=1 lower_bound=1 [ok]" in out

    def test_bounds_independent_of_n(self, capsys):
        _, out1, _ = run(
            capsys, "family", "--n", "1", "--pmin", "1", "--pmax", "5", "--format", "csv"
        )
        _, out2, _ = run(
            capsys, "family", "--n", "2", "--pmin", "1", "--pmax", "5", "--format", "csv"
        )
        bounds1 = [line.split(",")[1] for line in out1.splitlines()[1:]]
        bounds2 = [line.split(",")[1] for line in out2.splitlines()[1:]]
        assert bounds1 == bounds2

    def test_json_validates(self, capsys):
        code, out, _ = run(
            capsys, "family", "--n", "1", "--pmin", "2", "--pmax", "4", "--format", "json"
        )
        assert code == 0
        jsonschema.validate(instance=json.loads(out), schema=schemas.load("family"))

    def test_range_violation_exits_1(self, capsys):
        code, _, err = run(capsys, "family", "--n", "1", "--pmin", "5", "--pmax", "2")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["--pmin", "5", "--pmax", "2"],
            ["--pmin", "0", "--pmax", "2"],
            ["--n", "0", "--pmin", "1", "--pmax", "2"],
            ["--pmin", "1", "--pmax", "1001"],
            # T(p_max, p_max + 1) needs the exponent 3037000500 * 3037000501 > INT64_MAX
            ["--pmin", "1", "--pmax", "3037000500", "--pcap", "4000000000"],
        ],
    )
    def test_input_errors_exit_1_before_any_row(self, argv, fmt, capsys, monkeypatch):
        # the torus writer is patched to fail, so a missing check stops at
        # the first row past p = 1 instead of starting the oversize sweep
        def no_kernel(*args):
            raise AssertionError("the torus writer ran")

        monkeypatch.setattr(knots, "_torus_delta", no_kernel)
        code, out, err = run(capsys, "family", *argv, "--format", fmt)
        assert (code, out) == (1, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["alexander", "torus(3037000499,3037000500)"],
            ["family", "--pmin", "3037000499", "--pmax", "3037000499", "--pcap", "4000000000"],
        ],
    )
    def test_out_of_memory_exits_1(self, argv, capsys, monkeypatch):
        # T(3037000499, 3037000500) passes the 64-bit rule but needs about
        # 6·10^9 numerator terms; the kernel is patched to run out of memory
        # at once, so the oversize input never allocates for real
        def no_memory(p, q):
            raise MemoryError

        monkeypatch.setattr(knots, "_torus_quotient", no_memory)
        code, out, err = run(capsys, *argv)
        assert code == 1
        # family writes its head before the row, and no row
        assert out == "" if argv[0] == "alexander" else "3037000499" not in out
        assert err.startswith("error: out of memory")
        assert "Traceback" not in err

    def test_largest_row_in_64_bits_is_attempted(self, monkeypatch):
        # 3037000499 * 3037000500 <= INT64_MAX, so the row gets past the
        # checks; the patched builder stops it before any allocation
        def no_delta(spec):
            raise AssertionError(f"row {spec.p} was built")

        monkeypatch.setattr(family, "alexander_torus", no_delta)
        p = "3037000499"
        with pytest.raises(AssertionError, match=f"row {p} was built"):
            main(["family", "--pmin", p, "--pmax", p, "--pcap", "4000000000"])

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "family", "--pmin", "1", "--pmax", "8", "--format", "json")
        _, out2, _ = run(capsys, "family", "--pmin", "1", "--pmax", "8", "--format", "json")
        assert out1 == out2


class TestCertifyCommand:
    def test_emits_valid_certificate(self, capsys):
        code, out, _ = run(capsys, "certify", "--target", "10")
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(instance=data, schema=schemas.load("certificate"))
        assert data["witnesses"][-1]["lower_bound"] > 10

    def test_target_zero_single_witness(self, capsys):
        code, out, _ = run(capsys, "certify", "--target", "0")
        assert code == 0
        data = json.loads(out)
        assert data["witnesses"] == [{"p": 1, "lower_bound": 1}]

    def test_verify_round_trip(self, capsys, tmp_path):
        _, out, _ = run(capsys, "certify", "--target", "7")
        path = tmp_path / "cert.json"
        path.write_text(out)
        code, out, _ = run(capsys, "certify", "--verify", str(path))
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(instance=data, schema=schemas.load("verify"))
        assert data["valid"] is True
        assert out == json.dumps(data, indent=2) + "\n"

    def test_verify_tampered_exits_1(self, capsys, tmp_path):
        _, out, _ = run(capsys, "certify", "--target", "7")
        data = json.loads(out)
        data["witnesses"][-1]["lower_bound"] += 1
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "certify", "--verify", str(path))
        assert code == 1
        assert json.loads(out)["valid"] is False

    def test_verify_uncomputable_witness_is_invalid(self, capsys, tmp_path):
        # T(p, p+1) for this p needs exponents beyond 64 bits
        doc = _certificate(witnesses=[_witness(p=3037000507)])
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "certify", "--verify", str(path))
        assert code == 1
        assert err == ""
        data = json.loads(out)
        jsonschema.validate(instance=data, schema=schemas.load("verify"))
        assert data == {"valid": False, "target": 0, "witness_count": 1}

    def test_verify_takes_no_n(self, capsys, tmp_path):
        _, out, _ = run(capsys, "certify", "--target", "7")
        path = tmp_path / "cert.json"
        path.write_text(out)
        code, out, err = run(capsys, "certify", "--verify", str(path), "--n", "1")
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --n 1" in err

    def test_verify_garbage_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{]")
        code, _, err = run(capsys, "certify", "--verify", str(path))
        assert code == 1
        assert "error" in err

    def test_verify_deeply_nested_exits_1_without_traceback(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        proc = subprocess.run(
            [sys.executable, "-m", "knotsurgery", "certify", "--verify", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_verify_closes_the_file(self, capsys, tmp_path):
        _, out, _ = run(capsys, "certify", "--target", "7")
        path = tmp_path / "cert.json"
        path.write_text(out)
        # main() in place of the process entry point, whose os._exit skips
        # the teardown where a leaked handle would warn
        main_in_place = "import sys, knotsurgery.cli; sys.exit(knotsurgery.cli.main(sys.argv[1:]))"
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", main_in_place,
             "certify", "--verify", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "ResourceWarning" not in proc.stderr

    def test_verify_missing_file_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "certify", "--verify", str(tmp_path / "nope.json"))
        assert code == 1
        assert "error" in err

    def test_verify_missing_file_message(self, capsys, tmp_path):
        path = str(tmp_path / "nope.json")
        code, out, err = run(capsys, "certify", "--verify", path)
        assert (code, out) == (1, "")
        assert err == f"error: [Errno 2] No such file or directory: {path!r}\n"

    def test_cap_exhaustion_exits_1(self, capsys):
        # --target 1999 is first exceeded at p = 1001, one past the default cap
        for argv in (["--target", "100", "--cap", "10"], ["--target", "1999"]):
            code, out, err = run(capsys, "certify", *argv)
            assert code == 1
            assert out == ""
            assert err.startswith("error:")

    def test_requires_target_or_verify(self, capsys):
        code, _, _ = run(capsys, "certify")
        assert code == 1


def _witness(**fields):
    return {"p": 1, "lower_bound": 1, **fields}


def _certificate(**fields):
    return {"schema_version": 1, "target": 0, "witnesses": [_witness()], **fields}


MALFORMED_CERTIFICATES = {
    "bool_p": _certificate(witnesses=[_witness(p=True)]),
    "bool_lower_bound": _certificate(witnesses=[_witness(lower_bound=True)]),
    "bool_target": _certificate(target=False),
    "bool_schema_version": _certificate(schema_version=True),
    "p_below_minimum": _certificate(witnesses=[_witness(p=0)]),
    "lower_bound_below_minimum": _certificate(witnesses=[_witness(lower_bound=-1)]),
    "target_below_minimum": _certificate(target=-1),
    "fractional_p": _certificate(witnesses=[_witness(p=1.5)]),
    "string_p": _certificate(witnesses=[_witness(p="1")]),
    "null_target": _certificate(target=None),
    "unknown_schema_version": _certificate(schema_version=2),
    "extra_top_level_key": _certificate(comment="x"),
    "extra_witness_key": _certificate(witnesses=[_witness(note="x")]),
    "missing_witness_key": _certificate(witnesses=[{"p": 1}]),
    "missing_target": {"schema_version": 1, "witnesses": [_witness()]},
    "empty_witnesses": _certificate(witnesses=[]),
    "witnesses_not_a_list": _certificate(witnesses={"p": 1, "lower_bound": 1}),
    "witness_not_an_object": _certificate(witnesses=[[1, 1]]),
    "not_an_object": [1, 2, 3],
}


class TestCertificateLoaderMatchesSchema:
    @pytest.mark.parametrize(
        "doc", MALFORMED_CERTIFICATES.values(), ids=MALFORMED_CERTIFICATES.keys()
    )
    def test_malformed_rejected_everywhere(self, doc, capsys, tmp_path):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(instance=doc, schema=schemas.load("certificate"))
        with pytest.raises(ValueError):
            UnboundednessCertificate.from_json_dict(doc)
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "certify", "--verify", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_integral_numbers_accepted_everywhere(self, capsys, tmp_path):
        # JSON Schema counts 1.0 as an integer, so the loader does too
        doc = {"schema_version": 1.0, "target": 0.0, "witnesses": [_witness(p=1.0)]}
        jsonschema.validate(instance=doc, schema=schemas.load("certificate"))
        loaded = UnboundednessCertificate.from_json_dict(doc)
        assert loaded == UnboundednessCertificate.from_json_dict(_certificate())
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "certify", "--verify", str(path))
        assert code == 0
        assert json.loads(out) == {"valid": True, "target": 0, "witness_count": 1}


class TestJsonOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["alexander", "--format", "json", "sum(torus(2,5),torus(3,4))"],
            ["alexander", "--format", "json", "unknot"],
            ["torres", "--lk", "3", "--format", "json", "t - 1 + t^-1"],
            ["torres", "--lk", "0", "--format", "json", "t"],
            ["torres", "--lk", "2", "--format", "json", "5"],
            ["sw", "--p", "4", "--n", "2", "--format", "json"],
            ["sw", "--p", "3", "--n", "2", "--format", "json", "--delta-l", "x*y - 2 + y^-1"],
            ["family", "--pmin", "1", "--pmax", "6", "--format", "json"],
            ["certify", "--target", "15"],
        ],
    )
    def test_indent2_bytes(self, argv, capsys):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


# a faulty writer of Delta_T(p,q), and the error each fault surfaces as on
# T(2,5) (genus 2)
KERNEL_FAULTS = {
    # centered, of the right span and with Delta(1) = 1, but t^2 and t^-2 differ
    "asymmetric": (
        lambda p, q: LaurentPoly.parse("t^2 + 1 - t^-2", T_VARS),
        NotSymmetrizableError,
    ),
    "wrong_span": (lambda p, q: LaurentPoly.parse("1 - t", T_VARS), InternalInconsistencyError),
    # the right terms, each coefficient doubled: symmetric, but Delta(1) = 2
    "doubled": (lambda p, q: _torus_delta(p, q) * 2, InternalInconsistencyError),
}

# the same writer faulty on the family's T(2,3) (genus 1), and the error
# each fault surfaces as there
WRITER_FAULTS = {
    # the right terms but two coefficients off, Delta(1) still 1: t gains 1
    # and the constant term loses 1
    "wrong_coefficients": (
        lambda p, q: _torus_delta(p, q) + LaurentPoly.var(T_VARS, "t") - 1,
        NotSymmetrizableError,
    ),
    # centered, of the right span and with Delta(1) = 1, but t and t^-1 differ
    "asymmetric": (
        lambda p, q: LaurentPoly.parse("t + 1 - t^-1", T_VARS),
        NotSymmetrizableError,
    ),
    "wrong_span": (lambda p, q: LaurentPoly.parse("1 - t", T_VARS), InternalInconsistencyError),
    # the right terms, each coefficient doubled: symmetric, but Delta(1) = 2
    "doubled": (lambda p, q: _torus_delta(p, q) * 2, InternalInconsistencyError),
}


def _exits_2(fault, error, knot: str, capsys, monkeypatch) -> None:
    monkeypatch.setattr(knots, "_torus_delta", fault)
    with pytest.raises(error):
        alexander_expr(knots.parse_knot_expr(knot))
    code, out, err = run(capsys, "alexander", knot)
    assert (code, out) == (2, "")
    assert err.startswith("internal inconsistency: ")


@pytest.mark.parametrize("kernel,error", KERNEL_FAULTS.values(), ids=KERNEL_FAULTS.keys())
def test_internal_inconsistency_exits_2(kernel, error, capsys, monkeypatch):
    _exits_2(kernel, error, "torus(2,5)", capsys, monkeypatch)


@pytest.mark.parametrize("writer,error", WRITER_FAULTS.values(), ids=WRITER_FAULTS.keys())
def test_writer_inconsistency_exits_2(writer, error, capsys, monkeypatch):
    _exits_2(writer, error, "torus(2,3)", capsys, monkeypatch)


def _resized_grid(step: int):
    # _grid with the longer of its sides one element shorter (step -1) or
    # longer (step 1): the grid it writes is one row short of its m slots or
    # one row past them
    def fault(keys, start, m, a, ii, b, jj, shift):
        if len(ii) >= len(jj):
            ii = range(ii.start, ii.stop + step)
        else:
            jj = range(jj.start, jj.stop + step)
        return _grid(keys, start, m, a, ii, b, jj, shift)

    return fault


# a wrong grid shape inside the writer: every grid one row short or one row
# long, and s off by one through a pow that shadows the builtin in knots.
# Each is caught by a grid size check, never by a slice assignment's
# ValueError or by the span check after the writer
GRID_FAULTS = {
    "grid_one_short": ("_grid", _resized_grid(-1)),
    "grid_one_long": ("_grid", _resized_grid(1)),
    "s_off_by_one": ("pow", lambda *args: pow(*args) + 1),
}


@pytest.mark.parametrize("name,fault", GRID_FAULTS.values(), ids=GRID_FAULTS.keys())
@pytest.mark.parametrize("knot", ["torus(2,5)", "torus(3,7)"])
def test_grid_shape_fault_exits_2(name, fault, knot, capsys, monkeypatch):
    monkeypatch.setattr(knots, name, fault, raising=False)
    with pytest.raises(InternalInconsistencyError, match="grid holds"):
        alexander_expr(knots.parse_knot_expr(knot))
    code, out, err = run(capsys, "alexander", knot)
    assert (code, out) == (2, "")
    assert err.startswith("internal inconsistency: ")
    assert "Traceback" not in err


def _slice_edge_poly(count: int) -> LaurentPoly:
    # count terms over consecutive exponents around t^-1, t^0 and t^1, led by
    # a negative term, with coefficients 1, -1 and larger magnitudes
    top = count // 2
    coeffs = (-3, 1, -1, 2, 1, 10 ** 30, -1, -7)
    return LaurentPoly(
        VariableSet("t"), {(top - i,): coeffs[i % len(coeffs)] for i in range(count)}
    )


class TestStreamedOutput:
    """The CLI writes to stdout as it goes, with the bytes str and json.dumps give."""

    # text slices hold 4,096 terms and JSON slices 1,024
    @pytest.mark.parametrize("count", [1023, 1024, 1025, 2049, 4095, 4096, 4097, 8193])
    def test_polynomials_across_slice_boundaries(self, count, capsys):
        poly = _slice_edge_poly(count)
        text = str(poly)
        assert text == format_one_variable({e: c for (e,), c in poly.terms()}, "t")
        assert text.startswith(f"-3*t^{count // 2} + ")
        code, out, _ = run(capsys, "torres", "--lk", "1", "--", text)
        assert (code, out) == (0, text + "\n")
        code, out, _ = run(capsys, "torres", "--lk", "1", "--format", "json", "--", text)
        assert (code, out) == (0, _joined(_write_indent2, poly) + "\n")
        assert out == json.dumps(poly.to_json_dict(), indent=2) + "\n"

    @pytest.mark.parametrize("lk,text", [("0", "t"), ("1", "-7"), ("2", "5"), ("1", "t - 2")])
    def test_zero_constant_and_small(self, lk, text, capsys):
        poly = torres_specialize(LaurentPoly.parse(text), int(lk))
        for fmt, want in (("text", str(poly)), ("json", _joined(_write_indent2, poly))):
            code, out, _ = run(capsys, "torres", "--lk", lk, "--format", fmt, "--", text)
            assert (code, out) == (0, want + "\n")

    @pytest.mark.parametrize("n", ["1", "3"])
    def test_sw_json_with_a_two_variable_polynomial(self, n, capsys):
        delta_L = LaurentPoly.parse("x*y - 2 + y^-1")
        code, out, _ = run(
            capsys, "sw", "--p", "3", "--n", n, "--format", "json", "--delta-l", str(delta_L)
        )
        doc = sw_specialized(SurgerySpec(int(n), LinkFamilyMember(3)), delta_L).to_json_dict()
        assert (code, out) == (0, _joined(_write_indent2, doc) + "\n")

    def test_sw_json_across_a_json_slice_edge(self, capsys):
        # the full polynomial's 1,640 two-variable terms cross the JSON
        # writer's 1,024-term slice edge; json.dumps checks the bytes without
        # the streaming writer
        coeffs = (1, -1, 2, -3, 10**20)
        delta_L = LaurentPoly(
            VariableSet("x", "y"),
            {(i, j - 20): coeffs[(i + j) % len(coeffs)] for i in range(40) for j in range(40)},
        )
        code, out, _ = run(
            capsys, "sw", "--p", "3", "--n", "2", "--format", "json", f"--delta-l={delta_L}"
        )
        doc = sw_specialized(SurgerySpec(2, LinkFamilyMember(3)), delta_L).to_json_dict()
        assert doc["full_polynomial"].term_count() == 1640
        assert code == 0
        assert out == json.dumps(doc, indent=2, default=LaurentPoly.to_json_dict) + "\n"

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_family_report(self, fmt, capsys):
        code, out, _ = run(
            capsys, "family", "--n", "2", "--pmin", "1", "--pmax", "40", "--format", fmt
        )
        # the JSON against json.dumps, since the CLI and to_json share one writer
        report = analyze_family(2, 1, 40)
        doc = json.dumps(report.to_json_dict(), indent=2, default=LaurentPoly.to_json_dict)
        want = {"json": doc + "\n", "csv": report.to_csv(), "text": report.to_text()}
        assert (code, out) == (0, want[fmt])

    def test_family_rows_have_alternating_unit_coefficients(self):
        # _stream leaves the rows undrawn, so no row is checked against the
        # digit limit: each Delta's coefficients are +1, -1, ..., +1
        rows = [*cli._family_rows(1, 1, 400, 1000), *cli._family_rows(1, 4096, 4096, 4096)]
        assert [row.p for row in rows] == [*range(1, 401), 4096]
        for row in rows:
            coeffs = [c for _, c in row.delta_gamma.terms()]
            assert coeffs == [1, -1] * (len(coeffs) // 2) + [1]

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_family_internal_inconsistency_follows_the_rows_written(
        self, fmt, capsys, monkeypatch
    ):
        def faulty(spec):
            if spec.p == 3:
                raise InternalInconsistencyError("T(3,4) quotient is wrong")
            return alexander_torus(spec)

        monkeypatch.setattr(family, "alexander_torus", faulty)
        code, out, err = run(capsys, "family", "--pmin", "1", "--pmax", "5", "--format", fmt)
        assert (code, out) == (2, _unclosed(analyze_family(1, 1, 2), fmt))
        assert err.startswith("internal inconsistency: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_family_out_of_memory_follows_the_rows_written(self, fmt, capsys, monkeypatch):
        def exhausted(spec):
            if spec.p == 3:
                raise MemoryError
            return alexander_torus(spec)

        monkeypatch.setattr(family, "alexander_torus", exhausted)
        code, out, err = run(capsys, "family", "--pmin", "1", "--pmax", "5", "--format", fmt)
        assert (code, out) == (1, _unclosed(analyze_family(1, 1, 2), fmt))
        assert err.startswith("error: out of memory")
        assert "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_family_holds_one_row_at_a_time(self, fmt, monkeypatch):
        # the 400 rows hold about 19 MB together; one row and one slice of
        # its text are well under 2 MB
        monkeypatch.setattr(sys, "stdout", _Discard())
        tracemalloc.start()
        try:
            code = main(["family", "--pmin", "1", "--pmax", "400", "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2_000_000

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_torres_holds_an_exponent_array(self, fmt, monkeypatch):
        # 200,000 terms as an exponent array and a list of shared ints take
        # about 3.5 MB; a dict slot, a 1-tuple key and an int per term took
        # about 30 MB
        monkeypatch.setattr(sys, "stdout", _Discard())
        tracemalloc.start()
        try:
            code = main(["torres", "--lk", "200000", "--format", fmt, "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 8_000_000

    def test_torres_walks_the_input_without_copying_it(self):
        # Delta_T(2,200001) holds about 3.2 MB; a sorted list of two
        # (exponent, coefficient) tuples per term took 65 MB
        delta = alexander_torus(TorusKnotSpec(2, 200001))
        tracemalloc.start()
        try:
            result = torres_specialize(delta, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == LaurentPoly.parse("t^100001 + t^-100000")
        assert peak < 2_000_000

    def test_writes_in_slices(self, capsys, monkeypatch):
        # one write per slice of terms, not one per document
        writes = []
        monkeypatch.setattr(sys.stdout, "write", writes.append)
        assert main(["torres", "--lk", "10000", "1"]) == 0
        # y^9999..y^2 in three slices, then y + 1, then the newline
        assert len(writes) == 5
        assert "".join(writes) == str(torres_specialize(LaurentPoly.parse("1"), 10000)) + "\n"

    def test_writes_json_in_slices(self, capsys, monkeypatch):
        # two writes per slice of 1,024 terms, the opening and the slice
        writes = []
        monkeypatch.setattr(sys.stdout, "write", writes.append)
        assert main(["torres", "--lk", "10000", "--format", "json", "1"]) == 0
        # the five writes of "variables", ten slices, the tail and the newline
        assert len(writes) == 27
        poly = torres_specialize(LaurentPoly.parse("1"), 10000)
        assert "".join(writes) == json.dumps(poly.to_json_dict(), indent=2) + "\n"

    def test_json_writer_holds_one_small_slice(self, monkeypatch):
        # the 200,000-term result holds about 3.3 MB; a JSON slice of 1,024
        # terms adds about 0.25 MB to the peak, one of 4,096 terms 0.9 MB.  A
        # first, small call keeps what main() loads only once out of the peak
        monkeypatch.setattr(sys, "stdout", _Discard())
        assert main(["torres", "--lk", "2", "--format", "json", "1"]) == 0
        tracemalloc.start()
        try:
            result = torres_specialize(LaurentPoly.parse("1"), 200000)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        del result
        tracemalloc.start()
        try:
            code = main(["torres", "--lk", "200000", "--format", "json", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak - held < 500_000


class TestParserBehavior:
    def test_no_command_exits_1(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    def test_unknown_command_exits_1(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_bad_flag_exits_1(self, capsys):
        code, _, _ = run(capsys, "family", "--pmin", "1", "--pmax", "3", "--format", "xml")
        assert code == 1

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "alexander" in out


# argv -> the stderr argparse writes for it at 80 columns, usage line first
USAGE_ERRORS = {
    ("frobnicate",): (
        "usage: knotsurgery [-h] command ...\n"
        "knotsurgery: error: argument command: invalid choice: 'frobnicate' "
        "(choose from 'alexander', 'torres', 'sw', 'family', 'certify')\n"
    ),
    ("family", "--pmin", "1", "--pmax", "3", "--format", "xml"): (
        "usage: knotsurgery family [-h] [--n N] --pmin PMIN --pmax PMAX [--pcap PCAP]\n"
        "                          [--format {text,json,csv}]\n"
        "knotsurgery family: error: argument --format: invalid choice: 'xml' "
        "(choose from 'text', 'json', 'csv')\n"
    ),
    ("torres", "t"): (
        "usage: knotsurgery torres [-h] --lk LK [--format {text,json}] poly\n"
        "knotsurgery torres: error: the following arguments are required: --lk\n"
    ),
}


@pytest.mark.parametrize("argv", list(USAGE_ERRORS), ids=lambda argv: " ".join(argv))
class TestUsageErrors:
    def test_in_process(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, *argv) == (1, "", USAGE_ERRORS[argv])

    def test_through_python_dash_m(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "knotsurgery", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "COLUMNS": "80"},
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", USAGE_ERRORS[argv])


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "knotsurgery", "alexander", "torus(2,3)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "t - 1 + t^-1\n"

    def test_exit_codes_through_process(self):
        proc = subprocess.run(
            [sys.executable, "-m", "knotsurgery", "alexander", "torus(4,6)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1


def _python(*args, **kwargs) -> subprocess.CompletedProcess:
    # python ARGS with stdout fully buffered, as it is by default:
    # PYTHONUNBUFFERED would send each write at once and hide what the
    # process fails to flush
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, *args], stderr=subprocess.PIPE, text=True, env=env, **kwargs
    )


def _entry_point(*argv, **kwargs) -> subprocess.CompletedProcess:
    return _python("-m", "knotsurgery", *argv, **kwargs)


FULL_DISK = "error: [Errno 28] No space left on device\n"


class TestProcessExit:
    # app flushes and ends the process with os._exit: a failed stdout write
    # is one error line and exit 1 at any output size
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [
            # each held in stdout's buffer until a flush
            ["certify", "--target", "5"],
            ["alexander", "torus(2,3)"],
            ["--help"],  # written by argparse, past _stream
            # larger than the buffer
            ["alexander", "torus(2,40147)"],
            ["family", "--pmin", "1", "--pmax", "60", "--format", "json"],
        ],
        ids=" ".join,
    )
    def test_full_disk(self, argv):
        with open("/dev/full", "w") as full:
            proc = _entry_point(*argv, stdout=full)
        assert (proc.returncode, proc.stderr) == (1, FULL_DISK)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_disk_after_a_failed_verification(self, tmp_path):
        # the verdict of an exit-1 verification is a document too: here the
        # last witness claims one more than recomputation gives
        doc = certify_unbounded(5).to_json_dict()
        doc["witnesses"][-1]["lower_bound"] += 1
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert _entry_point("certify", "--verify", str(path)).returncode == 1
        with open("/dev/full", "w") as full:
            proc = _entry_point("certify", "--verify", str(path), stdout=full)
        assert (proc.returncode, proc.stderr) == (1, FULL_DISK)

    def test_closed_pipe(self):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = _entry_point("alexander", "torus(2,3)", stdout=write)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, "error: [Errno 32] Broken pipe\n")

    @pytest.mark.parametrize(
        "argv", [["certify", "--target", "5"], ["alexander", "torus(2,3)"]], ids=" ".join
    )
    def test_closed_stdout(self, argv):
        proc = _entry_point(*argv, stdout=None, preexec_fn=lambda: os.close(1))
        assert (proc.returncode, proc.stderr) == (1, "error: stdout is closed\n")

    def test_closed_stdout_after_help(self):
        # argparse writes the help to stderr when sys.stdout is None
        proc = _entry_point("--help", stdout=None, preexec_fn=lambda: os.close(1))
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage: knotsurgery")
        assert proc.stderr.endswith("\nerror: stdout is closed\n")

    def test_closed_stderr_leaves_a_success(self):
        proc = _entry_point("alexander", "torus(2,3)", preexec_fn=lambda: os.close(2))
        assert (proc.returncode, proc.stdout) == (0, "t - 1 + t^-1\n")

    def test_rows_before_a_family_failure_reach_stdout(self):
        # they sit in stdout's buffer when main() returns
        script = (
            "import sys\n"
            "from knotsurgery import cli, family\n"
            "real = family.alexander_torus\n"
            "def exhausted(spec):\n"
            "    if spec.p == 3:\n"
            "        raise MemoryError\n"
            "    return real(spec)\n"
            "family.alexander_torus = exhausted\n"
            "cli.app()\n"
        )
        proc = _python("-c", script, "family", "--pmin", "1", "--pmax", "5", "--format", "json")
        assert (proc.returncode, proc.stdout) == (1, _unclosed(analyze_family(1, 1, 2), "json"))
        assert proc.stderr.startswith("error: out of memory")
