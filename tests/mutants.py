"""The mutant table: each correctness check in src/ and the tests that hold it.

Run by hand from the root of a checkout; it is not part of the test suite:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

Each mutant replaces one exact fragment of one file under src/ with a
weaker version of the check.  For each, the script copies src/ and tests/
into a fresh temporary directory, applies the replacement there (the
checkout is never written), and runs pytest with -x on the node ids that
must kill the mutant.  Killed means pytest reports a failure, or the run
hits the mutant's wall-clock bound, so a mutant that makes a test hang
counts as killed.  Before any mutant, the same node ids must pass on the
unmutated copy.  One line is printed per mutant; the exit code is 1 if a
mutant survived or the table is out of date, 0 otherwise.

tests/test_mutant_table.py checks in the suite that every fragment still
occurs exactly once under src/, so the table cannot go stale silently.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BOUND_S = 90  # wall-clock bound of one mutant's pytest run


class Mutant:
    def __init__(self, name: str, path: str, fragment: str, replacement: str, kill: tuple):
        self.name = name
        self.path = path  # relative to src/knotsurgery
        self.fragment = fragment
        self.replacement = replacement
        self.kill = kill  # pytest node ids, relative to the checkout root


LAURENT = "tests/test_laurent.py"
PROPERTIES = "tests/test_properties.py"
FOX = "tests/test_fox.py"
VERIFY = "tests/test_family.py::TestVerifyCertificate"
VERIFY_WORK = "tests/test_family.py::TestVerifyWork"
PROCESS_EXIT = "tests/test_cli.py::TestProcessExit"

MUTANTS = [
    # three mutants that the tests once let through
    Mutant(
        "final-bound-equal-to-target",
        "family.py",
        "    if bounds[-1] <= c.target:\n",
        "    if bounds[-1] < c.target:\n",
        (f"{VERIFY}::test_final_bound_equal_to_target_fails",),
    ),
    Mutant(
        "quotient-low-end-unchecked",
        "laurent.py",
        "        _checked_exponent(shift)\n",
        "",
        (
            f"{LAURENT}::TestExactDivide::test_quotient_overflow_detected",
            f"{LAURENT}::TestExactDivide::test_quotient_low_end_overflow_detected_by_the_heap_loop",
        ),
    ),
    Mutant(
        "quotient-below-shift-not-a-remainder",  # the division never ends
        "laurent.py",
        "            if qe < shift or r:\n",
        "            if r:\n",
        (f"{LAURENT}::TestExactDivide::test_not_divisible_by_the_heap_loop",),
    ),
    # the stored layout: sorted once and zero-free where terms accumulate
    Mutant(
        "accumulated-keys-unsorted",
        "laurent.py",
        "    keys = sorted(acc)\n",
        "    keys = list(acc)\n",
        (f"{LAURENT}::TestTextForm::test_terms_sorted_descending",),
    ),
    Mutant(
        "accumulated-zeros-kept",
        "laurent.py",
        "    keys = compress(keys, coeffs)\n"
        '    return (array("q", keys) if len(variables) == 1 else list(keys)),'
        " list(filter(None, coeffs))\n",
        '    return (array("q", keys) if len(variables) == 1 else list(keys)), coeffs\n',
        (f"{LAURENT}::TestArithmetic::test_cancellation_on_add",),
    ),
    # routes that build the sorted sequences directly
    Mutant(
        "torres-runs-descending",
        "laurent.py",
        "            keys.extend(range(start, e))\n",
        "            keys.extend(reversed(range(start, e)))\n",
        ("tests/test_surgery.py::TestTorresSpecialize::test_lk3_on_constant_is_geometric_sum",),
    ),
    # the grid writer of every T(p, q), one window at a time
    Mutant(
        "torus-s-off-by-one",
        "knots.py",
        "    s = (pow(q, -1, p) - 1) % p\n",
        "    s = pow(q, -1, p) % p\n",
        ("tests/test_knots.py::TestTorusKernel::test_small_pairs_match_both_oracles",),
    ),
    Mutant(
        "torus-second-grid-unshifted",
        "knots.py",
        "range(s + 1, p), -p * q - g)\n",
        "range(s + 1, p), -g)\n",
        ("tests/test_knots.py::TestTorusKernel::test_small_pairs_match_both_oracles",),
    ),
    Mutant(
        "torus-window-slice-one-early",  # a row's last term before the window comes again
        "knots.py",
        "            k = -((row.start - low) // b)  # row[k] is the row's first exponent >= low\n",
        "            k = (low - row.start) // b\n",
        (f"{PROPERTIES}::TestTorusWriter::test_matches_both_oracles_in_every_window",),
    ),
    Mutant(
        "torus-window-slice-one-late",
        "knots.py",
        "            window += row[max(k, 0):max(k + w, 0)]\n",
        "            window += row[max(k + 1, 0):max(k + w, 0)]\n",
        (f"{PROPERTIES}::TestTorusWriter::test_matches_both_oracles_in_every_window",),
    ),
    Mutant(
        "torus-writer-window-unsorted",
        "knots.py",
        "        window.sort()\n",
        "",
        (f"{PROPERTIES}::TestTorusWriter::test_matches_both_oracles_in_every_window",),
    ),
    Mutant(
        "torus-empty-grid-unguarded",  # an empty grid's rows[0] raises IndexError
        "knots.py",
        " b * w) if rows else ():\n",
        " b * w):\n",
        ("tests/test_cli.py::test_grid_shape_fault_exits_2",),
    ),
    Mutant(
        "torus-grid-sizes-unchecked",  # a short grid fails only the span check
        "knots.py",
        "    if count != m:\n",
        "    if False:\n",
        ("tests/test_cli.py::test_grid_shape_fault_exits_2",),
    ),
    Mutant(
        "torus-grid-overflow-unchecked",  # a long grid fails in a slice assignment
        "knots.py",
        "        if end > m:\n",
        "        if False:\n",
        ("tests/test_cli.py::test_grid_shape_fault_exits_2",),
    ),
    Mutant(
        "torus-coefficients-flipped",
        "knots.py",
        "    coeffs = [1, -1] * m\n",
        "    coeffs = [-1, 1] * m\n",
        (
            "tests/test_knots.py::TestTorusKernel::test_small_pairs_match_both_oracles",
            "tests/test_knots.py::TestAdjacentWriter::test_matches_the_semigroup_and_the_kernel",
        ),
    ),
    # the span check, skipped for the family's T(p, p+1)
    Mutant(
        "adjacent-span-unchecked",
        "knots.py",
        "    if not (keys and keys[0] == -g and keys[-1] == g):\n",
        "    if q != p + 1 and not (keys and keys[0] == -g and keys[-1] == g):\n",
        (
            "tests/test_knots.py::TestTorusKernel::test_span_mismatch_detected",
            "tests/test_knots.py::TestTorusKernel::test_terms_beyond_the_genus_detected",
            "tests/test_cli.py::test_writer_inconsistency_exits_2",
        ),
    ),
    Mutant(
        "packed-product-keeps-zeros",
        "laurent.py",
        "        if c:\n            keys.append(lo + k)\n",
        "        if True:\n            keys.append(lo + k)\n",
        (f"{LAURENT}::TestArithmetic::test_difference_of_squares",),
    ),
    Mutant(
        "division-heap-unordered",
        "laurent.py",
        "        heap = [-e for e in reversed(self._keys)]",
        "        heap = [-e for e in self._keys]",
        (f"{LAURENT}::TestExactDivide",),
    ),
    # range checks that must fire before an exponent reaches an array('q')
    Mutant(
        "torres-top-unchecked",
        "laurent.py",
        "        _checked_exponent(poly._keys[-1] + lk - 1)\n",
        "        pass\n",
        ("tests/test_cli.py::TestTorresCommand::test_exponent_overflow_exits_1",),
    ),
    Mutant(
        "product-top-unchecked",
        "laurent.py",
        "                _checked_exponent(a[-1] + b[-1])\n",
        "",
        (f"{LAURENT}::TestArithmetic::test_mul_overflow_detected",),
    ),
    Mutant(
        "quotient-top-unchecked",
        "laurent.py",
        "        _checked_exponent(qkeys[0])\n",
        "",
        (f"{LAURENT}::TestExactDivide::test_quotient_top_overflow_detected_by_the_heap_loop",),
    ),
    # exact division by +-(t^a - t^b), one residue class mod a - b at a time
    Mutant(
        "unit-binomial-remainder-unchecked",
        "laurent.py",
        "        if sums[r]:\n",
        "        if False:\n",
        (
            f"{LAURENT}::TestExactDivide::test_not_divisible",
            f"{LAURENT}::TestUnitBinomialDivision::test_remainder_names_the_last_term_of_its_class",
        ),
    ),
    Mutant(
        "unit-binomial-exactness-untested",
        "laurent.py",
        "    if any(sums if d <= len(keys) else sums.values()):\n",
        "    if False:\n",
        (
            f"{LAURENT}::TestExactDivide::test_not_divisible",
            # d = 999 is more than the numerator's 3 terms: the dict table
            f"{LAURENT}::TestUnitBinomialDivision::test_remainder_names_the_last_term_of_its_class"
            "[t^1000 - 1]",
        ),
    ),
    Mutant(
        "unit-binomial-low-end-unchecked",
        "laurent.py",
        "    _checked_exponent(keys[0] - b)\n",
        "",
        (f"{LAURENT}::TestUnitBinomialDivision::test_quotient_low_end_overflow_detected",),
    ),
    Mutant(
        "unit-binomial-top-unchecked",
        "laurent.py",
        "    _checked_exponent(keys[-1] - a)\n",
        "",
        (
            f"{LAURENT}::TestUnitBinomialDivision::test_quotient_top_overflow_detected",
            f"{LAURENT}::TestExactDivide::test_quotient_top_overflow_detected",
        ),
    ),
    Mutant(
        "unit-binomial-run-one-short",
        "laurent.py",
        "                acc.update(zip(range(last - a, e - a, -d), repeat(running)))\n",
        "                acc.update(zip(range(last - a, e - a + d, -d), repeat(running)))\n",
        (f"{LAURENT}::TestUnitBinomialDivision::test_quotients",),
    ),
    Mutant(
        "unit-binomial-one-term-run-off-by-one",
        "laurent.py",
        "                acc[last - a] = running\n",
        "                acc[last - a - d] = running\n",
        (f"{LAURENT}::TestUnitBinomialDivision::test_quotients",),
    ),
    # symmetrize's mirror test
    Mutant(
        "mirror-skips-middle-term",
        "laurent.py",
        "        half = (len(keys) + 1) // 2\n",
        "        half = len(keys) // 2\n",
        (f"{LAURENT}::TestSymmetrize::test_asymmetric_rejected",),
    ),
    Mutant(
        "mirror-exponents-unchecked",
        "laurent.py",
        "            and all(map((lo + hi).__eq__, map(operator.add, islice(keys, half),"
        " reversed(keys))))\n",
        "",
        (f"{LAURENT}::TestSymmetrize::test_asymmetric_rejected",),
    ),
    Mutant(
        "mirror-coefficients-unchecked",
        "laurent.py",
        "            all(map(operator.eq, islice(coeffs, half), reversed(coeffs)))\n",
        "            True\n",
        (f"{LAURENT}::TestSymmetrize::test_asymmetric_rejected",),
    ),
    # readers of the sequences
    Mutant(
        "coefficient-takes-a-neighbour",
        "laurent.py",
        "        return self._terms[i] if i < len(keys) and keys[i] == key else 0\n",
        "        return self._terms[i] if i < len(keys) else 0\n",
        (f"{LAURENT}::TestConstruction::test_coefficient_reads_only_its_own_exponent",),
    ),
    Mutant(
        "units-ignore-exponents",
        "laurent.py",
        "            if [e + shift for e in a] != b.tolist():\n",
        "            if False:\n",
        (f"{LAURENT}::TestEqualUpToUnits::test_same_coefficients_on_other_exponents_differ",),
    ),
    # the JSON writer's slice, a quarter of text's terms
    Mutant(
        "json-slice-as-large-as-text",
        "laurent.py",
        "_slices(poly, 0, len(poly._terms), max(_SLICE // 4, 1))",
        "_slices(poly, 0, len(poly._terms), _SLICE)",
        ("tests/test_cli.py::TestStreamedOutput::test_json_writer_holds_one_small_slice",),
    ),
    # the indent-2 writer spells only names directly, and writing loads no json
    Mutant(
        "indent2-every-string-direct",
        "laurent.py",
        "    if not (isinstance(value, str) and _NAME_RE.match(value)):\n",
        "    if not isinstance(value, str):\n",
        (
            f"{LAURENT}::TestJsonForm::test_indent2_writer_refuses_a_value_no_document_holds",
        ),
    ),
    Mutant(
        "json-imported-at-module-level",
        "laurent.py",
        "import heapq\nimport operator\n",
        "import heapq\nimport json\nimport operator\n",
        ("tests/test_import_path.py::test_cli_import_adds_none_of_the_heavy_modules",),
    ),
    # verify_certificate's first pass: the certificate's own claims, before
    # any bound is recomputed
    Mutant(
        "certificate-types-unchecked",
        "family.py",
        "    if not all(isinstance(x, int) and not isinstance(x, bool) for x in values):\n",
        "    if not all(not isinstance(x, bool) for x in values):\n",
        (f"{VERIFY}::test_non_integer_field_fails_without_raising",),
    ),
    Mutant(
        "certificate-bools-accepted",
        "family.py",
        "    if not all(isinstance(x, int) and not isinstance(x, bool) for x in values):\n",
        "    if not all(isinstance(x, int) for x in values):\n",
        (f"{VERIFY}::test_non_integer_field_fails_without_raising",),
    ),
    Mutant(
        "certificate-index-order-unchecked",
        "family.py",
        "    if not all(map(operator.lt, [0, *ps], ps)):\n",
        "    if False:\n",
        (
            f"{VERIFY}::test_falling_index_fails_whatever_the_bounds",
            f"{VERIFY_WORK}::test_broken_claims_recompute_nothing",
        ),
    ),
    Mutant(
        "certificate-bound-order-unchecked",
        "family.py",
        "    if not all(map(operator.lt, [-1, *bounds], bounds)):\n",
        "    if False:\n",
        (
            f"{VERIFY}::test_non_increasing_bound_fails",
            f"{VERIFY_WORK}::test_bound_tying_a_neighbour_recomputes_nothing",
        ),
    ),
    # the presentation's letter and free-reduction checks, taken at C level
    Mutant(
        "presentation-letter-types-unchecked",
        "fox.py",
        "                if type(letter) is not int or not 0 < abs(letter) <= n:\n",
        "                if not 0 < abs(letter) <= n:\n",
        (f"{FOX}::TestGroupPresentation::test_rejection_messages",),
    ),
    Mutant(
        "presentation-reduction-unchecked",
        "fox.py",
        "            if 0 in map(operator.add, word, word[1:]):\n",
        "            if False:\n",
        (f"{FOX}::TestGroupPresentation::test_accepts_exactly_the_freely_reduced_words",),
    ),
    # the Fox oracle's run-wise numerator and its abelianization
    Mutant(
        "fox-run-start-unchecked",
        "fox.py",
        "            _checked_exponent(prefix)\n",
        "",
        ("tests/test_fox.py::TestFoxOracle::test_run_start_out_of_range",),
    ),
    Mutant(
        "fox-run-end-unchecked",
        "fox.py",
        "            _checked_exponent(last)\n",
        "",
        ("tests/test_fox.py::TestFoxOracle::test_run_top_out_of_range",),
    ),
    Mutant(
        "fox-numerator-shift-unchecked",
        "fox.py",
        "            _checked_exponent(max(prefix, last) + 1)\n",
        "",
        ("tests/test_fox.py::TestFoxOracle::test_numerator_top_out_of_range",),
    ),
    Mutant(
        "fox-numerator-repeats-unchecked",
        "fox.py",
        "len(ups) == len(plus) and len(set(minus)) == len(minus) and ",
        "",
        (f"{FOX}::TestRunWiseDerivative::test_both_numerator_branches[zero-step]",),
    ),
    Mutant(
        "fox-numerator-meeting-unchecked",
        "fox.py",
        " and ups.isdisjoint(minus)",
        "",
        (f"{FOX}::TestRunWiseDerivative::test_both_numerator_branches[progressions-meet]",),
    ),
    Mutant(
        "fox-divisor-unchecked",
        "fox.py",
        "_from_dict(_T, {_checked_exponent(ey): 1, 0: -1})",
        "_from_dict(_T, {ey: 1, 0: -1})",
        ("tests/test_fox.py::TestFoxOracle::test_divisor_out_of_range",),
    ),
    Mutant(
        "fox-abelianization-unchecked",
        "fox.py",
        '        i + 1: _require_int(abelianization[name], "exponent")\n',
        "        i + 1: abelianization[name]\n",
        ("tests/test_fox.py::TestFoxOracle::test_abelianization_values_must_be_integers",),
    ),
    # the torus quotient's Delta(1) = 1 check, on T(2,5) and on T(2,3)
    Mutant(
        "torus-value-at-one-unchecked",
        "knots.py",
        "    if value != 1:\n",
        "    if False:\n",
        (
            "tests/test_cli.py::test_internal_inconsistency_exits_2",
            "tests/test_cli.py::test_writer_inconsistency_exits_2",
        ),
    ),
    # the knot grammar's integer arguments, checked after the closing ")"
    Mutant(
        "knot-integer-arguments-unchecked",  # int("a") raises its own message
        "knots.py",
        '        if not all(arg.isdigit() for arg, kind in zip(args, kinds) if kind != "E"):\n',
        "        if False:\n",
        (f"{PROPERTIES}::test_parse_error_messages[parse_knot_expr:torus(a,b)]",),
    ),
    # an input too large for memory is a usage error
    Mutant(
        "out-of-memory-uncaught",
        "cli.py",
        "    except MemoryError:\n",
        "    except NotImplementedError:\n",
        ("tests/test_cli.py::TestFamilyCommand::test_out_of_memory_exits_1",),
    ),
    # the SW prefactor's exponent range, checked before any term is built
    Mutant(
        "sw-prefactor-exponent-unchecked",
        "surgery.py",
        "    m = _checked_exponent(n - 1)\n",
        "    m = n - 1\n",
        ("tests/test_cli.py::TestSwCommand::test_prefactor_of_a_large_n_exits_1[past-64-bit]",),
    ),
    # sw_specialized's one Delta_L(1, y) and its one doubling into t_G
    Mutant(
        "explicit-delta-l-x-not-set-to-1",
        "surgery.py",
        '(0,) if name == "x" else (2,)',
        "(2,)",
        (f"{PROPERTIES}::TestSwRoutes::test_specialization_is_the_full_polynomial_at_tK1",),
    ),
    Mutant(
        "specialization-not-doubled",
        "surgery.py",
        "else (2,) for name in link.variables}\n",
        "else (1,) for name in link.variables}\n",
        (
            "tests/test_surgery.py::TestSwSpecialized::test_p2_n1",
            f"{PROPERTIES}::TestSwRoutes::test_specialization_is_the_full_polynomial_at_tK1",
        ),
    ),
    # verification trusts no bound this process computed before
    Mutant(
        "bound-memo-restored",
        "surgery.py",
        "\ndef basic_class_lower_bound(p: int) -> int:\n",
        '\n@__import__("functools").lru_cache(maxsize=None)\n'
        "def basic_class_lower_bound(p: int) -> int:\n",
        (
            "tests/test_family.py::TestOneBoundRoute::"
            "test_verification_after_certifying_rebuilds_each_witness_delta",
        ),
    ),
    # the process ends with os._exit: main() flushes each document, app what
    # argparse wrote, and a failed write of any size is one error line
    Mutant(
        "document-not-flushed",  # app's flush then fails after main() returned 1
        "cli.py",
        '    write("\\n")\n    out.flush()\n',
        '    write("\\n")\n',
        (f"{PROCESS_EXIT}::test_full_disk_after_a_failed_verification",),
    ),
    Mutant(
        "stdout-not-flushed-at-exit",
        "cli.py",
        "        sys.stdout.flush()\n",
        "        pass\n",
        (
            "tests/test_golden_cli.py::test_help_through_the_process_entry_point",
            f"{PROCESS_EXIT}::test_rows_before_a_family_failure_reach_stdout",
        ),
    ),
    Mutant(
        "failed-help-write-unreported",
        "cli.py",
        "        if code == EXIT_OK:\n",
        "        if False:\n",
        (f"{PROCESS_EXIT}::test_full_disk[--help]",),
    ),
    Mutant(
        "closed-stdout-unchecked",  # an AttributeError and its traceback
        "cli.py",
        "    if out is None:",
        "    if False:",
        (f"{PROCESS_EXIT}::test_closed_stdout[alexander torus(2,3)]",),
    ),
    Mutant(
        "closed-stderr-flushed",  # an AttributeError after a success
        "cli.py",
        "    if sys.stderr is not None:\n",
        "    if True:\n",
        (f"{PROCESS_EXIT}::test_closed_stderr_leaves_a_success",),
    ),
    Mutant(
        "verify-handle-leaked",
        "cli.py",
        '        with open(args.verify, "r", encoding="utf-8") as handle:\n',
        '        handle = open(args.verify, "r", encoding="utf-8")\n        if True:\n',
        ("tests/test_cli.py::TestCertifyCommand::test_verify_closes_the_file",),
    ),
]


def fragment_counts() -> dict[str, int]:
    """Occurrences of each mutant's fragment in all of src/, by mutant name."""
    sources = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "src").rglob("*.py"))]
    return {m.name: sum(text.count(m.fragment) for text in sources) for m in MUTANTS}


def _pytest(copy: Path, kill: tuple) -> str:
    # "passed", "failed", "timeout" or "error"
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env["PYTHONPATH"] = str(copy / "src")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *kill]
    try:
        proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True, timeout=BOUND_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return {0: "passed", 1: "failed"}.get(proc.returncode, "error")


def _fresh_copy(parent: Path) -> Path:
    copy = Path(tempfile.mkdtemp(dir=parent))
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, copy / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", copy)
    return copy


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - {m.name for m in MUTANTS})
    stale = [name for name, count in fragment_counts().items() if count != 1]
    if unknown or stale:
        print(f"unknown mutants: {unknown}; fragments not found exactly once: {stale}")
        return 1
    chosen = [m for m in MUTANTS if not names or m.name in names]
    survived = 0
    with tempfile.TemporaryDirectory() as scratch:
        for mutant in chosen:
            copy = _fresh_copy(Path(scratch))
            baseline = _pytest(copy, mutant.kill)
            if baseline != "passed":
                print(f"{mutant.name}: its tests do not pass unmutated ({baseline})")
                return 1
            target = copy / "src" / "knotsurgery" / mutant.path
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(mutant.fragment, mutant.replacement), encoding="utf-8")
            start = time.monotonic()
            outcome = _pytest(copy, mutant.kill)
            killed = outcome in ("failed", "timeout")
            survived += not killed
            verdict = "killed" if killed else f"SURVIVED ({outcome})"
            print(f"{mutant.name}: {verdict} in {time.monotonic() - start:.1f} s", flush=True)
    print(f"{len(chosen) - survived} of {len(chosen)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
