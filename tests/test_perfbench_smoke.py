"""Smoke tests of the benchmark runner: the shortest runs, no speed asserted.

perfbench/ is read, never changed: this checks that the runner still builds
its workload from this checkout, that every op's output passes the oracle,
and that the last stdout line carries the end-to-end metrics, or under
--trace 1 the per-layer counts.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sweep_run_reports_all_ops_correct():
    check_run("sweep")


def test_report_run_reports_all_ops_correct():
    # family reports as JSON and CSV, checked against the runner's own oracle
    check_run("report")


def test_oneshot_run_reports_all_ops_correct():
    # alexander, torres and sw, whose JSON carries the largest polynomials
    check_run("oneshot")


def test_crosscheck_run_reports_all_ops_correct():
    # the only workload that runs exact_divide and equal_up_to_units
    check_run("crosscheck")


def test_traced_runs_report_exact_counts():
    # --trace 1 reads each polynomial's term count off LaurentPoly._terms;
    # oneshot divides nothing, so only crosscheck has quotient terms, and
    # crosscheck multiplies nothing, since the Fox numerator needs no product
    for workload, divides, multiplies in [("crosscheck", True, False), ("oneshot", False, True)]:
        metrics = result_of(workload, trace=1)["metrics"]
        assert metrics["laurent.init.terms"]["value"] > 0
        assert (metrics["laurent.mul.pairs"]["value"] > 0) == multiplies
        assert (metrics["laurent.exact_divide.terms_out"]["value"] > 0) == divides


def check_run(workload):
    result = result_of(workload, trace=0)
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert {"setup_s", "wall_s", "peak_rss_mb"} <= metrics.keys()
    assert metrics["ok_frac"]["value"] == 1.0


def result_of(workload, trace):
    # the last stdout line of the shortest run, checked correct
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    return result
