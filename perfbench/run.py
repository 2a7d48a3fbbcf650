"""knotsurgery benchmark: cold CLI and public-API ops, timed end to end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every op runs in a fresh interpreter against the checkout's src/, one after
another (a closed loop with one client).  A pass runs the workload's op list
once, in an order rotated by one op per pass; passes repeat until S seconds
have gone.  Each op's stdout is checked against the independent oracle in
oracle.py, outside the timed region.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
passes with passes whose ops run under trace_child.py, and reports per-layer
self times and exact counts.  The last stdout line is one JSON object; the
lines before it describe the machine, the inputs and the spread.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracer
import workloads

HERE = Path(__file__).resolve().parent
OP_TIMEOUT_S = 120
SETUP_SAMPLES_PER_PASS = 3

# Host speed on a shared machine drifts by tens of percent over minutes, far
# more than a pass-to-pass median can absorb.  Every child's wall time is
# therefore also scaled by REFERENCE_NOMINAL_S over the time of a fixed
# pure-Python loop, timed in this process just before and just after the
# child: the scaled value is the wall time at the nominal host speed.  The
# loop's time is the fastest of REFERENCE_REPEATS tries, so a momentary
# stall of this process does not count as a slow host.
REFERENCE_ITERATIONS = 50_000
REFERENCE_REPEATS = 3
REFERENCE_NOMINAL_S = 0.007

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}

PER_LAYER = [
    "laurent.init.calls", "laurent.init.terms", "laurent.init.self_s",
    "laurent.exact_divide.calls", "laurent.exact_divide.terms_out", "laurent.exact_divide.self_s",
    "laurent.symmetrize.calls", "laurent.symmetrize.self_s",
    "knots.alexander_torus.calls", "knots.alexander_torus.self_s",
    "surgery.basic_class_lower_bound.calls", "surgery.basic_class_lower_bound.self_s",
    "family.certify_unbounded.self_s",
    "family.verify_certificate.self_s", "family.verify_certificate.rejects",
    "laurent.to_json_dict.self_s", "laurent.str.self_s", "laurent.str.chars_out",
    "family.report_emit.self_s", "family.analyze_family.self_s",
    "cli.main.self_s", "cli.stdout_bytes",
    "laurent.mul.calls", "laurent.mul.pairs", "laurent.mul.self_s",
    "laurent.pow.self_s", "laurent.add.self_s",
    "laurent.parse.calls", "laurent.parse.chars_in", "laurent.parse.self_s",
    "laurent.substitute.self_s", "laurent.evaluate_at_one.self_s",
    "knots.parse_knot_expr.self_s", "knots.alexander_expr.self_s",
    "surgery.torres_specialize.self_s", "surgery.sw_specialized.self_s",
    "surgery.sw_prefactor.self_s",
    "fox.alexander_fox_oracle.calls", "fox.alexander_fox_oracle.self_s",
    "laurent.equal_up_to_units.self_s",
    "family.certificate_io.self_s",
    *(f"{module}.self_s" for module in tracer.MODULES),
    "trace.overhead_ratio",
]

_UNITS = {"self_s": "s", "chars_in": "chars", "chars_out": "chars",
          "stdout_bytes": "bytes", "overhead_ratio": "ratio"}


def unit_of(metric: str) -> str:
    return _UNITS.get(metric.rsplit(".", 1)[1], "count")


def is_count(metric: str) -> bool:
    return unit_of(metric) in ("count", "chars", "bytes")


def reference_time() -> float:
    """Seconds for a fixed loop of dict and int work: the host's current speed."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(REFERENCE_REPEATS):
            start = perf_counter()
            table: dict[int, int] = {}
            for i in range(REFERENCE_ITERATIONS):
                key = i * 7919 % 100003
                table[key] = table.get(key, 0) + i
            sum(table.values())
            best = min(best, perf_counter() - start)
    finally:
        gc.enable()
    return best


@dataclass
class Spawned:
    wall: float  # spawn to reap, seconds
    scaled: float  # wall at the nominal host speed
    rss_mb: float
    code: int
    timed_out: bool


@dataclass
class Pass:
    traced: bool
    wall: float = 0.0
    scaled: float = 0.0
    rss_mb: float = 0.0
    stdout_bytes: int = 0
    span_files: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)


class Runner:
    """Spawns ops in a pinned, cold child environment and checks their output.

    Children are started by launcher.py, so their ru_maxrss is their own.
    """

    def __init__(self, root: Path, work: Path):
        self.root, self.work = root, work
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
                   PYTHONNOUSERSITE="1", LC_ALL="C")
        self.stdout, self.stderr = work / "op.stdout", work / "op.stderr"
        self.verified: dict[str, str] = {}
        self.launcher = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)
        self.reference = reference_time()

    def close(self) -> None:
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.launcher.terminate()
            self.launcher.wait()
        self.launcher.stdout.close()

    def spawn(self, argv: list[str]) -> Spawned:
        """Run argv to completion, with a reference timing after it."""
        request = {"argv": argv, "stdout": str(self.stdout), "stderr": str(self.stderr),
                   "cwd": str(self.root), "timeout": OP_TIMEOUT_S}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        result = json.loads(reply)
        before, self.reference = self.reference, reference_time()
        scaled = result["wall"] * REFERENCE_NOMINAL_S * 2 / (before + self.reference)
        return Spawned(result["wall"], scaled, result["maxrss_kb"] / 1024,
                       result["code"], result["timed_out"])

    def setup_time(self) -> Spawned:
        return self.spawn([sys.executable, "-c", "import knotsurgery.cli"])

    def argv(self, op: workloads.Op, spans: Path | None) -> list[str]:
        py = sys.executable
        rest = op.argv if op.kind == "cli" else op.argv[1:]
        if spans is not None:
            return [py, str(HERE / "trace_child.py"), str(spans), op.kind, *rest]
        if op.kind == "cli":
            return [py, "-m", "knotsurgery", *rest]
        return [py, str(HERE / "crosscheck.py"), *rest]

    def run(self, op: workloads.Op, spans: Path | None = None):
        """Run one op: its timing, its stdout, and an error message or None."""
        spawned = self.spawn(self.argv(op, spans))
        data = self.stdout.read_bytes()
        if spawned.timed_out:
            error = f"timed out after {OP_TIMEOUT_S} s"
        elif spawned.code != op.exit_code:
            error = f"exit code {spawned.code}, expected {op.exit_code}"
        elif b"Traceback" in self.stderr.read_bytes():
            error = "traceback on stderr"
        else:
            error = self._check(op, data)
        return spawned, data, error

    def _check(self, op: workloads.Op, data: bytes) -> str | None:
        # the oracle reads each distinct output once; identical bytes need no re-check
        digest = hashlib.sha256(data).hexdigest()
        if self.verified.get(op.name) == digest:
            return None
        error = op.check(data.decode("utf-8"))
        if error is None:
            self.verified[op.name] = digest
        return error


def layer_values(totals: dict, stdout_bytes: int) -> dict:
    values = {}
    for metric in PER_LAYER[:-1]:
        span, what = metric.rsplit(".", 1)
        if metric == "cli.stdout_bytes":
            values[metric] = stdout_bytes
        elif span in tracer.MODULES:
            values[metric] = sum(t[1] for name, t in totals.items() if name.startswith(span + "."))
        else:
            calls, self_s, count = totals.get(span, (0, 0.0, 0))
            values[metric] = {"calls": calls, "self_s": self_s}.get(what, count)
    return values


def measure(runner: Runner, workload: workloads.Workload, seconds: float, trace: bool):
    passes: list[Pass] = []
    setup: list[Spawned] = []
    failures: list[str] = []
    attempted = failed = 0
    start = perf_counter()
    while len(passes) < (2 if trace else 3) or perf_counter() - start < seconds:
        index = len(passes)
        current = Pass(traced=trace and index % 2 == 1)
        if not trace:
            setup.extend(runner.setup_time() for _ in range(SETUP_SAMPLES_PER_PASS))
        shift = index % len(workload.ops)
        for j, op in enumerate(workload.ops[shift:] + workload.ops[:shift]):
            spans = runner.work / f"spans-{j}.json" if current.traced else None
            spawned, data, error = runner.run(op, spans)
            attempted += 1
            current.wall += spawned.wall
            current.scaled += spawned.scaled
            current.rss_mb = max(current.rss_mb, spawned.rss_mb)
            if op.kind == "cli":
                current.stdout_bytes += len(data)
            if spans is not None:
                current.span_files.append((str(spans), spawned.scaled / spawned.wall))
            if error:
                failed += 1
                failures.append(f"pass {index} op {op.name}: {error}")
        if current.traced:
            totals, errors = tracer.aggregate(current.span_files)
            failures.extend(f"pass {index}: {e}" for e in errors)
            current.layers = layer_values(totals, current.stdout_bytes)
        passes.append(current)
    return passes, setup, failures, attempted, failed


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def tail(values: list[float]) -> str:
    """The highest of p50..p99 that has at least ten samples beyond it."""
    for pct in (99, 95, 90, 75, 50):
        if len(values) * (100 - pct) / 100 >= 10:
            return f"p{pct}={statistics.quantiles(values, n=100)[pct - 1]:.6g}"
    return "none (fewer than 20 samples)"


def describe(name: str, values: list[float], unit: str) -> str:
    q1, q3 = quartiles(values)
    return (f"# {name}: median {statistics.median(values):.6g} {unit}, quartiles "
            f"{q1:.6g}..{q3:.6g}, tail {tail(values)}, n={len(values)}")


def end_to_end(passes, setup, failed, attempted):
    walls = [p.scaled for p in passes]
    rss = [p.rss_mb for p in passes]
    setup_s = [s.scaled for s in setup]
    for name, values, unit in (("setup_s", setup_s, "s"), ("wall_s", walls, "s"),
                               ("unscaled setup_s", [s.wall for s in setup], "s"),
                               ("unscaled wall_s", [p.wall for p in passes], "s"),
                               ("peak_rss_mb", rss, "MB")):
        print(describe(name, values, unit))
    print(f"# failed_frac: {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    values = {"setup_s": statistics.median(setup_s), "wall_s": statistics.median(walls),
              "peak_rss_mb": statistics.median(rss), "ok_frac": 1 - failed / attempted}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(passes, failures):
    traced = [p for p in passes if p.traced]
    untraced = [p.scaled for p in passes if not p.traced]
    metrics = {}
    for metric in PER_LAYER[:-1]:
        values = [p.layers[metric] for p in traced]
        if is_count(metric):
            if len(set(values)) != 1:
                failures.append(f"count {metric} differs between traced passes: {values}")
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[metric] = {"value": value, "unit": unit_of(metric)}
    ratio = statistics.median(p.scaled for p in traced) / statistics.median(untraced)
    metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    print(describe("traced wall_s", [p.scaled for p in traced], "s"))
    print(describe("untraced wall_s", untraced, "s"))
    return metrics


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: Path) -> str:
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (root / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "knotsurgery" / "__init__.py").is_file():
        print(f"error: {root} has no src/knotsurgery to benchmark", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    # a SIGTERM unwinds through the finally blocks: the launcher stops, the work dir goes
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return _run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def _run(args, root: Path, work: Path) -> int:
    workload = workloads.build(args.workload, args.seed, work)
    runner = Runner(root, work)
    try:
        return _measure_and_report(args, root, workload, runner)
    finally:
        runner.close()


def _measure_and_report(args, root: Path, workload: workloads.Workload, runner: Runner) -> int:
    # untimed warm-up: writes the .pyc files and the sweep's certificates
    runner.setup_time()
    _, data, error = runner.run(workload.ops[0])
    if error:
        print(f"error: warm-up op {workload.ops[0].name} failed: {error}", file=sys.stderr)
        return 1
    workload.prepare(data.decode("utf-8"))

    passes, setup, failures, attempted, failed = measure(runner, workload, args.seconds, bool(args.trace))
    print("# machine: " + json.dumps({
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
        "ram_gb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2),
        "commit": _commit(root)}))
    print("# run: " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes), "ops_per_pass": len(workload.ops),
        "sizes": workload.sizes}))
    if args.trace:
        metrics = per_layer(passes, failures)
    else:
        metrics = end_to_end(passes, setup, failed, attempted)
    for failure in failures[:20]:
        print(f"failure: {failure}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
