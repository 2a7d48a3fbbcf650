"""The four benchmark workloads, each a fixed list of ops built from a seed.

The seed picks concrete inputs inside a fixed size class, so a pass costs
about the same on every seed.  Each op knows its expected exit code and a
check of its stdout against the independent oracle; expected values are
computed here, once per run, outside the timed region.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle


@dataclass
class Op:
    """One invocation: a CLI argv, or ("crosscheck", pairs file) for crosscheck.py."""

    name: str
    argv: list[str]
    exit_code: int
    check: Callable[[str], str | None]
    kind: str = "cli"


@dataclass
class Workload:
    ops: list[Op]
    sizes: dict
    # receives the warm-up run's stdout of ops[0] before any op is timed
    prepare: Callable[[str], None] = field(default=lambda text: None)


# Recomputing the first k witness bounds costs about k ** 2.8 at the seed
# commit (measured for k near 400), so a rejection at fraction f of the list
# costs f ** 2.8 of a full verify.  The list grows from _SWEEP_WITNESSES as f
# falls, to keep a pass's work, certify + verify + f ** 2.8 * verify, the
# same on every seed.
_VERIFY_COST_EXPONENT = 2.8
_SWEEP_WITNESSES = 340


def _sweep(rng: random.Random, work: Path) -> Workload:
    fraction = rng.uniform(0.9, 1.0)
    scale = (3 / (2 + fraction ** _VERIFY_COST_EXPONENT)) ** (1 / _VERIFY_COST_EXPONENT)
    count = round(_SWEEP_WITNESSES * scale)
    target = 2 * count - 2 - rng.randrange(2)  # both give `count` witnesses
    count = len(oracle.certificate_witnesses(target))
    tampered_index = max(count - count // 10, min(count - 1, int(fraction * count)))
    bump = rng.choice((-2, 2))
    cert, tampered = work / "cert.json", work / "tampered.json"

    def prepare(text: str) -> None:
        cert.write_text(text, encoding="utf-8")
        data = json.loads(text)
        data["witnesses"][tampered_index]["lower_bound"] += bump
        tampered.write_text(json.dumps(data, indent=2), encoding="utf-8")

    ops = [
        Op("certify", ["certify", "--target", str(target)], 0,
           lambda out: oracle.check_certificate(out, target)),
        Op("verify", ["certify", "--verify", str(cert)], 0,
           lambda out: oracle.check_verify(out, target, count, True)),
        Op("verify-tampered", ["certify", "--verify", str(tampered)], 1,
           lambda out: oracle.check_verify(out, target, count, False)),
    ]
    sizes = {"target": target, "witnesses": count,
             "tampered_witness": tampered_index + 1}
    return Workload(ops, sizes, prepare)


def _report(rng: random.Random, work: Path) -> Workload:
    p_max = rng.randrange(271, 273)
    n = rng.randrange(1, 4)
    deltas = oracle.family_deltas(p_max)
    base = ["family", "--n", str(n), "--pmin", "1", "--pmax", str(p_max), "--format"]
    ops = [
        Op("family-json", base + ["json"], 0,
           lambda out: oracle.check_family_json(out, n, deltas)),
        Op("family-csv", base + ["csv"], 0,
           lambda out: oracle.check_family_csv(out, deltas)),
    ]
    sizes = {"p_max": p_max, "n": n, "delta_terms": sum(map(len, deltas))}
    return Workload(ops, sizes)


def _random_link_poly(rng: random.Random, terms: int) -> dict:
    poly: dict = {}
    while len(poly) < terms:
        key = (rng.randrange(-20, 21), rng.randrange(-20, 21))
        poly[key] = rng.choice((-1, 1)) * rng.randrange(1, 10)
    return poly


def _oneshot(rng: random.Random, work: Path) -> Workload:
    t_names, y_names = ("t",), ("y",)
    q = rng.randrange(40001, 40201, 2)
    two_q = oracle.torus_delta(2, q)

    a = rng.randrange(701, 721, 2)
    b = rng.choice([x for x in range(601, 621) if x % 3])
    left, right = oracle.torus_delta(2, a), oracle.torus_delta(3, b)
    connected = oracle.convolve(left, right)

    r = 100
    delta_r = oracle.torus_delta(r, r + 1)
    lk_small = rng.randrange(2900, 3000)
    torres_small = oracle.geometric_times(delta_r, lk_small)

    lk_big = rng.randrange(100000, 100500)
    geometric = {e: 1 for e in range(lk_big)}

    sw_p, sw_n = rng.randrange(2, 60), rng.randrange(12, 15)
    link = _random_link_poly(rng, 400)
    doubled = {(2 * x, 2 * y): c for (x, y), c in link.items()}
    prefactor = {(e, 0): c for e, c in oracle.binomial_power(sw_n - 1).items()}
    sw_full = oracle.convolve(prefactor, doubled)
    at_one: dict[int, int] = {}
    for (_, y), c in doubled.items():
        at_one[y] = at_one.get(y, 0) + c
    sw_bound = sum(1 for c in at_one.values() if c)

    ops = [
        Op("alexander-torus-2-q", ["alexander", f"torus(2,{q})"], 0,
           lambda out: oracle.check_poly_text(out, two_q, t_names)),
        Op("alexander-sum", ["alexander", f"sum(torus(2,{a}),mirror(torus({b},3)))"], 0,
           lambda out: oracle.check_poly_text(out, connected, t_names)),
        Op("torres-text-poly", ["torres", "--lk", str(lk_small), oracle.format_poly(delta_r, t_names)], 0,
           lambda out: oracle.check_poly_text(out, torres_small, t_names)),
        Op("torres-one-text", ["torres", "--lk", str(lk_big), "1"], 0,
           lambda out: oracle.check_poly_text(out, geometric, y_names)),
        Op("torres-one-json", ["torres", "--lk", str(lk_big), "--format", "json", "1"], 0,
           lambda out: oracle.check_poly_json(out, geometric, y_names)),
        # --delta-l=TEXT: the text may start with "-", which argparse reads as a flag
        Op("sw", ["sw", "--p", str(sw_p), "--n", str(sw_n), "--format", "json",
                  "--delta-l=" + oracle.format_poly(link, ("x", "y"))], 0,
           lambda out: oracle.check_sw_json(out, sw_p, sw_n, sw_full, sw_bound)),
    ]
    sizes = {"torus_2_q": q, "sum": [a, b], "sum_pairs": len(left) * len(right),
             "torres_lk": [lk_small, lk_big], "sw": [sw_p, sw_n, len(link)]}
    return Workload(ops, sizes)


def _coprime_pairs(rng: random.Random, count: int) -> list[list[int]]:
    """Coprime p < q with 15000 <= pq <= 20000 and a cost in a narrow band.

    A pair's cost tracks the term count of its Delta plus q (the closed
    formula's first quotient has 2q terms); that sum ranges over 10x for
    these pq, so pairs outside 5000..5600 are redrawn and the op costs about
    the same on every seed.
    """
    pairs = []
    while len(pairs) < count:
        p = rng.randrange(5, 120)
        q = rng.randrange(-(-15000 // p), 20000 // p + 1)
        if q > p and math.gcd(p, q) == 1 and 5000 <= len(oracle.torus_delta(p, q)) + q <= 5600:
            pairs.append([p, q])
    return pairs


def _crosscheck(rng: random.Random, work: Path) -> Workload:
    f_max = rng.randrange(330, 334)
    family = [[p, p + 1] for p in range(1, f_max + 1)]
    pairs = _coprime_pairs(rng, 12)
    ops = []
    for name, chosen in (("fox-family", family), ("fox-pairs", pairs)):
        path = work / f"{name}.json"
        path.write_text(json.dumps(chosen), encoding="utf-8")
        want = oracle.crosscheck_lines(chosen)
        ops.append(Op(name, ["crosscheck", str(path)], 0,
                      lambda out, want=want: oracle.check_crosscheck(out, want), kind="crosscheck"))
    sizes = {"family_p_max": f_max, "pairs": pairs}
    return Workload(ops, sizes)


WORKLOADS = {"sweep": _sweep, "report": _report, "oneshot": _oneshot, "crosscheck": _crosscheck}


def build(name: str, seed: int, work: Path) -> Workload:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), work)
