"""Fox-calculus cross-check of the torus-knot closed formula, through the public API.

Usage: python crosscheck.py PAIRS_JSON

PAIRS_JSON holds a list of coprime [p, q] pairs.  For each pair one line
"p q agree fox_digest closed_digest" goes to stdout, where agree is 1 when
equal_up_to_units accepts the two polynomials.
"""

from __future__ import annotations

import json
import sys

import knotsurgery
from oracle import poly_digest


def _digest(poly) -> str:
    return poly_digest((exps[0], coeff) for exps, coeff in poly.terms())


def crosscheck(pairs) -> str:
    lines = []
    for p, q in pairs:
        fox = knotsurgery.alexander_fox_oracle(
            knotsurgery.GroupPresentation.torus_knot(p, q), {"x": q, "y": p}
        )
        closed = knotsurgery.alexander_torus(knotsurgery.TorusKnotSpec(p, q))
        agree = int(closed.equal_up_to_units(fox))
        lines.append(f"{p} {q} {agree} {_digest(fox)} {_digest(closed)}\n")
    return "".join(lines)


def main(argv) -> int:
    with open(argv[0], encoding="utf-8") as handle:
        pairs = json.load(handle)
    sys.stdout.write(crosscheck(pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
