"""Command-line front end: one subcommand per pipeline stage.

All behavior is controlled by flags; there are no config files, environment
switches, or random choices, so every invocation is reproducible byte for
byte.  Exit codes: 0 success, 1 usage or parse error (including a
certificate that fails verification, a scan cap too small for the target,
and exponents outside 64 bits, and an input too large for the memory the
process can get), 2 internal inconsistency (a closed formula violated one
of its guarantees).

An exit-1 error writes no stdout byte, with one exception: `family` writes
each row as it is built, so running out of memory while building a row, like
an exit 2 raised there, can follow the rows before it, each written in full.
A failed stdout write (a full disk, a closed pipe or a closed stdout) is an
exit-1 error at any output size.

`app`, the process entry point, flushes stdout and stderr after main() returns
and then ends the process with os._exit, without interpreter teardown, so
atexit handlers that site customisation registers do not run.  main() itself
returns its exit code and never ends the process.
"""

from __future__ import annotations

import argparse
import os
import sys

from .family import (
    DEFAULT_P_CAP,
    UnboundednessCertificate,
    certify_unbounded,
    family_rows,
    verify_certificate,
    write_family,
)
from .knots import InternalInconsistencyError, alexander_expr, parse_knot_expr
from .laurent import (
    ExponentOverflowError,
    LaurentPoly,
    NotSymmetrizableError,
    _check_digits,
    _write_indent2,
    _write_text,
)
from .surgery import (
    LinkFamilyMember, SurgerySpec, _write_sw_text, sw_specialized, torres_specialize
)

__all__ = ["main", "app", "EXIT_OK", "EXIT_USAGE", "EXIT_INTERNAL"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTERNAL = 2


def _stream(doc, write_doc) -> None:
    # write_doc(doc, write) straight to stdout, then a newline, then a flush,
    # so a failed write of any output size is an OSError raised here.  This
    # is the one route to stdout, and an error writes no stdout byte: the one
    # error the document itself can raise while writing is raised by
    # _check_digits before the first write.  An iterator in doc goes
    # undrawn: its items are the caller's guarantee, as the family's rows
    # are, whose coefficients are +-1
    out = sys.stdout
    if out is None:  # fd 1 was closed when the interpreter started
        raise OSError("stdout is closed")
    _check_digits(doc)
    write = out.write
    write_doc(doc, write)
    write("\n")
    out.flush()


def _cmd_alexander(args) -> int:
    expr = parse_knot_expr(args.expr)
    poly = alexander_expr(expr, symmetrize=not args.no_symmetrize)
    _stream(poly, _write_indent2 if args.format == "json" else _write_text)
    return EXIT_OK


def _cmd_torres(args) -> int:
    poly = LaurentPoly.parse(args.poly)
    result = torres_specialize(poly, args.lk)
    _stream(result, _write_indent2 if args.format == "json" else _write_text)
    return EXIT_OK


def _cmd_sw(args) -> int:
    spec = SurgerySpec(args.n, LinkFamilyMember(args.p))
    delta_L = None if args.delta_l is None else LaurentPoly.parse(args.delta_l)
    result = sw_specialized(spec, delta_L)
    _stream(result.to_json_dict(), _write_indent2 if args.format == "json" else _write_sw_text)
    return EXIT_OK


def _cmd_family(args) -> int:
    # the rows are built as they are written, so one Delta is held at once
    rows = family_rows(args.n, args.pmin, args.pmax, args.pcap)
    _stream(rows, lambda doc, write: write_family(args.format, args.n, doc, write))
    return EXIT_OK


def _cmd_certify(args) -> int:
    if args.verify is not None:
        with open(args.verify, "r", encoding="utf-8") as handle:
            certificate = UnboundednessCertificate.from_json(handle.read())
        valid = verify_certificate(certificate)
        verdict = {
            "valid": valid,
            "target": certificate.target,
            "witness_count": len(certificate.witnesses),
        }
        _stream(verdict, _write_indent2)
        return EXIT_OK if valid else EXIT_USAGE
    certificate = certify_unbounded(args.target, p_cap=args.cap)
    _stream(certificate.to_json_dict(), _write_indent2)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotsurgery",
        description="Exact invariants for torus-knot link-surgery families.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    alexander = sub.add_parser(
        "alexander", help="Alexander polynomial of a knot expression"
    )
    alexander.add_argument(
        "expr", help="knot expression: unknot | torus(p,q) | mirror(E) | sum(E,E)"
    )
    alexander.add_argument(
        "--no-symmetrize",
        action="store_true",
        help="print the raw closed-formula representative instead",
    )
    alexander.add_argument("--format", choices=("text", "json"), default="text")
    alexander.set_defaults(func=_cmd_alexander)

    torres = sub.add_parser(
        "torres", help="specialize a link polynomial at x = 1 via the Torres condition"
    )
    torres.add_argument("--lk", type=int, required=True, help="linking number, >= 0")
    torres.add_argument("poly", help="component Alexander polynomial, e.g. 't - 1 + t^-1'")
    torres.add_argument("--format", choices=("text", "json"), default="text")
    torres.set_defaults(func=_cmd_torres)

    sw = sub.add_parser(
        "sw", help="Seiberg-Witten data of the surgery manifold X_p"
    )
    sw.add_argument("--p", type=int, required=True, help="family index, >= 1")
    sw.add_argument("--n", type=int, default=1, help="E(n) parameter (default 1)")
    sw.add_argument(
        "--delta-l",
        default=None,
        help="optional closed-form link polynomial in x and y for synthetic runs",
    )
    sw.add_argument("--format", choices=("text", "json"), default="text")
    sw.set_defaults(func=_cmd_sw)

    family = sub.add_parser(
        "family", help="per-index report over a range of the family"
    )
    family.add_argument("--n", type=int, default=1, help="E(n) parameter (default 1)")
    family.add_argument("--pmin", type=int, required=True)
    family.add_argument("--pmax", type=int, required=True)
    family.add_argument(
        "--pcap", type=int, default=DEFAULT_P_CAP, help=f"range cap (default {DEFAULT_P_CAP})"
    )
    family.add_argument("--format", choices=("text", "json", "csv"), default="text")
    family.set_defaults(func=_cmd_family)

    certify = sub.add_parser(
        "certify", help="emit or verify an unboundedness certificate"
    )
    group = certify.add_mutually_exclusive_group(required=True)
    group.add_argument("--target", type=int, help="lower bound the witnesses must exceed")
    group.add_argument("--verify", metavar="FILE", help="re-check a certificate file")
    certify.add_argument(
        "--cap", type=int, default=DEFAULT_P_CAP, help=f"scan cap (default {DEFAULT_P_CAP})"
    )
    certify.set_defaults(func=_cmd_certify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on a usage error, which the published
        # contract reserves for internal inconsistencies, and with 0 after --help
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    # parse errors and an exhausted scan cap are ValueErrors, and every
    # exponent comes from user input
    except (ValueError, OSError, ExponentOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        # an input whose result cannot be held, such as a torus knot with
        # billions of terms; its exponents can still pass the 64-bit rule
        print("error: out of memory: the input is too large to compute", file=sys.stderr)
        return EXIT_USAGE
    except (NotSymmetrizableError, InternalInconsistencyError) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def app() -> None:
    code = main()
    try:
        # argparse writes --help past _stream, and a family that fails
        # mid-stream leaves its last rows in the buffer
        sys.stdout.flush()
    except (AttributeError, OSError) as exc:
        # sys.stdout is None when fd 1 was closed at start-up.  A failure
        # that main() already reported gets no second line
        if code == EXIT_OK:
            error = exc if isinstance(exc, OSError) else "stdout is closed"
            print(f"error: {error}", file=sys.stderr)
            code = EXIT_USAGE
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)
