"""Run one benchmark op in this interpreter with span tracing installed.

Usage: python trace_child.py SPANS_OUT cli ARG...
       python trace_child.py SPANS_OUT crosscheck PAIRS_JSON

The op's stdout and exit code are those of the untraced op; the spans are
written to SPANS_OUT when the op returns.
"""

from __future__ import annotations

import sys

import tracer


def main(argv) -> int:
    spans_out, kind, rest = argv[0], argv[1], argv[2:]
    recorder = tracer.Recorder()
    tracer.install(recorder)
    try:
        if kind == "cli":
            import knotsurgery.cli

            return knotsurgery.cli.main(rest)
        import crosscheck

        return recorder.wrap("bench.crosscheck", crosscheck.main)(rest)
    finally:
        sys.stdout.flush()
        recorder.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
