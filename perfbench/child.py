"""Traced stand-in for `python -m npcode`, used by the cli workload.

Usage: python child.py SPANS_FILE -- VERB [ARGS...]

Times `import npcode.cli` as the span `cli.import`, installs the same
wrappers as the in-process traced run, runs `npcode.cli.main` inside a
`cli.<verb>` span, and writes the spans to SPANS_FILE as it exits, also
when main raises.
"""

import sys

from tracer import Tracer, write_spans


def main() -> int:
    spans_file, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        print(__doc__, file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.active = True
    span = tracer.begin("cli.import")
    import npcode.cli

    tracer.end(span)
    tracer.install()
    span = tracer.begin(f"cli.{argv[0]}")
    try:
        return npcode.cli.main(argv)
    finally:
        tracer.end(span)
        tracer.active = False
        write_spans(spans_file, [tracer.spans])


if __name__ == "__main__":
    sys.exit(main())
