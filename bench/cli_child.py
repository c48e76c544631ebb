"""Run one `fourpoly` CLI command under the benchmark's tracer.

    python bench/cli_child.py SPANS_FILE COMMAND [ARGS...]

Installs the tracing wrappers inside this fresh interpreter, calls
`fourpoly.cli.main`, writes the spans and coefficient-cache counts to
SPANS_FILE and exits with the command's exit code.
"""
from __future__ import annotations

import sys

import tracing


def main(argv: list[str]) -> int:
    spans_file, args = argv[0], argv[1:]
    from fourpoly import cli, coeffs

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        code = tracer.span("cli.main", cli.main, args)
    finally:
        tracer.write(spans_file, cache=tracing.cache_counts(coeffs))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
