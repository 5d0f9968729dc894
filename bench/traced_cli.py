"""Run `eameval <args>` in this process with every layer traced.

Usage: python bench/traced_cli.py SPANS_FILE OP -- evaluate --data ...

The import of eameval.cli is recorded as the span `cli.import`; the spans
are written to SPANS_FILE when the command ends.
"""

from __future__ import annotations

import sys
import time

from tracer import Tracer


def main(argv: list[str]) -> int:
    spans_file, op, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: traced_cli.py SPANS_FILE OP -- ARGS...")
    tracer = Tracer()
    tracer.op = op
    start = time.perf_counter()
    import eameval.cli

    tracer.span("cli.import", start, time.perf_counter())
    tracer.install()
    try:
        return eameval.cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
