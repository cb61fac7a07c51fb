"""Traced CLI entry point for the ``cli`` workload.

Usage: ``python cli_shim.py SPANS_JSON <lqspectra cli arguments>``.  Imports
the package, installs the tracer, runs ``lqspectra.cli.main`` and writes the
spans (the import first, as a span of layer ``import``) to SPANS_JSON.
Exits with the CLI's exit code.
"""

import json
import sys
import time

start = time.perf_counter()
import lqspectra.cli  # noqa: E402

import_end = time.perf_counter()

from tracing import Tracer  # noqa: E402

tracer = Tracer()
tracer.spans.append(["import lqspectra", "import", start, import_end, -1, 0])
tracer.install()
try:
    code = lqspectra.cli.main(sys.argv[2:])
finally:
    tracer.uninstall()
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
sys.exit(code)
