"""One set-up sample in a fresh interpreter.

Usage: ``python setup_probe.py INPUTS_JSON``.  Imports ``lqspectra``, then
parses and validates every spec of the workload, and prints one JSON line
``{"import_s": ...}`` once ready.  The caller times the interpreter from
start to that line.
"""

import json
import sys
import time

start = time.perf_counter()
import lqspectra  # noqa: E402,F401

import_s = time.perf_counter() - start

from specs import build_spec  # noqa: E402

with open(sys.argv[1], encoding="utf-8") as fh:
    inputs = json.load(fh)
for entry in inputs["specs"].values():
    build_spec(entry)
print(json.dumps({"import_s": import_s}), flush=True)
