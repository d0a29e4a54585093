#!/usr/bin/env python3
"""Set-up as a fresh interpreter pays it: import rotsurf, then load and
validate the given configs and build their families and surfaces.

    python3 bench/setup_probe.py CONFIG.json [CONFIG.json ...]

Prints one JSON line with the import and load times measured inside.
"""

import json
import os
import sys
import time

start = time.perf_counter()
_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(_HERE), "src"), _HERE]

import rotsurf.cli  # noqa: E402,F401  (imports every rotsurf module)

imported = time.perf_counter()

import workloads  # noqa: E402

workloads.setup(sys.argv[1:])
print(json.dumps({"import_s": imported - start,
                  "load_s": time.perf_counter() - imported}))
