"""Time one set-up in a fresh interpreter: import, ShockModel.from_spec, build_bounds.

    python3 benchmark/setup_probe.py <module to import> <JSON list of model specs>

Prints {"setup_s": ...} measured from the first statement of the script.
"""

import time

T0 = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
importlib.import_module(sys.argv[1])
sc = importlib.import_module("shockcopula")
families = [sc.build_bounds(sc.ShockModel.from_spec(spec)) for spec in json.loads(sys.argv[2])]
elapsed = time.perf_counter() - T0
print(json.dumps({"setup_s": elapsed, "bound_families": len(families)}))
