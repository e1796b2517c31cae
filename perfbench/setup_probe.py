"""Set-up probe, run in a fresh interpreter by ``run.py``.

Times ``import cwnn.cli`` and then the first evaluation of a new 2-D
sinc mother, and prints both as one JSON line.

    python3 perfbench/setup_probe.py <path to the package's src directory>
"""

import json
import sys
import time

sys.path.insert(0, sys.argv[1])

t0 = time.perf_counter()
import cwnn.cli  # noqa: E402,F401
t1 = time.perf_counter()
from cwnn.wavelets import MotherWavelet  # noqa: E402

MotherWavelet.sinc(2).eval_mother([[0.5, 0.25]])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "mother_setup_s": t2 - t1}))
