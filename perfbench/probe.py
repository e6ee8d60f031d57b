"""Set-up probe: a fresh interpreter imports numpy, then ``surplus_lab.cli``.

Prints the two import times and the clock reading once both are done; the
caller subtracts its own reading from before it started this process.
``time.perf_counter`` reads the system-wide monotonic clock on Linux, so
the two readings compare.
"""

import json
import sys
import time

t0 = time.perf_counter()
import numpy  # noqa: E402

t1 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import surplus_lab.cli  # noqa: E402

t2 = time.perf_counter()
print(json.dumps({"numpy_import_s": t1 - t0, "surplus_lab_import_s": t2 - t1, "done": t2,
                  "module": surplus_lab.cli.__file__, "numpy": numpy.__version__}))
