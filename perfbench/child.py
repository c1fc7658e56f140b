"""Fresh-process set-up of a workload.

    child.py <workload> <seed> <tiny>

Times `import rlab`, then building the workload's geometries and duals, and
prints {"import_s": ..., "construct_s": ...}.
"""

import sys
import time

t0 = time.perf_counter()
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import rlab  # noqa: E402,F401

import_s = time.perf_counter() - t0


def main(argv):
    import json
    from workloads import WORKLOADS
    make_inputs, setup, _ = WORKLOADS[argv[0]]
    inputs = make_inputs(int(argv[1]), argv[2] == "1")
    t1 = time.perf_counter()
    setup(inputs)
    print(json.dumps({"import_s": import_s,
                      "construct_s": time.perf_counter() - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
