"""One timed set-up round of a workload, in a fresh interpreter: import the
package and generate the workload's inputs.

    python3 perfbench/prepare.py <workload> <seed> <input-file-prefix>
"""

import sys

import workloads
from spans import NullTracer

if __name__ == "__main__":
    name, seed, prefix = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.WORKLOADS[name](seed, prefix).prepare(NullTracer())
