#!/usr/bin/env python
"""Mini Figure 4: one workload across all five Table V configurations.

Run:  python examples/fence_comparison.py [workload] [instructions]
"""

import sys

from repro.configs import ALL_SCHEMES, ConsistencyModel
from repro.experiments import figures
from repro.experiments.common import normalized


def main():
    workload = sys.argv[1] if len(sys.argv) > 1 else "libquantum"
    instructions = int(sys.argv[2]) if len(sys.argv) > 2 else 5000
    print(f"running {workload} under the five configurations "
          f"({instructions} measured instructions each)...\n")
    matrix = figures.run_matrix(
        "spec", apps=[workload], instructions=instructions, include_rc=False
    )
    results = matrix[ConsistencyModel.TSO][workload]
    exec_norm = normalized(results, lambda r: r.cycles)
    traffic_norm = normalized(results, lambda r: r.traffic_bytes)

    print(f"{'config':8}{'exec time':>12}{'traffic':>12}   bar")
    for scheme in ALL_SCHEMES:
        bar = "#" * int(exec_norm[scheme] * 12)
        print(
            f"{scheme.value:8}{exec_norm[scheme]:>12.2f}"
            f"{traffic_norm[scheme]:>12.2f}   {bar}"
        )
    print("\nFences are the expensive way to be safe; InvisiSpec keeps")
    print("speculation and pays mostly in network traffic.")


if __name__ == "__main__":
    main()
