#!/usr/bin/env python
"""The full attack-vs-defense matrix of the paper's threat model.

Every registered attack PoC (``repro.security.POCS``: Spectre v1, the
cross-core LLC setting, Speculative Store Bypass, a Meltdown-style
exception attack and the Table I exception family) against the five
processor configurations of Table V.  The scoping matches the paper's
Table II: the Spectre-model defenses block only branch-shadow attacks;
the Futuristic defenses block everything.

Run:  python examples/attack_matrix.py
"""

from repro import ProcessorConfig
from repro.configs import ALL_SCHEMES
from repro.security import POCS


def main():
    print(f"{'attack':24}" + "".join(f"{s.value:>10}" for s in ALL_SCHEMES))
    for poc in POCS:
        cells = []
        for scheme in ALL_SCHEMES:
            _latencies, recovered = poc.run(ProcessorConfig(scheme=scheme))
            cells.append("LEAKED" if recovered == poc.secret else "safe")
        print(f"{poc.name:24}" + "".join(f"{c:>10}" for c in cells))
    print("\nExpected: Base leaks everything; Fe-Sp/IS-Sp block only the")
    print("branch-speculation attacks (spectre_v1, cross_core); Fe-Fu/IS-Fu")
    print(f"block all {len(POCS)}.")


if __name__ == "__main__":
    main()
