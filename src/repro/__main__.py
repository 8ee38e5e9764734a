"""``python -m repro``: package banner and quick pointers."""

from __future__ import annotations

import sys

from . import __version__
from .configs import ALL_SCHEMES


def main():
    print(f"repro {__version__} — InvisiSpec (MICRO 2018) reproduction")
    print()
    print("Processor configurations:", ", ".join(s.value for s in ALL_SCHEMES))
    print()
    print("Entry points:")
    print("  python -m repro.experiments <figure4|figure5|...|all> [--quick]")
    print("  python examples/quickstart.py")
    print("  python examples/spectre_attack.py")
    print("  pytest tests/")
    print("  python3 perfbench/run.py --workload spec-base")
    return 0


if __name__ == "__main__":
    sys.exit(main())
