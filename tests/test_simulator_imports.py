"""The simulator imports only the simulator.

A process that runs cells (``repro.runner``) must not pay for the
reliability package's process pool, journals and supervisor, nor for
``multiprocessing`` and ``concurrent.futures`` that they import.  A
fresh interpreter is used, since this test session has long since
imported all of them.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

PROBE = """
import sys
sys.path.insert(0, {src!r})
import repro.runner
print("\\n".join(sorted(sys.modules)))
"""

FORBIDDEN = ("repro.reliability", "multiprocessing", "concurrent.futures")


def test_importing_the_runner_loads_no_pool_machinery():
    loaded = subprocess.run(
        [sys.executable, "-c", PROBE.format(src=SRC)],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "repro.runner" in loaded
    leaked = [
        name for name in loaded
        if any(
            name == prefix or name.startswith(prefix + ".")
            for prefix in FORBIDDEN
        )
    ]
    assert not leaked, f"import repro.runner loaded {leaked}"
