"""Set-up probe: import a workload and build its inputs, then exit.

``setup_s`` is the wall time of this script in a fresh interpreter,
measured by the parent from launch to exit::

    python3 repobench/setup_probe.py chaos_frontier
"""

from __future__ import annotations

import importlib
import sys

if __name__ == "__main__":
    import harness
    harness.require_program()
    importlib.import_module(sys.argv[1]).setup()
