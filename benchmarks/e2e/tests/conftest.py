"""Path set-up for the benchmark's own tests.

Run with ``pytest benchmarks/e2e/tests`` from the repository root.  These
are not part of the tier-1 suite (``testpaths = ["tests"]``).
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
for path in (E2E, E2E.parents[1] / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
