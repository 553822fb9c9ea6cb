"""Import paths for the benchmark's self-tests.

Run them from the repository root with ``python3 -m pytest
perfbench/tests``; they are not part of the repository's own suite.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
