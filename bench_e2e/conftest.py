"""Makes ``repro`` and ``bench_e2e`` importable for ``python -m pytest bench_e2e``.

These tests are not in the tier-1 ``testpaths``; run them by naming the
directory. They start real site-server processes on loopback sockets.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)
