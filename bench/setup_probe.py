"""What every CLI run pays before any work: a fresh interpreter imports the
package's command line and loads and validates each curve file.

Usage: python3 setup_probe.py SRC CURVE.json [CURVE.json ...]
"""

import sys

sys.path.insert(0, sys.argv[1])
from outerbilliard import cli  # noqa: E402

for path in sys.argv[2:]:
    cli.load_curve(path)
