"""Run a dump script against a checkout's own sources.

The compare tools run the same script in two checkouts and compare the JSON
each prints.
"""

import json
import os
import subprocess
import sys
from pathlib import Path


def dump(checkout: Path, script: str, *args) -> dict:
    """The JSON that ``python -c script args...`` prints, run in checkout
    with its src/ on the path."""
    # The child runs in the checkout, so a relative path must not be
    # resolved a second time against it.
    checkout = checkout.resolve()
    out = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                         cwd=checkout,
                         env={**os.environ, "PYTHONPATH": str(checkout / "src")},
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)
