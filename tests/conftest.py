"""Make the package importable when the suite runs from a fresh checkout.

This checkout's ``src`` is appended to ``sys.path``, so it comes after every
``PYTHONPATH`` entry: ``PYTHONPATH=<tree> python -m pytest`` tests the
package in ``<tree>``, and plain ``python -m pytest`` tests this checkout.
"""

import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
if SRC not in sys.path:
    sys.path.append(SRC)
