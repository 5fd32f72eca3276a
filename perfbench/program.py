"""The program under test: ``ehcr`` from the ``src`` directory of this checkout.

Importing this module puts ``src`` first on ``sys.path`` and refuses an
``ehcr`` found anywhere else, so the benchmark always measures the
checkout it sits in.  Raises ImportError when ``src/ehcr`` is missing.
"""
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import ehcr  # noqa: E402

if Path(ehcr.__file__).resolve().parent != SRC / "ehcr":
    raise ImportError(f"ehcr was imported from {ehcr.__file__}, not from {SRC}")

from ehcr import analysis, battery, optimizer, sim  # noqa: E402,F401
