"""Puts the checkout's ``src/`` first on the import path, as the runner does."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
