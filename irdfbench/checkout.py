"""Locate the checkout the benchmark lives in and put its sources first on
the import path, so the package measured is the one beside the benchmark."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_sources() -> None:
    """Import irdf from ``<checkout>/src``; exit with code 2 if it is absent."""
    if not (SRC / "irdf" / "__init__.py").is_file():
        sys.stderr.write(f"irdfbench: no irdf sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
