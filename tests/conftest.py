"""CLI subprocesses run the same `riesz_lab` that pytest imported, also when
the package is found through the ``pythonpath`` setting rather than installed."""

from __future__ import annotations

import os
from pathlib import Path

import riesz_lab

_SRC = str(Path(riesz_lab.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
