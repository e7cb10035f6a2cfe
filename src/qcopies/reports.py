"""Tiny CSV/text helpers shared by the report emitters.

CSV cells print floats with six significant digits; JSON reports keep full
precision through the standard library encoder.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np


def format_cell(value) -> str:
    if isinstance(value, (int, np.integer)):  # bool too: True prints 1
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.6g}"
    return str(value)


def csv_text(header, rows) -> str:
    lines = [",".join(header)]
    lines += [",".join(format_cell(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def write_text(path, text: str) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(text)
