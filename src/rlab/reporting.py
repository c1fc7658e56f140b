"""Deterministic CSV / JSON emission for reports.

CSV values use 17-significant-digit scientific notation so fixtures are
diff-stable across runs and platforms.
"""

from __future__ import annotations

import json
import re
import sys
from typing import Iterable, Sequence

__all__ = ["format_value", "emit_csv", "emit_json", "write_text"]

_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def format_value(x) -> str:
    """One CSV field.  A field with a comma, a double quote or a line break
    (a nested dict, say) is quoted, its quotes doubled, as RFC 4180 says;
    every other field is written bare."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "%.17g" % x
    text = str(x)
    # ints skip the search: leray-grid writes 80k of them at --max 200
    if isinstance(x, int) or not _NEEDS_QUOTES.search(text):
        return text
    return '"%s"' % text.replace('"', '""')


def emit_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = [",".join(map(format_value, header))]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def emit_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=True) + "\n"


def write_text(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
