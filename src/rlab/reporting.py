"""Deterministic CSV / JSON emission for reports.

CSV values use 17-significant-digit scientific notation so fixtures are
diff-stable across runs and platforms.  JSON is strict: a non-finite float
is null, and a report's log_value and rel_err carry the size of a value.
"""

from __future__ import annotations

import json
import math
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


def _finite(obj):
    """obj with every non-finite float, in any list or dict, as None."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def emit_json(obj) -> str:
    return json.dumps(_finite(obj), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def write_text(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
