"""Canonical serialization for run reports.

Reports are byte-deterministic: JSON is emitted with sorted keys, fixed
indentation and ASCII escapes, exact rationals carry decimal-string
numerator/denominator plus a rounded decimal rendering, and nothing
embeds a timestamp.  Identical configs and seeds therefore reproduce
identical files.
"""

import csv
import dataclasses
import json
import sys
from fractions import Fraction

from .exact import dec_sci
from .words import WordExpr, format_word

VERSION = "abset 0.1.0"

# stage rationals overflow the default int-to-str guard
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(2_000_000)


def jsonable(obj):
    """Recursively convert report objects to JSON-serializable values; a
    rational becomes num/den as decimal strings plus a fixed-width decimal
    rendering.  A stage's big denominator recurs across its rationals and
    str() of an int is quadratic in its length, so each distinct integer
    is made decimal once per call; the memo does not outlive the call."""
    digits = {}

    def convert(obj):
        if isinstance(obj, Fraction):
            for n in (obj.numerator, obj.denominator):
                if n not in digits:
                    digits[n] = str(n)
            return {"num": digits[obj.numerator], "den": digits[obj.denominator],
                    "dec": dec_sci(obj)}
        if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str, float)):
            return obj
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return {f.name: convert(getattr(obj, f.name))
                    for f in dataclasses.fields(obj)}
        if isinstance(obj, dict):
            return {str(k): convert(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple, set, frozenset)):
            seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
            return [convert(v) for v in seq]
        if isinstance(obj, WordExpr):
            return format_word(obj)
        return str(obj)

    return convert(obj)


def canonical_json(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, indent=2,
                      ensure_ascii=True) + "\n"


def write_json(path: str, obj) -> None:
    """Serialize first, so a report that cannot be rendered leaves no
    file behind."""
    text = canonical_json(obj)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def cell(value) -> str:
    """One CSV cell: exact rationals as num/den, everything else as str."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if value is None:
        return ""
    return str(value)
