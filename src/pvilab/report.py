"""Deterministic JSON reports for the command-line front end.

Serialisation rules: keys sorted, floats rendered as %.15e, complex numbers
as "a+bi" strings, rationals as "p/q" strings; any other value is a
TypeError.  A report parsed back from its own serialisation
(``Report(**json.loads(text))``) re-serialises byte-identically.  Wall
times are carried in ``diagnostics.timings``, the one field that differs
between two runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any


def format_float(x: float) -> str:
    return "%.15e" % x


def format_complex(z: complex) -> str:
    re, im = z.real, z.imag
    if math.isinf(re) or math.isinf(im):
        return "inf"
    sign = "+" if im >= 0 or math.isnan(im) else "-"
    return f"{format_float(re)}{sign}{format_float(abs(im))}i"


def parse_complex(text: str) -> complex:
    """Text such as "a+bi", "a+bj" or "-i", spaces allowed, as a complex."""
    t = text.strip().replace(" ", "")
    if t.endswith("i"):
        t = t[:-1] + "j"
    return complex(t)


def parse_rational_or_float(text: str):
    """CLI number parsing: "p/q" or an integer -> Fraction, "a+bi" -> complex,
    else float."""
    t = text.strip()
    if "/" in t or t.lstrip("+-").isdigit():
        return Fraction(t)
    if "i" in t or "j" in t:
        return parse_complex(t)
    return float(t)


def to_jsonable(obj: Any) -> Any:
    """Recursively convert values to the deterministic wire representation."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, complex):
        return format_complex(obj)
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    # str() of an arbitrary object may carry its memory address, which would
    # make the report differ from run to run
    raise TypeError(f"a report cannot hold a {type(obj).__name__}")


@dataclass
class Report:
    """Envelope for one CLI invocation."""

    command: str
    inputs: dict
    results: Any
    diagnostics: dict = field(default_factory=dict)
    version: str = ""

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "inputs": to_jsonable(self.inputs),
            "results": to_jsonable(self.results),
            "diagnostics": to_jsonable(self.diagnostics),
            "version": self.version,
        }
        return json.dumps(payload, sort_keys=True, indent=2)
