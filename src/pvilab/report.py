"""Deterministic JSON reports for the command-line front end.

Serialisation rules: keys sorted, floats rendered as %.15e, complex numbers
as "a+bi" strings, rationals as "p/q" strings.  A report parsed back from
its own serialisation re-serialises byte-identically (float -> %.15e text ->
float is idempotent after the first round trip).  Timings are carried in a
separate field excluded from the determinism hash.
"""

from __future__ import annotations

import hashlib
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
    t = text.strip().replace(" ", "")
    if t in ("inf", "+inf"):
        return complex(math.inf, 0.0)
    if t.endswith("j"):
        t = t[:-1] + "i"
    if not t.endswith("i"):
        return complex(float(t), 0.0)
    body = t[:-1]
    # split at the sign of the imaginary part (not inside an exponent)
    for k in range(len(body) - 1, 0, -1):
        c = body[k]
        if c in "+-" and body[k - 1] not in "eE":
            re = float(body[:k]) if body[:k] not in ("", "+", "-") else 0.0
            imtxt = body[k:]
            im = 1.0 if imtxt == "+" else -1.0 if imtxt == "-" else float(imtxt)
            return complex(re, im)
    return complex(0.0, float(body) if body not in ("", "+", "-") else 1.0)


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
    if hasattr(obj, "__dict__"):
        return {k: to_jsonable(v) for k, v in vars(obj).items()}
    return str(obj)


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

    @classmethod
    def from_json(cls, text: str) -> "Report":
        raw = json.loads(text)
        return cls(
            command=raw["command"],
            inputs=raw["inputs"],
            results=raw["results"],
            diagnostics=raw.get("diagnostics", {}),
            version=raw.get("version", ""),
        )

    def determinism_hash(self) -> str:
        """Hash of the payload with timing diagnostics stripped."""
        payload = json.loads(self.to_json())
        diag = payload.get("diagnostics", {})
        diag.pop("timings", None)
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()
