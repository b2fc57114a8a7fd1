"""Minimal validation against the shipped certificate schema.

The validator covers exactly what the schema file promises (required keys,
primitive types, the verdict enum, no stray fields) without pulling in an
external JSON-schema dependency.
"""

from __future__ import annotations

import json
from importlib import resources

_PRIMS = {
    "number": (int, float),
    "integer": int,
    "string": str,
    "object": dict,
    "array": list,
    "null": type(None),
}


def validate_certificate(doc: dict) -> list:
    """Return a list of violations (empty when the document conforms).

    Its users are the tests that hold the `certify` and `bifurcate` JSON
    documents to the shipped schema.
    """
    path = resources.files("slboundary").joinpath("schemas/certificate.schema.json")
    schema = json.loads(path.read_text())
    problems = []
    props = schema["properties"]
    for key in schema["required"]:
        if key not in doc:
            problems.append(f"missing required field {key!r}")
    for key, val in doc.items():
        if key not in props:
            problems.append(f"unexpected field {key!r}")
            continue
        spec = props[key]
        types = spec["type"] if isinstance(spec["type"], list) else [spec["type"]]
        ok = False
        for t in types:
            pt = _PRIMS[t]
            if isinstance(val, pt) and not (t == "number" and isinstance(val, bool)):
                ok = True
        if not ok:
            problems.append(f"field {key!r} has type {type(val).__name__}, wanted {types}")
        if key == "verdict" and "enum" in spec and val not in spec["enum"]:
            problems.append(f"verdict {val!r} not in enum")
        if key == "discrepancy_notes" and isinstance(val, list):
            for item in val:
                if not isinstance(item, str):
                    problems.append("discrepancy_notes must contain strings")
    return problems
