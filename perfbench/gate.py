"""Correctness gate: every job's stdout against the stored reference.

The parsers here are the benchmark's own, so a defect in the program's
emitter cannot hide behind the same defect in its parser.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
FLOAT_RTOL = 1e-12


def parse_stdout(text: str) -> dict:
    """A CSV table as {"schema", "columns", "rows"}, or verify lines as
    {"checks": {name: cases}, "failed": [names]}."""
    lines = [ln for ln in text.splitlines() if ln]
    if lines and lines[0].startswith("# ") and " columns=" in lines[0]:
        schema = lines[0][2:].split(" ", 1)[0]
        columns = [c.split(":") for c in lines[0].split("columns=", 1)[1].split(",")]
        rows = [ln.split(",") for ln in lines[2:]]
        if any(len(r) != len(columns) for r in rows):
            raise ValueError("row width does not match the schema")
        return {"schema": schema, "columns": columns, "rows": rows}
    checks: dict[str, int] = {}
    failed = []
    for ln in lines:
        verdict, name, cases = ln.split()[:3]
        if verdict not in ("PASS", "FAIL") or not cases.startswith("cases="):
            raise ValueError(f"unexpected verify line {ln!r}")
        checks[name] = int(cases[len("cases="):])
        if verdict == "FAIL":
            failed.append(name)
    return {"checks": checks, "failed": failed}


def _cell_matches(kind: str, got: str, want: str) -> bool:
    if kind == "float":
        g, w = float(got), float(want)
        return math.isfinite(g) and abs(g - w) <= FLOAT_RTOL * abs(w)
    if kind == "int":
        return int(got) == int(want)
    return got == want


def compare(parsed: dict, want: dict) -> str | None:
    """None when the output matches the reference, else the first reason."""
    if "checks" in want:
        if parsed.get("failed"):
            return f"FAIL lines: {parsed['failed']}"
        if parsed.get("checks") != want["checks"]:
            return f"verify checks/cases differ: {parsed.get('checks')}"
        return None
    if parsed.get("schema") != want["schema"] or parsed["columns"] != want["columns"]:
        return "schema differs"
    if len(parsed["rows"]) != len(want["rows"]):
        return f"{len(parsed['rows'])} rows, expected {len(want['rows'])}"
    for got_row, want_row in zip(parsed["rows"], want["rows"]):
        for (name, kind), got, ref in zip(want["columns"], got_row, want_row):
            if not _cell_matches(kind, got, ref):
                return f"column {name}: {got} != {ref}"
    return None


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())
