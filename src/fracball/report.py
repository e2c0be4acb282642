"""Machine-readable reports: JSON documents and row-oriented CSV tables.

JSON numbers are rendered with 17 significant digits so payloads are
byte-identical across runs; every estimate travels with its `err` field.
"""

import csv
import hashlib
import io
import os

from .quadrature import ValueWithError

SCHEMA_VERSION = "1.1"


def fmt_float(x):
    """17-significant-digit decimal rendering (round-trips doubles)."""
    x = float(x)
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return format(x, ".17g")


def _render(obj, out):
    if isinstance(obj, ValueWithError):
        _render({"value": obj.value, "err": obj.error}, out)
    elif isinstance(obj, dict):
        out.write("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.write(",")
            out.write(f'"{k}":')
            _render(v, out)
        out.write("}")
    elif isinstance(obj, (list, tuple)):
        out.write("[")
        for i, v in enumerate(obj):
            if i:
                out.write(",")
            _render(v, out)
        out.write("]")
    elif isinstance(obj, bool):
        out.write("true" if obj else "false")
    elif obj is None:
        out.write("null")
    elif isinstance(obj, int):
        out.write(str(obj))
    elif isinstance(obj, float):
        out.write(fmt_float(obj))
    elif isinstance(obj, str):
        out.write(
            '"' + obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'
        )
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def render_json(obj):
    """Deterministic JSON text for a payload tree."""
    out = io.StringIO()
    _render(obj, out)
    return out.getvalue()


def config_hash(cfg):
    return hashlib.sha256(cfg.to_text().encode()).hexdigest()[:16]


def make_record(kind, inputs, payload):
    """One report record; `inputs` echoes enough to rerun the row."""
    return {"kind": kind, "inputs": inputs, "payload": payload}


def make_document(cfg, records, wall_time, memos=None):
    """Full report: deterministic records plus a provenance block.

    memos maps a memo's name ("sector-memo", "engine-memo") to its hits and
    misses during the command.  Only the provenance block (wall-time and
    those counts, which depend on what the process computed before) varies
    between identical runs; the records themselves are byte-identical given
    the same config/seed.
    """
    provenance = {"version": SCHEMA_VERSION, "config-hash": config_hash(cfg),
                  "wall-time": wall_time, **(memos or {})}
    return {"provenance": provenance, "records": records}


def write_json(doc, path):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_json(doc))
        fh.write("\n")


def write_csv(rows, fieldnames, path):
    """Row-oriented CSV; floats rendered like the JSON payloads."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({
                k: fmt_float(v) if isinstance(v, float) else v
                for k, v in row.items()
            })
