"""Serialization helpers shared by report objects and the command line.

CSV output follows RFC 4180 (CRLF line endings, mandatory header row) with
floating-point fields printed to 17 significant digits so that parsed values
round-trip exactly.  JSON documents carry a ``meta`` block (timestamp and
library version), the fully resolved configuration, and the payload;
timestamps are isolated in ``meta`` so determinism checks can mask them.
"""

import csv
import io
import json
from dataclasses import fields
from datetime import datetime, timezone

import numpy as np


def format_float(x):
    """Render a float with 17 significant digits (exact round-trip)."""
    return format(float(x), ".17g")


def _cell(value):
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    return str(value)


def csv_document(header, rows):
    """Build an RFC-4180 CSV string from a header and an iterable of rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def csv_table(columns):
    """CSV of ``{header: column}`` in insertion order; a scalar column repeats
    on every row, and a table of scalars only is one row."""
    lengths = {len(col) for col in columns.values() if np.ndim(col)}
    if len(lengths) > 1:
        raise ValueError(f"CSV columns differ in length: {sorted(lengths)}")
    rows = lengths.pop() if lengths else 1
    cols = [col if np.ndim(col) else [col] * rows for col in columns.values()]
    return csv_document(list(columns), zip(*cols))


def _plain(obj):
    """``json.dumps`` fallback: numpy arrays and scalars as Python values."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def utc_timestamp():
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def json_document(payload, config=None, timestamp=None):
    """Assemble the standard report document as a JSON string.

    Layout: ``{"meta": {"timestamp", "version"}, "config": ..., "payload": ...}``
    with sorted keys.  Floats are written by ``repr``, the shortest text
    that parses back to the same double.
    """
    from . import __version__

    doc = {
        "meta": {
            "timestamp": timestamp if timestamp is not None else utc_timestamp(),
            "version": __version__,
        },
        "config": config if config is not None else {},
        "payload": payload,
    }
    return json.dumps(doc, sort_keys=True, indent=2, default=_plain) + "\n"


class JsonReport:
    """Base of the report dataclasses: ``to_json`` writes every field,
    ``to_csv`` the columns of ``_csv_columns``.

    A subclass names properties to add to the JSON payload in ``_json_extra``
    and fields to leave out of it in ``_json_omit``.  ``_csv_columns`` maps
    each CSV header to the field or property that fills its column (see
    :func:`csv_table`).
    """

    _json_extra = ()
    _json_omit = ()
    _csv_columns = {}

    def to_csv(self):
        return csv_table({head: getattr(self, name) for head, name in self._csv_columns.items()})

    def to_json(self, config=None, timestamp=None):
        names = [f.name for f in fields(self) if f.name not in self._json_omit]
        payload = {name: getattr(self, name) for name in names + list(self._json_extra)}
        return json_document(payload, config=config, timestamp=timestamp)
