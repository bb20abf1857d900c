"""Structured results for verification runs.

A run produces a flat list of :class:`CheckRecord`, one per verified
statement per sample point (or per parameter cell for counting checks).
Records are fully determined by the run configuration and seed; anything
time- or host-dependent lives in the report meta block, so the records
and summary sections of two runs with identical configuration compare
byte for byte.

Verdicts:

``PASS`` / ``FAIL``
    the residual was tested against the tolerance and gates the exit
    status.
``EVIDENCE``
    the residual is reported for the record (e.g. for a conjectured
    identity, or a formula reading kept for comparison) and never gates.
``SKIPPED-DEGENERATE``
    the sample landed where the check's hypotheses fail (degenerate
    induced metric, collapsed gradients); reported, does not gate.

The JSON writer renders the records in one pass, appending pieces to one
list that ends in one ``"".join``: a prefix per (check, anchor), a fragment
per point, the residual, and a suffix per (tolerance, verdict).  Each
prefix, fragment and suffix is formatted the first time it is met, into
dicts that live for that one call; the residual, unique to its record, is
formatted every time.  Fields are json scalars, formatted as json writes
them: strings through json's own ASCII escaper, floats as ``repr`` and
``NaN``/``Infinity``/``-Infinity``.  Two fields share a memo entry only when
json spells them alike: a string is its own key, and any other value is
keyed with its type and the sign of a zero (``_memo_key``), so ``1``,
``1.0``, ``True`` and ``np.float64(1.0)`` never share one, and neither do
``0.0`` and ``-0.0``.  A verdict is one of ``VERDICTS`` and is its own key.
The records are spliced into ``json.dumps(indent=2)`` of the rest of the
payload.  The output equals
``json.dumps(payload, indent=2, allow_nan=True) + "\n"`` byte for byte, as
``tests/test_report.py::test_json_writer_equals_json_dumps`` pins; a
payload with ``indent`` would otherwise go through json's pure-Python
encoder.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

VERDICTS = ("PASS", "FAIL", "EVIDENCE", "SKIPPED-DEGENERATE")
SCHEMA_VERSION = "1"

_INF = float("inf")

# one record as json.dumps(indent=2) lays it out inside the records list,
# after the separator from the record before it: a prefix per (check,
# anchor), a fragment per point, the residual, a suffix per (tolerance,
# verdict)
_SEPARATOR = ",\n"
_PREFIX = _SEPARATOR + '    {{\n      "check": {},\n      "anchor": {},\n'
_FRAGMENT = '      "point": {},\n      "residual": '
_SUFFIX = ',\n      "tolerance": {},\n      "verdict": {}\n    }}'
# the records key as json.dumps(indent=2) writes it at the top level, the
# only place a line starts with it: strings inside escape their newlines
_EMPTY_RECORDS = '\n  "records": []'


def _json_value(v):
    """A scalar record field exactly as ``json.dumps`` writes it."""
    if type(v) is str:
        return encode_basestring_ascii(v)
    if type(v) is float:
        if v != v:
            return "NaN"
        if v == _INF:
            return "Infinity"
        if v == -_INF:
            return "-Infinity"
        return float.__repr__(v)
    return json.dumps(v)


def _memo_key(v):
    """A dict key two record fields share only when json spells them alike."""
    if type(v) is str:
        return v
    return type(v), v, math.copysign(1.0, v) if v == 0 else None


@dataclass(frozen=True)
class CheckRecord:
    check: str
    anchor: str
    point: str
    residual: float
    tolerance: float
    verdict: str

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")


def record(check, anchor, point, residual, tolerance, gate):
    """Build a record, deciding PASS/FAIL from the tolerance when gating."""
    residual = float(residual)
    if gate:
        verdict = "PASS" if residual <= tolerance else "FAIL"
    else:
        verdict = "EVIDENCE"
    return CheckRecord(check, anchor, point, residual, float(tolerance),
                       verdict)


def skipped(check, anchor, point, reason, tolerance):
    return CheckRecord(check, anchor, f"{point} [{reason}]", float("nan"),
                       tolerance, "SKIPPED-DEGENERATE")


@dataclass
class VerificationReport:
    meta: dict = field(default_factory=dict)
    records: list = field(default_factory=list)

    def add(self, rec):
        self.records.append(rec)

    def summary(self):
        counts = {v: 0 for v in VERDICTS}
        worst = {}
        for rec in self.records:
            counts[rec.verdict] += 1
            if rec.verdict in ("PASS", "FAIL"):
                prev = worst.get(rec.check, -_INF)
                # a NaN is the worst value of its check, compared or not
                if rec.residual != rec.residual or rec.residual > prev:
                    worst[rec.check] = rec.residual
        return {
            "counts": counts,
            "worst_residual": {k: worst[k] for k in sorted(worst)},
            "total": len(self.records),
        }

    def exit_status(self):
        """0 when no gating record failed; evidence never gates."""
        return 1 if any(r.verdict == "FAIL" for r in self.records) else 0

    # -- serialization ----------------------------------------------------

    def _dumps(self, with_meta):
        """``json.dumps(payload, indent=2)`` and a newline, in one pass."""
        payload = {"schema_version": SCHEMA_VERSION}
        if with_meta:
            payload["meta"] = dict(self.meta)
        payload["records"] = []
        payload["summary"] = self.summary()
        text = json.dumps(payload, indent=2, allow_nan=True) + "\n"
        if not self.records:
            return text
        head, tail = text.split(_EMPTY_RECORDS, 1)
        val, key = _json_value, _memo_key
        prefixes, fragments, suffixes = {}, {}, {}
        pieces = [head + '\n  "records": [\n']
        add = pieces.append
        for r in self.records:
            k = key(r.check), key(r.anchor)
            piece = prefixes.get(k)
            if piece is None:
                piece = prefixes[k] = _PREFIX.format(val(r.check),
                                                     val(r.anchor))
            add(piece)
            k = key(r.point)
            piece = fragments.get(k)
            if piece is None:
                piece = fragments[k] = _FRAGMENT.format(val(r.point))
            add(piece)
            add(val(r.residual))
            k = key(r.tolerance), r.verdict
            piece = suffixes.get(k)
            if piece is None:
                piece = suffixes[k] = _SUFFIX.format(val(r.tolerance),
                                                     val(r.verdict))
            add(piece)
        # the first record follows the list's bracket, not a record
        pieces[1] = pieces[1][len(_SEPARATOR):]
        add("\n  ]" + tail)
        return "".join(pieces)

    def to_json(self):
        return self._dumps(with_meta=True)

    def records_json(self):
        """Records and summary only; byte-stable across identical runs."""
        return self._dumps(with_meta=False)

    def records_digest(self):
        return hashlib.sha256(self.records_json().encode()).hexdigest()

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check", "anchor", "point", "residual",
                         "tolerance", "verdict"])
        for r in self.records:
            writer.writerow([r.check, r.anchor, r.point, repr(r.residual),
                             repr(r.tolerance), r.verdict])
        return buf.getvalue()

    def to_text(self):
        lines = []
        width = max((len(r.check) for r in self.records), default=0)
        for r in self.records:
            lines.append(f"{r.verdict:<18} {r.check:<{width}} {r.point}  "
                         f"residual={r.residual:.3e} tol={r.tolerance:.1e}")
        s = self.summary()
        counts = "  ".join(f"{k}={v}" for k, v in s["counts"].items() if v)
        lines.append(f"-- {s['total']} records  {counts}")
        return "\n".join(lines) + "\n"

    def render(self, fmt):
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "text":
            return self.to_text()
        raise ValueError(f"unknown format {fmt!r}")

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        if payload.get("schema_version") != SCHEMA_VERSION:
            raise ValueError("unsupported schema version")
        recs = [CheckRecord(**r) for r in payload["records"]]
        return cls(meta=payload.get("meta", {}), records=recs)
