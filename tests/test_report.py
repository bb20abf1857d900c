"""Record construction, verdict logic, and serialization round trips."""

import csv
import io
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from detmin.report import (SCHEMA_VERSION, CheckRecord, VerificationReport,
                           record, skipped)


def _recs():
    return [
        record("alpha.check", "anchor-a", "p=2 q=2 r=1 i=0", 1e-12, 1e-9,
               gate=True),
        record("alpha.check", "anchor-a", "p=2 q=2 r=1 i=1", 5e-9, 1e-9,
               gate=True),
        record("beta.check", "anchor-b", "n=3 i=0", 0.2, 1e-9, gate=False),
        skipped("gamma.check", "anchor-c", "p=2 q=2 r=1 i=2", "degenerate",
                1e-9),
    ]


def test_record_verdicts():
    assert record("c", "a", "p", 1e-12, 1e-9, gate=True).verdict == "PASS"
    assert record("c", "a", "p", 1e-6, 1e-9, gate=True).verdict == "FAIL"
    assert record("c", "a", "p", 1e-6, 1e-9, gate=False).verdict == "EVIDENCE"
    # boundary counts as a pass
    assert record("c", "a", "p", 1e-9, 1e-9, gate=True).verdict == "PASS"


def test_skipped_record():
    rec = skipped("c", "a", "p=2 i=0", "cone point", 1e-9)
    assert rec.verdict == "SKIPPED-DEGENERATE"
    assert "[cone point]" in rec.point
    assert math.isnan(rec.residual)


def test_unknown_verdict_rejected():
    with pytest.raises(ValueError):
        CheckRecord("c", "a", "p", 0.0, 1e-9, "MAYBE")


def test_exit_status_and_summary():
    rep = VerificationReport()
    rep.records.extend(_recs())
    assert rep.exit_status() == 1  # one FAIL gates
    s = rep.summary()
    assert s["counts"] == {"PASS": 1, "FAIL": 1, "EVIDENCE": 1,
                           "SKIPPED-DEGENERATE": 1}
    assert s["total"] == 4
    # worst residual tracks gating records only
    assert s["worst_residual"] == {"alpha.check": 5e-9}

    green = VerificationReport(records=[_recs()[0], _recs()[2]])
    assert green.exit_status() == 0  # evidence never gates


@pytest.mark.parametrize("residuals", [(1e-20, math.nan), (math.nan, 1e-20),
                                       (math.nan,)],
                         ids=["pass-then-nan", "nan-then-pass", "nan-only"])
def test_a_nan_residual_is_the_worst_of_its_check(residuals):
    # a NaN compares false with every bound, so it FAILs; the summary used
    # to keep the PASS beside it, and to drop a check with a NaN alone
    rep = VerificationReport(records=[
        record("alpha.check", "anchor-a", f"i={i}", residual, 1e-9, gate=True)
        for i, residual in enumerate(residuals)])
    worst = rep.summary()["worst_residual"]
    assert list(worst) == ["alpha.check"] and math.isnan(worst["alpha.check"])


def test_json_round_trip():
    rep = VerificationReport(meta={"seed": 7})
    rep.records.extend(_recs())
    back = VerificationReport.from_json(rep.to_json())
    assert back.meta == {"seed": 7}
    assert len(back.records) == len(rep.records)
    for a, b in zip(rep.records[:3], back.records[:3]):
        assert a == b  # NaN-free records survive exactly


def test_json_records_are_the_record_fields_in_order():
    rep = VerificationReport()
    rep.records.extend(_recs())
    payload = json.loads(rep.to_json())
    for rec, got in zip(rep.records, payload["records"]):
        want = asdict(rec)
        assert list(got) == list(want)
        assert json.dumps(got) == json.dumps(want)


def test_from_json_rejects_other_schema():
    payload = json.loads(VerificationReport().to_json())
    payload["schema_version"] = "999"
    with pytest.raises(ValueError):
        VerificationReport.from_json(json.dumps(payload))


def test_csv_floats_round_trip():
    rep = VerificationReport(records=_recs()[:3])
    rows = list(csv.reader(io.StringIO(rep.to_csv())))
    assert rows[0] == ["check", "anchor", "point", "residual", "tolerance",
                       "verdict"]
    assert len(rows) == 4
    # repr serialization preserves the double exactly
    assert float(rows[1][3]) == rep.records[0].residual
    assert float(rows[2][3]) == rep.records[1].residual


def test_text_rendering_has_one_line_per_record():
    rep = VerificationReport(records=_recs())
    lines = rep.to_text().strip().splitlines()
    assert len(lines) == len(rep.records) + 1  # plus summary footer
    assert lines[0].startswith("PASS")
    assert lines[-1].startswith("-- 4 records")


def test_render_dispatch():
    rep = VerificationReport(records=_recs()[:1])
    assert rep.render("json") == rep.to_json()
    assert rep.render("csv") == rep.to_csv()
    assert rep.render("text") == rep.to_text()
    with pytest.raises(ValueError):
        rep.render("yaml")


def test_records_json_excludes_meta_and_digest_is_stable():
    rep1 = VerificationReport(meta={"elapsed_seconds": 1.23})
    rep2 = VerificationReport(meta={"elapsed_seconds": 9.87})
    for rep in (rep1, rep2):
        rep.records.extend(_recs()[:3])
    assert "elapsed_seconds" not in rep1.records_json()
    assert rep1.records_json() == rep2.records_json()
    assert rep1.records_digest() == rep2.records_digest()


def _json_dumps_reference(rep, with_meta):
    """The report's payload through ``json.dumps(indent=2)`` itself."""
    payload = {"schema_version": SCHEMA_VERSION}
    if with_meta:
        payload["meta"] = dict(rep.meta)
    payload["records"] = [asdict(r) for r in rep.records]
    payload["summary"] = rep.summary()
    return json.dumps(payload, indent=2, allow_nan=True) + "\n"


AWKWARD_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324,
                  1e16, 0.1, 1.0, 123456789.0, 2.5e-300]
AWKWARD_POINTS = ["p=2 q=2 r=1 i=0", "caf\u00e9 \u6f22 \U0001f600",
                  'quote " inside', "back\\slash \\n",
                  "ctl \x00\x1f\t\n\r\x7f", "sep \u2028\u2029", "",
                  '\n  "records": []']


@pytest.mark.parametrize("with_meta", [True, False])
def test_json_writer_equals_json_dumps(with_meta):
    rep = VerificationReport(meta={"seed": 3, "records": [],
                                   "note": '\n  "records": []',
                                   "nested": {"x": [1.5, float("nan")]}})
    for i, value in enumerate(AWKWARD_FLOATS):
        for point in AWKWARD_POINTS:
            rep.add(record("alpha.check", "anchor-\u00e4", point, value,
                           AWKWARD_FLOATS[-1 - i], gate=True))
            rep.add(record("beta.check", "anchor-b", point, value, value,
                           gate=False))
    rep.add(skipped("gamma.check", "anchor-c", "p=2 \"q\"", "degenerate",
                    1e-9))
    # fields json writes as it finds them: an int and a numpy float
    rep.add(CheckRecord("delta.check", "anchor-d", "i", 3, np.float64(0.5),
                        "PASS"))
    rep.add(CheckRecord("delta.check", "anchor-d", "i", np.float64("nan"),
                        np.float64("-inf"), "PASS"))
    for report in (rep, VerificationReport(meta={"seed": 1})):
        got = report.to_json() if with_meta else report.records_json()
        assert got == _json_dumps_reference(report, with_meta)
