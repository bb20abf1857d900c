"""Record construction, verdict logic, and serialization round trips."""

import csv
import io
import json
import math
import random
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from detmin.report import (SCHEMA_VERSION, CheckRecord, VerificationReport,
                           record, skipped)
from detmin.sweep import RunConfig, run_sweep


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
_NAN = float("nan")
# fields the renderer formats once per call: tolerances that compare equal
# but json writes apart (1, 1.0, True; 0.0, -0.0), NaNs that compare unequal
# to themselves, and texts that records share
MEMO_COLLISIONS = [
    *(CheckRecord("eps.check", "anchor-e", "i=0", 0.5, tol, "PASS")
      for tol in (1, 1.0, True, np.float64(1.0), 1.0, True, 1)),
    *(CheckRecord("eps.check", "anchor-e", "i=1", 0.0, tol, "PASS")
      for tol in (0.0, -0.0, 0.0, 0, -0.0, np.float64(-0.0), False)),
    *(CheckRecord("eps.check", "anchor-e", "i=2", 0.5, tol, "FAIL")
      for tol in (_NAN, float("nan"), _NAN, float("inf"), -float("inf"),
                  np.float64("nan"), float("inf"))),
    # one point string shared by two checks, one check under two anchors
    CheckRecord("zeta.check", "anchor-z", "shared", -0.0, 1e-9, "PASS"),
    CheckRecord("eta.check", "anchor-z", "shared", 0.0, 1e-9, "EVIDENCE"),
    CheckRecord("zeta.check", "anchor-y", "shared", 1e-9, 1e-9, "PASS"),
    CheckRecord("zeta.check", "anchor-z", "i=3", 1e-9, 1e-9, "PASS"),
    # checks, anchors and points the program writes as strings, here as
    # other json scalars, as records built by hand or read back can carry
    # (evidence, so no check enters the summary's sorted worst residuals)
    *(CheckRecord(c, a, c, 0.5, 1e-9, "EVIDENCE")
      for c in (1, True, 1.0, np.float64(1.0), 0.0, -0.0, 0, False, "1")
      for a in (1, True, -0.0, 0.0, "1")),
]


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
    rep.records.extend(MEMO_COLLISIONS)
    for report in (rep, VerificationReport(meta={"seed": 1})):
        got = report.to_json() if with_meta else report.records_json()
        assert got == _json_dumps_reference(report, with_meta)


def test_json_writer_equals_json_dumps_on_a_full_run():
    # every pipeline on p, q 2..6: about 7,000 records, as the bench renders
    report = run_sweep(RunConfig(p_values=range(2, 7), q_values=range(2, 7),
                                 seed=1))
    assert len(report.records) > 6000
    assert report.to_json() == _json_dumps_reference(report, with_meta=True)


def test_json_writer_peak_memory_stays_below_twice_the_output():
    # 4,000 records shaped like a verify-all run's: eight checks at each of
    # 500 points, every residual a distinct float
    rng = random.Random(0)
    rep = VerificationReport(records=[
        record(f"pipeline.check-{c}", f"anchor-of-the-claim-{c}",
               f"p={2 + i % 5} q={2 + i // 5 % 5} r=1 i={i}",
               rng.random() * 1e-15, 1e-9, gate=c % 4 != 3)
        for i in range(500) for c in range(8)])
    tracemalloc.start()
    try:
        text = rep.to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(text), peak / len(text)
