"""Fault table: each row plants one fault in the program and names the run
and the check that must catch it, at every point of that run.

Rows are only ever added.  A row records a fault the sweep is known to
catch; a change that stops a check from catching it turns the row red.

``projector-noise`` scales the jet's tangent projector P entrywise by
1 + 1e-7 N, N the symmetric part of a standard-normal matrix drawn from
``derived_rng(0, dim)``.  Both determinant routes read the one projector
the jet builds from its gradient Gram, so the one fault fails the minimality
check of both.  Smaller sizes are caught less: at 1e-8 this noise fails 4
of the 15 levelset points and 3 of the 15 complex points on q 2..4 at
seed 0, and at 1e-9 none of either.
"""

from functools import partial

import pytest

from detmin.cli import main
from detmin.linalg import ConstraintJet, derived_rng
from detmin.report import VerificationReport


def _noisy_projector(monkeypatch, size):
    exact = ConstraintJet.projector.func

    def noisy(jet):
        p = exact(jet)
        a = derived_rng(0, len(p)).normal(size=p.shape)
        return p * (1.0 + size * (a + a.T) / 2)

    monkeypatch.setattr(ConstraintJet, "projector", property(noisy))


# (fault, command, the check that must fail at every point of the run)
ROWS = {
    "projector-noise-levelset": (
        partial(_noisy_projector, size=1e-7),
        ["verify", "levelset", "--q", "2..4", "--seed", "0"],
        "levelset.minimality"),
    "projector-noise-complex": (
        partial(_noisy_projector, size=1e-7),
        ["verify", "complex", "--q", "2..4", "--seed", "0"],
        "complex.zeta-minimality"),
}


@pytest.mark.parametrize("row", ROWS)
def test_a_planted_fault_fails_its_check_everywhere(row, monkeypatch,
                                                    tmp_path):
    plant, argv, check = ROWS[row]
    plant(monkeypatch)
    out = tmp_path / "report.json"
    assert main([*argv, "--format", "json", "--out", str(out)]) == 1
    records = [r for r in VerificationReport.from_json(out.read_text()).records
               if r.check == check]
    assert len(records) == 15
    assert all(r.verdict == "FAIL" for r in records), records
