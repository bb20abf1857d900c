"""Fault table: each row plants one fault in the program and names the run
and the checks that must catch it, at every point of that run.

Rows are only ever added.  A row records a fault the sweep is known to
catch; a change that stops a check from catching it turns the row red.

``projector-noise`` scales the jet's tangent projector P entrywise by
1 + 1e-7 N, N the symmetric part of a standard-normal matrix drawn from
``derived_rng(0, dim)``.  Both determinant routes read the one projector
the jet builds from its gradient Gram, so the one fault fails the minimality
check of both.  Smaller sizes are caught less: at 1e-8 this noise fails 4
of the 15 levelset points and 3 of the 15 complex points on q 2..4 at
seed 0, and at 1e-9 none of either.

``cofactor-noise`` scales the cofactor matrix entrywise by 1 + s N, N a
standard-normal matrix drawn from ``derived_rng(0, n)``, where the levelset
and complex routes import ``cofactors``.  On q 2..4 at seed 0:

- levelset, s = 1e-9: ``identities``, ``minor-inverse`` and ``rank-one``
  fail at all 15 points, ``minimality`` at only 3.  At 1e-10 those three
  fail at 1, 12 and 10 points, and at 1e-11 the run exits 0.
- complex, s = 1e-7: ``contractions`` fails at all 15 points; at 1e-8 at
  12.  ``complex.rho-quadratic`` (5 records, n = 2 only) fails down to
  1e-12 and the run exits 0 at 1e-13.  ``complex.zeta-minimality`` fails
  nowhere from 1e-6 down to 1e-11, though the jet's gradients, and so its
  projector, are built from the noisy cofactors.

``metric-inverse-noise`` replaces the chart's inverse metric g^-1 with
g^-1 (1 + s (N + N^T) / 2), N a standard-normal matrix drawn from
``derived_rng(0, dim)``.  The pseudo pipeline inverts its own G-hat and
never reads the chart's inverse, while the euclidean reduction compares its
trace with the parametric one, which does.  On ``verify pseudo --p 4
--q 2..4 --r 1 --seed 0``, ``pseudo.euclidean-reduction`` fails at all 15
points at s = 1e-9, 1e-10 and 1e-11, at 2 at 1e-12, and the run exits 0
at 1e-13.  The row turns red if pseudo's trace contraction reads the
chart's inverse: a copy of pseudo changed that way exits 0 on this run at
every size from 1e-9 to 1e-13.  ``verify parametric`` on the same grid
catches less: at 1e-9 ``o-p-structure`` fails at 11 points and
``tangency`` at 5, at 1e-10 ``o-p-structure`` at 1, and at 1e-11 the run
exits 0; ``mean-curvature`` fails at none of these sizes.
"""

from functools import cached_property, partial

import pytest

from detmin import kahler, levelset
from detmin.cli import main
from detmin.linalg import ConstraintJet, cofactors, derived_rng
from detmin.parametric import ChartPoint
from detmin.report import VerificationReport


def _noisy_projector(monkeypatch, size):
    exact = ConstraintJet.projector.func

    def noisy(jet):
        p = exact(jet)
        a = derived_rng(0, len(p)).normal(size=p.shape)
        return p * (1.0 + size * (a + a.T) / 2)

    monkeypatch.setattr(ConstraintJet, "projector", property(noisy))


def _noisy_cofactors(monkeypatch, size):
    def noisy(m):
        cof = cofactors(m)
        a = derived_rng(0, len(cof)).normal(size=cof.shape)
        return cof * (1.0 + size * a)

    for module in (levelset, kahler):
        monkeypatch.setattr(module, "cofactors", noisy)


def _noisy_metric_inverse(monkeypatch, size):
    exact = ChartPoint.metric_inv.func

    def noisy(cp):
        ginv = exact(cp)
        a = derived_rng(0, len(ginv)).normal(size=ginv.shape)
        ginv = ginv * (1.0 + size * (a + a.T) / 2)
        ginv.setflags(write=False)
        return ginv

    prop = cached_property(noisy)
    prop.__set_name__(ChartPoint, "metric_inv")
    monkeypatch.setattr(ChartPoint, "metric_inv", prop)


# (fault, command, the checks that must fail at every point of the run)
ROWS = {
    "projector-noise-levelset": (
        partial(_noisy_projector, size=1e-7),
        ["verify", "levelset", "--q", "2..4", "--seed", "0"],
        ("levelset.minimality",)),
    "projector-noise-complex": (
        partial(_noisy_projector, size=1e-7),
        ["verify", "complex", "--q", "2..4", "--seed", "0"],
        ("complex.zeta-minimality",)),
    "cofactor-noise-levelset": (
        partial(_noisy_cofactors, size=1e-9),
        ["verify", "levelset", "--q", "2..4", "--seed", "0"],
        ("levelset.identities", "levelset.minor-inverse",
         "levelset.rank-one")),
    "cofactor-noise-complex": (
        partial(_noisy_cofactors, size=1e-7),
        ["verify", "complex", "--q", "2..4", "--seed", "0"],
        ("complex.contractions",)),
    "metric-inverse-noise": (
        partial(_noisy_metric_inverse, size=1e-11),
        ["verify", "pseudo", "--p", "4", "--q", "2..4", "--r", "1",
         "--seed", "0"],
        ("pseudo.euclidean-reduction",)),
}


@pytest.mark.parametrize("row", ROWS)
def test_a_planted_fault_fails_its_check_everywhere(row, monkeypatch,
                                                    tmp_path):
    plant, argv, checks = ROWS[row]
    plant(monkeypatch)
    out = tmp_path / "report.json"
    assert main([*argv, "--format", "json", "--out", str(out)]) == 1
    report = VerificationReport.from_json(out.read_text())
    for check in checks:
        records = [r for r in report.records if r.check == check]
        assert len(records) == 15, check
        assert all(r.verdict == "FAIL" for r in records), records
