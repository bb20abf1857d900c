"""Helpers shared by the test modules, and the one hypothesis profile."""

import os
from pathlib import Path

from hypothesis import settings

# the tests import detmin from src/ (pyproject's pytest pythonpath), and the
# python processes they start find it there too
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (
    str(Path(__file__).resolve().parents[1] / "src"),
    os.environ.get("PYTHONPATH"))))

# every run draws the same examples and no failure is replayed from a local
# example database, so the suite is deterministic
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def assert_certificate(cert, r, where=None):
    """The six conditions of a helicoidal certificate for the rank-``r``
    stratum, at literal tolerances.

    ``where`` is shown with the certificate when a condition fails.
    """
    info = (where, cert)
    assert max(cert.reflection_residuals.values()) <= 1e-12, info
    assert cert.isometry_residual <= 1e-12, info
    assert cert.sample_ranks == (r, r), info
    assert max(cert.tangent_residuals.values()) <= 1e-9, info
    assert cert.normal_reversal <= 1e-10, info
    # a generic normal direction must not test tangent
    assert cert.counter_control > 1e-3, info
