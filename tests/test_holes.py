"""The seeded random sample of tests/holes.py, its first cases, in the suite."""

import pytest

from holes import TOLERANCES, check, sample
from test_reference import computed

#: About 2 s against the mpmath reference.
CASES = sample(150)


def test_sample_never_raises():
    for case in CASES:
        computed(*case)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 15: row combinations cancel at weak coupling")
def test_sample_matches_mpmath():
    # Every criterion within the suite's tolerance, and every flag as the
    # reference values read it.
    failures = []
    for case in CASES:
        errors, flags = check(*case)
        if flags or any(e > tol for e, tol in zip(errors, TOLERANCES)):
            failures.append((case, max(errors), flags))
    assert not failures, failures
