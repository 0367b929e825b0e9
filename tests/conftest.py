"""Fixtures shared across test modules."""

import pytest

from repro.analysis.conclusions import evaluate_conclusions


@pytest.fixture(scope="session")
def paper_findings():
    """The claims table evaluated once on DEFAULT_CALIBRATION, by claim id."""
    return {finding.id: finding for finding in evaluate_conclusions()}
