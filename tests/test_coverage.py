"""The seeded coverage study of demos/04_coverage.py as a gate.

At ten times the fixture's totals, each measure's 95% interval must hold the
truth in a share of the 400 replicate tables inside the 99.9% binomial band
around 0.95 (0.95 +- 3.29 * sqrt(0.95 * 0.05 / 400), so 0.914-0.986). At the
fixture's own totals the number of separated tables is pinned: it depends on
the replicate seed and on numpy's Generator.binomial stream. A coverage
outside the band is a finding about the intervals; the seeds and the
replicate count stay as they are.
"""

import importlib.util
from pathlib import Path

import pytest

import epinteract as ei

BAND = (0.914, 0.986)


@pytest.fixture(scope="module")
def study():
    path = Path(__file__).resolve().parents[1] / "demos" / "04_coverage.py"
    spec = importlib.util.spec_from_file_location("coverage_study", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_separated_tables_at_the_fixture_totals_are_pinned(study):
    separated, _ = study.coverage(1)
    assert separated == 71


def test_coverage_at_ten_times_the_totals_lies_in_the_band(study):
    separated, shares = study.coverage(10)
    assert separated == 0
    outside = {mid: shares[mid] for mid in ei.MEASURE_IDS
               if not BAND[0] <= shares[mid] <= BAND[1]}
    assert not outside, f"95% coverage outside {BAND}: {outside}"
