"""Desk-scale acceptance gate: one test per exit criterion.

Each test runs its criterion at the full stated size and tolerance and
prints the one-line verdict so `pytest -s` (or the CLI `verify-all`)
shows the measured numbers next to the pass/fail.
"""

import time

import pytest

from wlab import acceptance, covering
from wlab.acceptance import CRITERIA, DESK, QUICK


@pytest.mark.parametrize("cid", sorted(CRITERIA))
def test_criterion(cid, capsys):
    t0 = time.time()
    result = CRITERIA[cid](DESK)
    runtime = time.time() - t0
    with capsys.disabled():
        print(f"\n{result.line()}  [{runtime:.1f}s]")
    assert result.passed, result.details


def test_criterion_10_catches_a_far_cell_in_the_near_level_set(monkeypatch):
    # (x, y) = (0.502, 0.002) is far: cos 2pi x - cos 2pi y is about -2
    real = covering.near_level_set

    def planted(*args, **kwargs):
        s = real(*args, **kwargs)
        s.bits[0, 128] = True
        return s

    monkeypatch.setattr(covering, "near_level_set", planted)
    result = acceptance.criterion_10(QUICK)
    assert not result.passed
    assert result.details["paths_within_fringe"] is False
