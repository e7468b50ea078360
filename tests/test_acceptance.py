"""Desk-scale acceptance gate: one test per exit criterion.

Each test runs its criterion at the full stated size and tolerance and
prints the one-line verdict so `pytest -s` (or the CLI `verify-all`)
shows the measured numbers next to the pass/fail.
"""

import time

import pytest

from wlab.acceptance import CRITERIA, DESK


@pytest.mark.parametrize("cid", sorted(CRITERIA))
def test_criterion(cid, capsys):
    t0 = time.time()
    result = CRITERIA[cid](DESK)
    runtime = time.time() - t0
    with capsys.disabled():
        print(f"\n{result.line()}  [{runtime:.1f}s]")
    assert result.passed, result.details
