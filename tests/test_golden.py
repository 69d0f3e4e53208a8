"""CLI reports on fixed inputs stay byte-identical, apart from timing, under
any hash seed (see ``golden_reports.py``)."""

import json
import os
import subprocess
import sys

import pytest

from golden_reports import GOLDEN, HERE

SRC = os.path.join(HERE, os.pardir, "src")


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return {row["case"]: row for row in map(json.loads, fh)}


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_reports_match_goldens(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, os.path.join(HERE, "golden_reports.py")],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    got = {row["case"]: row for row in map(json.loads, out.splitlines())}
    expected = _golden()
    assert sorted(got) == sorted(expected)
    for case, row in expected.items():
        assert got[case]["exit"] == row["exit"], case
        assert got[case]["stdout"] == row["stdout"], case


def test_goldens_pin_both_exit_codes():
    exits = {row["exit"] for row in _golden().values()}
    assert exits == {0, 2}
