"""The constructive-VD outcomes stay as pinned in ``golden/vd_sweep.jsonl``
(see ``vd_sweep.py``)."""

import hashlib
import re
from collections import Counter

from vd_sweep import GOLDEN, lines, sweep

# sha256 of the golden file
GOLDEN_SHA256 = "2b5145d2d2b2c935e7ff39904c7cccfdf89ecdd057b3063f43a825d1e31cd8bc"


def _kind(outcome: str) -> str:
    return ("certificate" if re.fullmatch("[0-9a-f]{64}", outcome)
            else outcome.split(":")[0])


def test_vd_outcomes_match_the_sweep_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        text = fh.read()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256
    rows = sweep()
    assert Counter(_kind(row["outcome"]) for row in rows) == {
        "certificate": 802, "TargetTooLarge": 364, "RepeatRunTooLong": 2}
    got = lines(rows)
    expected = text.splitlines()
    assert len(got) == len(expected) == 1168
    for g, e in zip(got, expected):
        assert g == e
