"""The constructive-VD outcomes stay as pinned in ``golden/vd_sweep.jsonl``
and ``golden/vd_failing_sweep.jsonl`` (see ``vd_sweep.py``)."""

import hashlib
import re
from collections import Counter

from vd_sweep import FAILING_GOLDEN, GOLDEN, failing_sweep, lines, sweep

# sha256 of the golden files
GOLDEN_SHA256 = "2b5145d2d2b2c935e7ff39904c7cccfdf89ecdd057b3063f43a825d1e31cd8bc"
FAILING_GOLDEN_SHA256 = (
    "f7d51e94c8e3c73e46c6adebc04f4d5dc99dac3bd10bcccc49b91ec7bfa3e3ea")


def _kind(outcome: str) -> str:
    return ("certificate" if re.fullmatch("[0-9a-f]{64}", outcome)
            else outcome.split(":")[0])


def _check_against(path: str, sha256: str, rows) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert hashlib.sha256(text.encode()).hexdigest() == sha256
    got = lines(rows)
    expected = text.splitlines()
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == e
    return expected


def test_vd_outcomes_match_the_sweep_golden():
    rows = sweep()
    assert Counter(_kind(row["outcome"]) for row in rows) == {
        "certificate": 802, "TargetTooLarge": 364, "RepeatRunTooLong": 2}
    assert len(_check_against(GOLDEN, GOLDEN_SHA256, rows)) == 1168


def test_failing_labelings_reach_the_self_checks():
    rows = failing_sweep()
    assert Counter(_kind(row["outcome"]) for row in rows) == {
        "certificate": 1594, "InvalidCertificate": 1274,
        "RepeatRunTooLong": 242}
    # each self-check message up to its first quoted name or parenthesis
    checks = Counter(re.split(r"['(]", row["outcome"])[0]
                     for row in rows
                     if row["outcome"].startswith("InvalidCertificate"))
    prefix = "InvalidCertificate: "
    assert checks == {
        prefix + "restriction away from ": 543,
        prefix + "no spine in the base case: Violation": 313,
        prefix + "chain below descent element ": 178,
        prefix + "cover pair through ": 171,
        prefix + "a chain strictly ascends through ": 55,
        prefix + "descents exist but no single-descent chain; labeling is "
                 "not quasi-EL": 8,
        prefix + "lower interval has chain-dependent statistics": 6}
    assert len(_check_against(FAILING_GOLDEN, FAILING_GOLDEN_SHA256,
                              rows)) == 3110
