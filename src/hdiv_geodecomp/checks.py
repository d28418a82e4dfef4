"""Uniform pass/fail records for the verification operations."""

from __future__ import annotations

from typing import NamedTuple

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped_below_threshold"


class CheckResult(NamedTuple):
    """Outcome of one named verification with a machine-readable witness."""

    name: str
    status: str
    witness: dict
