"""Resource limits shared by the check and the solver layer; check_deadline
owns the deadline cadence, so a loop passes it its step count."""

from __future__ import annotations

import time


class ResourceLimit(Exception):
    pass


def check_deadline(deadline: float | None, step: int = 0):
    """Raise ResourceLimit('timeout') once time.monotonic() passes deadline;
    the clock is read only when step is a multiple of 1024 (always at 0)."""
    if deadline is not None and step & 1023 == 0 and time.monotonic() > deadline:
        raise ResourceLimit("timeout")
