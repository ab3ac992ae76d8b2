"""Resource limits shared by the check and the solver layer."""

from __future__ import annotations

import time


class ResourceLimit(Exception):
    pass


def check_deadline(deadline: float | None):
    """Raise ResourceLimit('timeout') once time.monotonic() passes deadline."""
    if deadline is not None and time.monotonic() > deadline:
        raise ResourceLimit("timeout")
