"""Shared exception types."""

from __future__ import annotations


class Stopped(RuntimeError):
    """A deterministic stop: the CLI exits 2, printing ``label: message`` on stderr."""

    label = "stopped"


class GuardExceeded(Stopped):
    """A computation would exceed its iteration guard.

    Guards count loop iterations, not wall-clock time, so whether a call
    trips one is deterministic for given arguments.  ``needed`` is the exact
    iteration count the call would require, ``limit`` the active guard.
    """

    label = "guard exceeded"

    def __init__(self, what: str, needed: int, limit: int):
        self.what = what
        self.needed = needed
        self.limit = limit
        super().__init__(
            f"{what}: {needed} iterations needed, guard is {limit}"
        )


class NotConverged(Stopped):
    """A certified enclosure stopped short of its requested width.

    Its interval is still valid, only wider than asked; it stops at a
    deterministic step cap or at a failed step, never on a timer.
    """

    label = "not converged"


class NotCertified(Stopped):
    """A condition that a printed result's meaning rests on does not hold.

    ``frobenius_complexity`` prints log_p of the transfer matrix's spectral
    radius as the growth rate of the counts, which holds when the matrix is
    primitive and its seed and weights are nonnegative and nonzero; the
    message names the condition that failed.
    """

    label = "not certified"
