"""The error raised when one of qcoh's own cross-checks disagrees."""

from __future__ import annotations

from typing import Optional


class VerificationError(AssertionError):
    """An internal verification failed; ``evidence`` holds what was compared.

    It subclasses AssertionError, so code that catches that keeps working,
    and unlike a bare ``assert`` it is raised under ``python -O`` too.  The
    command line turns it into a FAIL record that carries the evidence.
    """

    def __init__(self, message: str, evidence: Optional[dict] = None):
        super().__init__(message)
        self.evidence = dict(evidence or {})
