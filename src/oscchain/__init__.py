"""Exact symbolic-numeric engine for closed chains of coupled oscillators."""

__version__ = "0.1.0"


class VerificationError(RuntimeError):
    """A named verification failure: an invariant, certificate or oracle
    check that did not hold.  The CLI exits 1 on it."""
