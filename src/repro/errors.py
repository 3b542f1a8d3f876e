"""Exception hierarchy shared by all repro subsystems."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class IlpError(ReproError):
    """Errors from the ILP substrate (modeling or solving)."""


class ParseError(ReproError):
    """Malformed TIA assembly input."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MachineError(ReproError):
    """Unknown opcode or machine-model inconsistency."""


class SchedulingError(ReproError):
    """The scheduler could not produce or reconstruct a schedule."""


class BundlingError(ReproError):
    """An instruction group cannot be packed into any template sequence."""
