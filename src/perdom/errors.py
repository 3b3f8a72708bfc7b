"""Exception types shared across the package.

Each error class carries the process exit code the command line front end
maps it to, so the mapping lives in one place.
"""


class PerdomError(Exception):
    exit_code = 1


class ConfigError(PerdomError):
    """Invalid user input: slope function, family, field or flag arguments."""

    exit_code = 2


class InternalCheckError(PerdomError):
    """A built-in consistency assertion failed (bug trap)."""

    exit_code = 1


class TheoremCheckError(PerdomError):
    """Predicted and enumerated quantities disagree."""

    exit_code = 3


class BudgetExceededError(PerdomError):
    """An enumeration would exceed the configured work budget."""

    exit_code = 4
