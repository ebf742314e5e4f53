"""Shared exception types.

The CLI maps InputError and BudgetError to exit code 2; everything else is
a genuine crash and propagates.
"""


class SyzkitError(Exception):
    """Base class for errors raised by this package."""


class InputError(SyzkitError, ValueError):
    """Malformed input: bad files, bad flags, violated preconditions."""


class ConsistencyError(SyzkitError):
    """Two independent computational routes disagreed.

    This is never a user error; it means a bug somewhere in the package,
    and the message carries enough of the offending input to replay it.
    """


class BudgetError(SyzkitError):
    """A computation would exceed its configured size budget."""
