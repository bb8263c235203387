"""Exception types shared across the package.

The CLI maps these to exit codes: precondition/usage problems exit 2,
failed verifications exit 1, resource guards exit 3.
"""


class PreconditionError(ValueError):
    """An operation was called outside its stated domain."""


class ResourceLimitError(RuntimeError):
    """A configured resource guard (conductor bound, column cap, flip cap)
    was exceeded."""


class ConsistencyError(RuntimeError):
    """An internal exact identity failed; indicates a defect upstream."""
