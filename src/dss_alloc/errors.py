"""Exception types shared across the package."""


class DssAllocError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(DssAllocError, ValueError):
    """A parameter value or combination is malformed."""


class InfeasibleError(DssAllocError):
    """The parameters describe no realizable allocation."""


class NoClosedFormError(DssAllocError):
    """The requested quantity has no closed form; evaluate the general sum instead."""
