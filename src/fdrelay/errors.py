"""Exception types shared across the package."""


class DegenerateChannelError(ValueError):
    """A channel vector/matrix needed by a precoder has (numerically) zero norm."""


class InfeasibleSchemeError(ValueError):
    """The scheme cannot be realized with the given antenna counts."""


class ConfigError(ValueError):
    """The experiment configuration is malformed or inconsistent."""
