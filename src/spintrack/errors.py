"""Exception taxonomy shared across the toolkit.

The CLI maps these onto distinct exit codes, so raise the most specific
class that applies.
"""


class SpintrackError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(SpintrackError):
    """Invalid parameters, scenario keys, or step-size guards violated."""


class DimensionError(ConfigurationError):
    """Operands with incompatible or non-square shapes."""


class NumericalError(SpintrackError):
    """Numerical failure during an otherwise valid computation."""


class DivergenceError(NumericalError):
    """Integration produced non-finite state; message names the time."""


class InstabilityError(NumericalError):
    """Positivity/consistency violated beyond tolerance; try a smaller step."""


class UnsupportedCaseError(ConfigurationError):
    """Closed form requested outside its domain of validity."""
