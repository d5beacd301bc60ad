"""Exception taxonomy shared across the package."""


class TrafficError(Exception):
    """Base class for all ringtraffic errors."""


class ParameterError(TrafficError, ValueError):
    """A scalar argument or physical parameter violates its contract."""


class ConfigurationError(TrafficError, ValueError):
    """A scenario or run configuration is inconsistent."""


class ShapeError(TrafficError, ValueError):
    """Array arguments do not share the required shape or sampling grid."""


class RangeError(TrafficError, ValueError):
    """A query lies outside the coverage of the recorded data."""


class InsufficientDataError(TrafficError, ValueError):
    """A series does not contain enough structure for the requested statistic."""


class NumericalError(TrafficError, RuntimeError):
    """An iterative numerical procedure failed to converge."""
