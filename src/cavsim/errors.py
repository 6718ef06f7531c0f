"""Exception types shared across the simulator."""


class CavSimError(Exception):
    """Base class for all simulator errors."""


class NumericFault(CavSimError):
    """A non-finite value reached the plant or controller (bug upstream)."""


class ColdStart(CavSimError):
    """An estimator was asked to act before receiving any target beacon."""


class ConfigError(CavSimError):
    """Scenario configuration is invalid; message carries the field path."""


class BoundError(ValueError):
    """A value outside the bound declared on its config field; ``args`` is
    (file key, rule), printed as ``key: rule``."""

    def __str__(self) -> str:
        return "%s: %s" % self.args
