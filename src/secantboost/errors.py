"""Exceptions that map onto the CLI's exit codes.

Keeping them in one module lets library code raise them without importing
the CLI and lets the CLI translate them without importing every module.
"""


class ConfigError(Exception):
    """Bad configuration: unknown loss, invalid parameter, malformed config file."""


class DataError(Exception):
    """Bad data: unreadable file, missing values, labels outside {-1,+1}/{0,1}."""


class ConstantLossError(Exception):
    """The loss is constant on every probed chord; there is nothing to fit."""


class DiscontinuityCollisionError(Exception):
    """A declared jump point could not be avoided by nudging the step size, or
    the step-size search or the step-acceptance guard stalled (200 halvings,
    for the search counted below its default start)."""
