"""The package's exceptions, one per exit code that `cli.main` gives:

    ConfigError   2   a config value, option or combination is invalid
    DataError     3   an input file, split manifest or checkpoint is
                      malformed or contradicts itself or the data
    NumericError  4   training or inference met a non-finite value
"""


class ConfigError(Exception):
    """Exit code 2."""


class DataError(Exception):
    """Exit code 3."""


class NumericError(Exception):
    """Exit code 4."""
