"""Exception hierarchy shared across the package.

InputError and its subclasses mark problems with user-supplied data
(files, flags, tag symbols, a model file whose priors do not cover its
counts); the CLI maps them to exit code 2.  The one runtime failure is
DeadLatticeError, a sentence with no path of nonzero probability (exit
code 1).
"""


class AmbitagError(Exception):
    pass


class InputError(AmbitagError):
    pass


class TagInventoryError(InputError):
    pass


class RuleError(InputError):
    pass


class ConversionError(InputError):
    """A multipart reading matched no conversion rule (or matched ambiguously)."""


class CorpusFormatError(InputError):
    pass


class ModelFormatError(InputError):
    pass


class ConfigError(InputError):
    pass


class InsufficientCorpusError(InputError):
    pass


class DeadLatticeError(AmbitagError):
    """Every path through a sentence lattice has probability zero."""
