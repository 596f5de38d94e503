"""Exception hierarchy shared across the package, and the one range check
that more than one setting shares.

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


class ZeroPriorError(InputError):
    """A tag whose prior in its own family is 0 but which a surface counts or
    a class distribution gives mass: `source` is "word surface",
    "punct-table surface" or "class", `key` the surface or the class name,
    and `tag` the tag's index."""

    def __init__(self, message: str, source: str, key: str, tag: int):
        super().__init__(message)
        self.source, self.key, self.tag = source, key, tag


class ConfigError(InputError):
    pass


class InsufficientCorpusError(InputError):
    pass


class DeadLatticeError(AmbitagError):
    """Every path through a sentence lattice has probability zero."""


def check_blend_strength(k: float, name: str) -> None:
    """Raise ConfigError unless `k`, the lexical or transition blend strength
    that the setting `name` holds, is finite and >= 0."""
    if not 0.0 <= k < float("inf"):
        raise ConfigError(f"blend strength {name} must be finite and >= 0, got {k}")
