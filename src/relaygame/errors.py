"""Exception hierarchy, CLI exit codes and the one range check.

One class per non-zero exit code: ValidationError 2, InfeasibleEquilibriumError 3,
and their base RelayGameError 4 for any other refusal.

Every range rule on a field or a scalar argument is a ``check_range`` call,
so each bound is written once, NaN and +-inf fail it, and the error names the
field: the scenario loader prefixes that name with the field's JSON path.
"""

import math


class RelayGameError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(RelayGameError):
    """Bad input: field out of range, malformed scenario file, unknown preset.

    ``field`` names the offending field when the message starts with it.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class InfeasibleEquilibriumError(RelayGameError):
    """No equilibrium to report: no sensible-target partition exists, or the
    closed-form strategies leave their validity region (refusing to clamp)."""


def check_range(name: str, value, lo, hi=math.inf,
                lo_open: bool = False, hi_open: bool = False) -> None:
    """Raise a ValidationError for field ``name`` unless ``value`` lies between
    ``lo`` and ``hi``, each end closed unless marked open; with no upper bound
    it reads as ``>= lo``.  Written so that NaN, which compares false, and
    +-inf fail every range."""
    if ((lo < value if lo_open else lo <= value)
            and (value < hi if hi_open else value <= hi)
            and -math.inf < value < math.inf):
        return
    # An integer bound is written exactly: 2 ** 53 with :g reads 9.0072e+15.
    lo_s, hi_s = (str(b) if isinstance(b, int) else f"{b:g}" for b in (lo, hi))
    if hi == math.inf:
        bound = f"{'>' if lo_open else '>='} {lo_s}"
    else:
        bound = f"in {'(' if lo_open else '['}{lo_s}, {hi_s}{')' if hi_open else ']'}"
    raise ValidationError(f"{name} must be {bound}, got {value}", field=name)


EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_RUNTIME = 4
