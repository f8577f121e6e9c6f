"""Semantic exceptions raised by the library.

Every contract violation maps to a named class so callers can distinguish
bad inputs from degenerate data and from internal faults.  All classes
derive from :class:`CatdcorError`; the input-shaped ones also derive from
``ValueError`` so generic handling still works.  Every diagnostic (what
was dropped, clamped or scored 0) leaves the package through :func:`_warn`.
"""

import os
import sys
import warnings


def _warn(message: str) -> None:
    """Warn with ``message`` as a ``RuntimeWarning`` at the innermost frame outside the package.

    The rule of Python 3.12's ``skip_file_prefixes``: the warning names the caller's line.
    """
    frame, level = sys._getframe(1), 2
    while frame and os.path.dirname(frame.f_code.co_filename) == os.path.dirname(__file__):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, RuntimeWarning, stacklevel=level)


class CatdcorError(Exception):
    """Base class for all errors raised by this package."""


class CardinalityError(CatdcorError, ValueError):
    """A categorical variable was declared with fewer than two levels."""


class DegenerateEncodingError(CatdcorError, ValueError):
    """Two categories share the same embedding point."""


class ShapeError(CatdcorError, ValueError):
    """Array dimensions do not match between related inputs."""


class DistributionError(CatdcorError, ValueError):
    """A probability table is negative or does not sum to one."""


class InsufficientSampleError(CatdcorError, ValueError):
    """The sample size is too small for the requested estimator."""


class DegenerateMarginError(CatdcorError, ValueError):
    """A margin carries no distance variation (for example a constant column)."""


class DegenerateCategoryError(CatdcorError, ValueError):
    """A category with zero probability where strictly positive mass is required."""


class DegenerateDistributionError(CatdcorError, ValueError):
    """A null distribution with no nonzero weights."""


class InsufficientReplicatesError(CatdcorError, ValueError):
    """Too few permutation replicates for a meaningful p-value."""


class InsufficientFeaturesError(CatdcorError, ValueError):
    """Too few values to fit a two-piece linear model."""


class InvalidThresholdError(CatdcorError, ValueError):
    """A selection threshold that is not strictly positive."""


class UndefinedAUCError(CatdcorError, ValueError):
    """ROC AUC requested when only one class is present."""


class InfeasibleSettingError(CatdcorError, ValueError):
    """A simulation setting admits no valid joint distribution under the
    requested construction."""


class ConfigurationError(CatdcorError, ValueError):
    """Invalid or incomplete run configuration or metadata."""


class LabelError(CatdcorError, ValueError):
    """A data value outside the declared level set of its column."""


class ParseError(CatdcorError, ValueError):
    """Malformed input file."""


class InternalConsistencyError(CatdcorError, RuntimeError):
    """A quantity violated an identity that should hold up to rounding;
    indicates a bug rather than bad input."""
