"""Exception types and input checks shared across the package."""

import dataclasses
import functools
import math
import numbers


class SingularityError(ValueError):
    """A frequency-domain quantity was requested at one of its poles."""


class TailAccuracyError(RuntimeError):
    """A spectral integral is not converged at the requested cutoff frequency."""


class GridMismatchError(ValueError):
    """A filter bank was applied to data sampled on a different grid."""


class RiccatiError(RuntimeError):
    """The tracker has no steady state: no stabilizing Riccati solution, no
    nonnegative phase spectrum or converged integral, or no calibration lock."""


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    """The field names of a dataclass type, looked up once per type."""
    return tuple(field.name for field in dataclasses.fields(cls))


def require_finite(obj) -> None:
    """Reject NaN or infinite values in a dataclass instance's real-valued
    fields, including the entries of tuple fields; other fields are left alone."""
    for name in _field_names(type(obj)):
        value = getattr(obj, name)
        for v in value if isinstance(value, tuple) else (value,):
            # the float test first: it is most values, and the ABC checks are slow
            if isinstance(v, float) or (
                isinstance(v, numbers.Real) and not isinstance(v, numbers.Integral)
            ):
                if not math.isfinite(v):
                    raise ValueError(f"{name} must be finite, got {v!r}")
