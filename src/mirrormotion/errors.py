"""Exception types and input checks shared across the package."""

import dataclasses
import math
import numbers


class SingularityError(ValueError):
    """A frequency-domain quantity was requested at one of its poles."""


class TailAccuracyError(RuntimeError):
    """A spectral integral is not converged at the requested cutoff frequency."""


class GridMismatchError(ValueError):
    """A filter bank was applied to data sampled on a different grid."""


class RiccatiError(RuntimeError):
    """The steady-state Riccati solution does not exist or is not stabilizing."""


def require_finite(obj) -> None:
    """Reject NaN or infinite values in a dataclass's real-valued fields,
    including the entries of tuple fields; other fields are left alone."""
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        for v in value if isinstance(value, tuple) else (value,):
            # the float test first: it is most values, and the ABC checks are slow
            if isinstance(v, float) or (
                isinstance(v, numbers.Real) and not isinstance(v, numbers.Integral)
            ):
                if not math.isfinite(v):
                    raise ValueError(f"{field.name} must be finite, got {v!r}")
