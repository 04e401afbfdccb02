"""Input checks shared across the package."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from mirrormotion.errors import require_finite


@dataclasses.dataclass
class Holder:
    value: object


@pytest.mark.parametrize(
    "value, finite",
    [
        pytest.param(math.nan, False, id="math.nan-False"),
        (-math.inf, False),
        pytest.param(np.float64("nan"), False, id="np.float64-nan-False"),
        (np.float64("inf"), False),
        (np.float32("nan"), False),  # a Real that is no float: the ABC path
        (1.5, True),
        (np.float64(2.0), True),
        (np.float32(2.0), True),
        (Fraction(1, 3), True),
        (7, True),
        (True, True),
        ("nan", True),  # not a number: left alone
        (None, True),
        ((1.0, math.nan), False),
        ((1.0, 2, Fraction(1, 2)), True),
    ],
)
def test_require_finite(value, finite):
    if finite:
        require_finite(Holder(value))
    else:
        with pytest.raises(ValueError, match="value must be finite"):
            require_finite(Holder(value))


def test_field_names_follow_the_instance_type():
    # field names are looked up once per type: a subclass's own field is
    # checked after its base was, and a non-dataclass is still refused
    @dataclasses.dataclass
    class Wider(Holder):
        extra: object = 0.0

    require_finite(Holder(1.0))
    with pytest.raises(ValueError, match="extra must be finite"):
        require_finite(Wider(1.0, math.nan))
    with pytest.raises(TypeError):
        require_finite(1.0)
