"""limits.check, the one bound check, at both ends of every entry of LIMITS."""

import pytest

from psikit.errors import CapacityError
from psikit.limits import LIMITS, check


@pytest.mark.parametrize("name", sorted(LIMITS))
def test_check_keeps_the_bounds_and_refuses_past_them(name):
    command, bounds, first, ceiling = LIMITS[name]
    assert check(name, ceiling) == ceiling
    with pytest.raises(CapacityError) as refused:
        check(name, ceiling + 1)
    assert str(refused.value) == (
        f"{command}: {bounds} is {ceiling + 1}, above the ceiling {ceiling}"
    )
    if first is not None:
        assert check(name, first) == first
        with pytest.raises(ValueError) as refused:
            check(name, first - 1)
        assert str(refused.value) == (
            f"{command}: {bounds} is {first - 1}, below the first value {first}"
        )
