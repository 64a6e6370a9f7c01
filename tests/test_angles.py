import math

from hypothesis import given, strategies as st

from pfguide.angles import unwrap_near, wrap_angle

finite_angles = st.floats(min_value=-50.0, max_value=50.0,
                          allow_nan=False, allow_infinity=False)


def wrap_ref(a: float) -> float:
    """Independent wrap oracle: steps of 2 pi into (-pi, pi]."""
    while a > math.pi:
        a -= 2.0 * math.pi
    while a <= -math.pi:
        a += 2.0 * math.pi
    return a


def test_wrap_extremes():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(3.0) == 3.0  # in-range values pass through bit-exactly


@given(finite_angles)
def test_wrap_matches_reference(a):
    w = wrap_angle(a)
    assert -math.pi < w <= math.pi
    assert abs(w - wrap_ref(a)) < 1e-9 or abs(abs(w - wrap_ref(a)) - 2 * math.pi) < 1e-9


@given(finite_angles)
def test_wrap_idempotent(a):
    assert wrap_angle(wrap_angle(a)) == wrap_angle(a)


@given(finite_angles, finite_angles)
def test_unwrap_near_is_equivalent_angle(a, ref):
    u = unwrap_near(a, ref)
    assert abs(u - ref) <= math.pi + 1e-12
    assert abs(wrap_ref(u - a)) < 1e-9
