"""Property test: any finite float64 field serializes to the bytes of the
element-by-element route, whatever its shape, memory order or repeats."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from biconsurf import report as rp  # noqa: E402
from test_report import _emit_direct, _emit_reference  # noqa: E402

# signed zeros, the smallest subnormal, extremes and a value with no short
# decimal form; drawn with repeats, so most arrays repeat values
POOL = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, -0.1, 2.0 / 3.0, 1.0]


@st.composite
def fields(draw):
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    values = draw(st.lists(st.sampled_from(POOL), min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))))
    order = draw(st.sampled_from("CF"))
    return np.array(values, dtype=np.float64).reshape(shape, order=order)


def _shaped(draw, values, rows, cols):
    shape = draw(st.sampled_from([(rows * cols,), (rows, cols), (rows, 1, cols)]))
    order = draw(st.sampled_from("CF"))
    return np.array(values, dtype=np.float64).reshape(shape, order=order)


@st.composite
def distinct_fields(draw):
    """8-40 finite floats, more than 1/8 of them distinct, so that they are
    written by the direct pass; the rest repeat them."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(8, 10))
    n = rows * cols
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=n, max_size=n, unique=True))
    distinct = draw(st.integers(n // 8 + 1, n))
    values = draw(st.permutations(values[:distinct] + [
        values[draw(st.integers(0, distinct - 1))] for _ in range(n - distinct)]))
    return _shaped(draw, values, rows, cols)


# raw 64-bit patterns with any finite exponent field, subnormals included
FINITE_BITS = st.integers(0, 2**64 - 1).filter(lambda b: (b >> 52) & 0x7FF != 0x7FF)


@st.composite
def raw_bit_fields(draw):
    """8-40 finite doubles drawn as raw bit patterns, more than 3/4 of them
    distinct."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(8, 10))
    n = rows * cols
    bits = draw(st.lists(FINITE_BITS, min_size=n, max_size=n, unique=True))
    for i in range(draw(st.integers(0, (n - 1) // 4))):  # a few repeats
        bits[i] = bits[-1 - i]
    return _shaped(draw, np.array(bits, dtype=np.uint64).view(np.float64), rows, cols)


@settings(max_examples=200, deadline=None)
@given(fields(), st.integers(0, 2))
def test_field_bytes_match_reference(arr, indent):
    assert _emit_direct(arr, indent) == _emit_reference(arr, indent)


@settings(max_examples=200, deadline=None)
@given(distinct_fields(), st.integers(0, 2))
def test_distinct_field_bytes_match_reference(arr, indent):
    assert rp._distinct_strings(arr) is None
    assert _emit_direct(arr, indent) == _emit_reference(arr, indent)


@settings(max_examples=300, deadline=None)
@given(raw_bit_fields(), st.integers(0, 2))
def test_raw_bit_field_bytes_match_reference(arr, indent):
    assert rp._distinct_strings(arr) is None
    assert _emit_direct(arr, indent) == _emit_reference(arr, indent)
