"""Property tests: any float64 field, drawn as raw 64-bit patterns, decodes
from the report bit for bit, whatever its shape or memory order, and the
same report serializes to the same bytes twice."""

import binascii
import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from biconsurf import report as rp  # noqa: E402

# bit patterns where a text or float route loses bits: +-0, the smallest and
# largest subnormals, +-inf, quiet and signalling NaNs with payloads and sign
SPECIAL_BITS = [
    0x0000000000000000, 0x8000000000000000, 0x0000000000000001, 0x800FFFFFFFFFFFFF,
    0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000, 0xFFF8000000000001,
    0x7FF0000000000001, 0x7FF4000000C0FFEE, 0xFFFFFFFFFFFFFFFF, 0x3FF0000000000000,
]
ANY_BITS = st.integers(0, 2**64 - 1)


def _laid_out(draw, values, shape):
    """``values`` in ``shape``, C-ordered, F-ordered, or as grid.node_array
    lays out a field: a C-ordered buffer with the last axis outermost."""
    layout = draw(st.sampled_from(["C", "F", "node"]))
    if layout == "node":
        buf = values.reshape(shape[-1:] + shape[:-1])
        return np.moveaxis(buf, 0, -1)
    return values.reshape(shape, order=layout)


@st.composite
def fields(draw, bits):
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    n = int(np.prod(shape))
    values = np.array(draw(st.lists(bits, min_size=n, max_size=n)), dtype=np.uint64)
    return _laid_out(draw, values.view(np.float64), shape)


def _decode(d):
    return np.frombuffer(binascii.a2b_base64(d["base64"]), d["dtype"]).reshape(d["shape"])


def _check_round_trip(arr):
    r = rp.GeometryReport(meta={}, fields={"f": arr})
    text = rp.report_to_json(r)
    assert rp.report_to_json(r) == text
    got = _decode(json.loads(text)["fields"]["f"])
    assert got.shape == arr.shape
    assert got.view(np.uint64).tolist() == arr.view(np.uint64).tolist()


@settings(max_examples=200, deadline=None)
@given(fields(st.sampled_from(SPECIAL_BITS)))
def test_field_bytes_match_reference(arr):
    _check_round_trip(arr)


@settings(max_examples=300, deadline=None)
@given(fields(st.one_of(st.sampled_from(SPECIAL_BITS), ANY_BITS)))
def test_raw_bit_field_bytes_match_reference(arr):
    _check_round_trip(arr)
