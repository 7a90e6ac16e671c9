"""Property tests: any float64 field, drawn as raw 64-bit patterns, decodes
from the report bit for bit, whatever its shape or memory order, and the
same report serializes to the same bytes twice. A residual's L-inf is the
max of |f| over the interior nodes, bit for bit."""

import binascii
import functools
import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from biconsurf import checks, report as rp  # noqa: E402
from biconsurf.corpus import make_builtin, tabulate  # noqa: E402
from biconsurf.immersion import compute_geometry  # noqa: E402
from lemmas import interior_mask  # noqa: E402

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


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


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


# a finite field whose squares stay in the float range: the norms square it
NORM_VALUES = st.one_of(st.just(0.0), st.floats(1e-150, 1e150), st.floats(-1e150, -1e-150))


@functools.lru_cache(maxsize=None)
def _geometries():
    """An analytic jet, normed over every node, and its tabulation, normed
    over the interior left by the FD boundary band."""
    jet = make_builtin("graph", n=12)
    return compute_geometry(jet), compute_geometry(tabulate(jet))


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_interior_linf_is_max_abs(data):
    geom = data.draw(st.sampled_from(_geometries()))
    f = data.draw(hnp.arrays(np.float64, geom.grid.shape, elements=NORM_VALUES))
    want = np.max(np.abs(f[interior_mask(geom.grid, geom.boundary_margin)]))
    l2, linf = checks.interior_norms(f, geom)
    assert _bits(linf) == _bits(want)
    assert 0.0 <= l2 <= linf * (1.0 + 1e-12)
    # a squared norm: L-inf is the root of its max, the same bits
    sq = f * f
    l2_sq, linf_sq = checks.interior_norms(sq, geom, squared=True)
    assert _bits(linf_sq) == _bits(
        math.sqrt(np.max(sq[interior_mask(geom.grid, geom.boundary_margin)])))
    assert 0.0 <= l2_sq <= linf_sq * (1.0 + 1e-12)
