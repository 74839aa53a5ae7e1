"""Host-side FP16 emulation: bit-exactness and the identity-center path.

:func:`repro.core.dataflow.round_to_fp16` must equal NumPy's float16
round trip ``a.astype(np.float16).astype(np.float32)`` bit for bit
(compared as uint32 views, so signed zeros and NaN payloads count), and
must never hand back a buffer aliasing its input.
"""

import numpy as np
import pytest

from repro.core.dataflow import (
    MovementConfig,
    _cast,
    execute_gather_matmul_scatter,
    round_to_fp16,
)
from repro.core.grouping import make_plan
from repro.gpu.device import RTX_2080TI
from repro.gpu.memory import DType
from repro.gpu.timeline import Profile
from repro.mapping.kmap import CoordIndex, KernelMap, build_kmap, identity_kmap

# overflow lanes are deliberate here; NumPy warns on every such cast
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered in cast:RuntimeWarning"
)


def numpy_round_trip(a):
    return a.astype(np.float16).astype(np.float32)


def assert_bit_exact(a):
    got = round_to_fp16(a)
    want = numpy_round_trip(a)
    assert got.dtype == np.float32
    assert got.shape == want.shape
    g, w = got.view(np.uint32), want.view(np.uint32)
    bad = np.flatnonzero(g.reshape(-1) != w.reshape(-1))
    if bad.size:
        src = np.ascontiguousarray(a).reshape(-1)
        i = bad[0]
        raise AssertionError(
            f"{bad.size} lanes differ; first: input {src[i]!r} -> "
            f"{g.reshape(-1)[i]:#010x}, NumPy {w.reshape(-1)[i]:#010x}"
        )


def from_bits(bits):
    return np.asarray(bits, dtype=np.uint64).astype(np.uint32).view(np.float32)


class TestBitExact:
    def test_every_rounding_boundary(self):
        # kept mantissa (10 bits) with both parities of bit 13, including
        # the all-ones patterns whose round-up carries into the exponent
        kept = np.array([0, 1, 2, 3, 0x1FE, 0x1FF, 0x200, 0x3FE, 0x3FF])
        low = np.array([0, 1, 0x0FFE, 0x0FFF, 0x1000, 0x1001, 0x1002, 0x1FFF])
        mant = ((kept[:, None] << 13) | low[None, :]).reshape(-1)
        exps = np.arange(256)
        signs = np.array([0, 1])
        bits = (
            (signs[:, None, None] << 31)
            | (exps[None, :, None] << 23)
            | mant[None, None, :]
        )
        assert_bit_exact(from_bits(bits.reshape(-1)))

    def test_strided_sweep_of_the_bit_space(self):
        bits = np.arange(0, 1 << 32, 4093, dtype=np.uint64)
        assert_bit_exact(from_bits(bits))
        # a second phase, so the sweep is not one residue class
        assert_bit_exact(from_bits(bits[:-1] + 1237))

    def test_special_values(self):
        values = np.array(
            [
                0.0, -0.0, 65504.0, -65504.0, 65519.0, 65519.996, 65520.0,
                -65520.0, 65536.0, 1e30, np.inf, -np.inf,
                2.0**-14, -(2.0**-14), 2.0**-24, 2.0**-25, 3 * 2.0**-26,
                2.0**-14 - 2.0**-25, 2.0**-14 - 2.0**-26, 2.0**-14 - 2.0**-27,
                1e-8, -1e-8, 1e-40, -1e-45,
            ],
            dtype=np.float32,
        )
        assert_bit_exact(values)
        # the whole half-subnormal range and just above it, densely
        lo, hi = 0x33000000 - 4096, 0x38800000 + 4096
        sub = np.arange(lo, hi, 97, dtype=np.uint64)
        assert_bit_exact(from_bits(sub))
        assert_bit_exact(from_bits(sub | (1 << 31)))

    def test_nan_payloads(self):
        payloads = [1, 2, 0x1000, 0x1FFF, 0x2000, 0x3FFFFF, 0x400000,
                    0x400001, 0x7FE000, 0x7FF000, 0x7FFFFF]
        bits = [s | 0x7F800000 | p for s in (0, 1 << 31) for p in payloads]
        assert_bit_exact(from_bits(bits))

    def test_mixed_lanes_in_one_array(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((513, 7)).astype(np.float32)
        a[::5] *= 1e-5  # half subnormals
        a[1::11] *= 1e5  # overflow to half infinity
        a[2::13] = 0.0
        a[3::17] = np.nan
        a[4::19] = -np.inf
        assert_bit_exact(a)

    def test_relu_like_features_and_weights(self):
        rng = np.random.default_rng(4)
        feats = np.maximum(rng.standard_normal((3000, 32)), 0).astype(np.float32)
        weights = (rng.standard_normal((27, 32, 64)) * 0.03).astype(np.float32)
        assert_bit_exact(feats)
        assert_bit_exact(weights)

    def test_non_contiguous_inputs(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((64, 48)).astype(np.float32)
        for view in (a[::2], a[:, 1::3], a.T, a[::-1], a[5:40, 7]):
            assert not view.flags.c_contiguous
            assert_bit_exact(view)

    def test_zero_dim_and_empty(self):
        assert_bit_exact(np.full((), 1.0 + 2.0**-11 + 2.0**-12, dtype=np.float32))
        assert_bit_exact(np.array(np.float32(3.14159)))
        assert_bit_exact(np.empty((0, 5), dtype=np.float32))

    @pytest.mark.parametrize("dtype", [np.float64, np.float16, ">f4"])
    def test_other_dtypes_take_numpy_conversion(self, dtype):
        rng = np.random.default_rng(6)
        a = (rng.standard_normal(4096) * 10.0 ** rng.integers(-9, 6, 4096))
        # float64 values that round differently once vs. via float32
        a[:2] = [1.0 + 2.0**-11 + 2.0**-40, 1.0 + 2.0**-11 - 2.0**-40]
        assert_bit_exact(a.astype(dtype))


class TestNoAliasing:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.float16])
    def test_result_never_shares_memory(self, dtype):
        a = np.linspace(-3, 3, 600).reshape(20, 30).astype(dtype)
        keep = a.copy()
        out = round_to_fp16(a)
        assert not np.shares_memory(out, a)
        out[...] = 7.0  # a fault site flipping bits in the cast buffer
        assert np.array_equal(a, keep)

    def test_fp16_cast_of_weights_is_a_fresh_buffer(self):
        w = np.full((27, 4, 4), 0.5, dtype=np.float32)
        x = _cast(w, DType.FP16)
        assert not np.shares_memory(x, w)
        x.view(np.uint32)[0, 0, 0] ^= 1 << 30
        assert (w == 0.5).all()


def submanifold_case(seed=0, n=300, extent=9, c_in=8, c_out=6):
    rng = np.random.default_rng(seed)
    xyz = np.unique(rng.integers(0, extent, size=(n, 3)), axis=0)
    coords = np.concatenate(
        [np.zeros((xyz.shape[0], 1), dtype=np.int64), xyz], axis=1
    ).astype(np.int32)
    feats = np.maximum(rng.standard_normal((len(coords), c_in)), 0).astype(
        np.float32
    )
    weights = (rng.standard_normal((27, c_in, c_out)) * 0.2).astype(np.float32)
    index = CoordIndex.build(coords, backend="hash")
    return coords, feats, weights, index


class TestIdentityCenter:
    def test_submanifold_and_identity_maps_have_identity_center(self):
        coords, _, _, index = submanifold_case()
        assert build_kmap(coords, index, coords, 3).center_is_identity
        assert identity_kmap(3, 17).center_is_identity

    def test_strided_and_permuted_centers_are_not_identity(self):
        coords, _, _, index = submanifold_case()
        down = np.unique(coords // np.array([1, 2, 2, 2]), axis=0).astype(np.int32)
        assert not build_kmap(coords, index, down, 2, stride=2).center_is_identity
        kmap = build_kmap(coords, index, coords, 3)
        c = kmap.center_index
        perm = kmap.clone()
        perm.in_indices[c] = perm.in_indices[c][::-1].copy()
        assert not perm.center_is_identity

    def test_decided_once_per_map(self, monkeypatch):
        coords, _, _, index = submanifold_case()
        kmap = build_kmap(coords, index, coords, 3)
        assert kmap.center_is_identity
        calls = []
        monkeypatch.setattr(
            np, "array_equal", lambda *a, **k: calls.append(a) or False
        )
        assert kmap.center_is_identity  # memoized: not re-checked
        assert not calls

    @pytest.mark.parametrize("dtype", [DType.FP32, DType.FP16, DType.INT8])
    def test_shortcut_is_bit_identical_to_the_general_path(self, dtype, monkeypatch):
        coords, feats, weights, index = submanifold_case(seed=1)

        def run():
            kmap = build_kmap(coords, index, coords, 3)
            plan = make_plan("adaptive", kmap.sizes, 3, kmap.stride)
            return execute_gather_matmul_scatter(
                feats, weights, kmap, plan, MovementConfig(dtype=dtype),
                RTX_2080TI, Profile(), skip_center=True,
            )

        fast = run()
        monkeypatch.setattr(
            KernelMap, "center_is_identity", property(lambda self: False)
        )
        general = run()
        assert np.array_equal(fast.view(np.uint32), general.view(np.uint32))
