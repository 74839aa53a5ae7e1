"""Price-only execution against full execution (differential).

A context built with a ``price_memo`` skips the feature arithmetic and
shares cold mapping work through the memo.  Modeled latency depends
only on maps, shapes, plans and dtypes, so its ``KernelRecord`` stream
(name, stage, time, bytes, flops, launches and span path) and its
cost-side counters must equal the full path's, exactly, for every zoo
model, engine, device and storage dtype, cold and warm.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import MinkowskiEngineLike, SpConvLike
from repro.core.engine import (
    BaseEngine,
    BaselineEngine,
    EngineConfig,
    ExecutionContext,
    TorchSparseEngine,
)
from repro.gpu.device import RTX_2080TI, RTX_3090
from repro.gpu.memory import DType
from repro.mapping.cache import MappingCache
from repro.models import MODEL_ZOO
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.robust.errors import ConfigError
from repro.serve.cluster import ORACLE_MEMO_BYTES

SCALE = 0.02
ENGINES = (TorchSparseEngine, BaselineEngine, MinkowskiEngineLike, SpConvLike)
DEVICES = (RTX_2080TI, RTX_3090)
DTYPES = (DType.FP32, DType.FP16, DType.INT8)
#: registry series that only pricing writes: GEMM cost, movement
#: traffic, grouping plans and the dataflow dispatch
COST_SIDE = ("gemm.", "mem.", "grouping.", "dataflow.", "engine.dispatch")


def cost_side(reg: MetricsRegistry) -> list:
    return [m for m in reg.collect() if m["name"].startswith(COST_SIDE)]


def forward(model, x, engine, device, mapcache=None, price_memo=None):
    """Records, cost-side counters and output of one forward."""
    reg = MetricsRegistry()
    with use_registry(reg):
        ctx = ExecutionContext(
            engine=engine, device=device, mapcache=mapcache, price_memo=price_memo
        )
        out = model(x, ctx)
    return ctx.profile.records, cost_side(reg), out


def cold_and_warm(model, x, engine, device, price_memo=None):
    """A cold frame through a fresh device cache, then a warm frame of
    the same scene through it."""
    cache = MappingCache()
    cold = forward(model, x, engine, device, cache, price_memo)
    warm = forward(model, x, engine, device, cache, price_memo)
    return cold, warm


def shapes(out):
    """Output structure without values: coordinates and feature shapes
    of a sparse tensor, array shapes of a detection head's dict."""
    if isinstance(out, dict):
        return {k: np.shape(v) for k, v in out.items()}
    return out.coords.tobytes(), out.feats.shape


def assert_same_pricing(full, price):
    records, counters, out = full
    p_records, p_counters, p_out = price
    assert p_records == records
    assert p_counters == counters
    assert shapes(p_out) == shapes(out)


@pytest.mark.parametrize("k", range(len(MODEL_ZOO)), ids=[e.key for e in MODEL_ZOO])
def test_price_only_matches_full_execution(k):
    """Every engine x dtype on each zoo model, cold and warm.  The
    device alternates over engines, dtypes and models, so each model
    covers every (engine, device) and (dtype, device) pair and the zoo
    covers every (engine, dtype, device) triple."""
    entry = MODEL_ZOO[k]
    model = entry.make_model()
    x = entry.make_dataset().sample_tensor(seed=0, scale=SCALE)
    # one memo for every price-only forward of the scene, as the latency
    # oracle shares it across engines, dtypes, devices and temperatures
    memo = MappingCache(max_bytes=ORACLE_MEMO_BYTES, metric="test.memo")
    for i, make in enumerate(ENGINES):
        base = make().config
        for j, dtype in enumerate(DTYPES):
            engine = BaseEngine(config=replace(base, dtype=dtype))
            device = DEVICES[(i + j + k) % len(DEVICES)]
            full = cold_and_warm(model, x, engine, device)
            price = cold_and_warm(model, x, engine, device, memo)
            for f, p in zip(full, price):
                assert_same_pricing(f, p)


def test_memo_hit_on_second_spec_equals_fresh_cold_forward():
    entry = MODEL_ZOO[0]
    model = entry.make_model()
    x = entry.make_dataset().sample_tensor(seed=1, scale=0.05)
    engine = TorchSparseEngine()
    shared = MappingCache(max_bytes=ORACLE_MEMO_BYTES, metric="test.memo")
    forward(model, x, engine, RTX_2080TI, price_memo=shared)
    reg = MetricsRegistry()
    with use_registry(reg):
        ctx = ExecutionContext(engine=engine, device=RTX_3090, price_memo=shared)
        model(x, ctx)
    hits = {
        m["labels"]["kind"]: m["value"]
        for m in reg.collect()
        if m["name"] == "test.memo.hits"
    }
    misses = [m for m in reg.collect() if m["name"] == "test.memo.misses"]
    # every coordinate set, table and kernel map came out of the memo
    assert set(hits) == {"coords", "index", "kmap"} and not misses
    fresh = forward(
        model, x, engine, RTX_3090, price_memo=MappingCache(metric="test.memo")
    )
    full = forward(model, x, engine, RTX_3090)
    assert ctx.profile.records == fresh[0] == full[0]
    # the replayed cold records are priced on the 3090, not the 2080Ti
    cold_2080 = forward(model, x, engine, RTX_2080TI)[0]
    assert ctx.profile.total_time != sum(r.time for r in cold_2080)


def test_price_only_outputs_are_placeholders():
    entry = MODEL_ZOO[0]
    model = entry.make_model()
    x = entry.make_dataset().sample_tensor(seed=0, scale=SCALE)
    _, _, out = forward(
        model, x, TorchSparseEngine(), RTX_2080TI, price_memo=MappingCache()
    )
    assert out.feats.dtype == np.float32
    assert not out.feats.any()


def test_price_only_context_refuses_robustness():
    hardened = BaseEngine(config=EngineConfig.hardened())
    with pytest.raises(ConfigError, match="price-only"):
        ExecutionContext(engine=hardened, price_memo=MappingCache())
    # the full path keeps accepting it
    ExecutionContext(engine=hardened)
