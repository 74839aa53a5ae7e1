"""Dataflow execution: gather-matmul-scatter, fetch-on-demand, pooling.

Numerics here are exact NumPy; latency comes from the transaction model
(:mod:`repro.gpu.memory`) and the GEMM model (:mod:`repro.gpu.gemm`).
Each dataflow has a pricing part (``price_*``: every record and
cost-side metric, read off the map, plan, widths and dtype) and a
numerics part; the full ``execute_*`` path drives the numerics through
the same pricing code, and a price-only context calls the pricing part
alone.

Access-order modeling (Figure 9).  Each movement kernel has a *point
side* (rows of the feature tensors, indexed by the map) and a *buffer
side* (the staging matrices fed to GEMM):

* **weight-stationary** (baseline): the point side is visited in map
  order — every index is unique within one offset, so there is no reuse
  and the row accesses are random (``RANDOM_ROW_EFF``); the buffer side
  streams.
* **locality-aware** (TorchSparse): gather walks inputs in
  input-stationary order (each input row read from DRAM exactly once,
  fanned out from registers) and scatter walks outputs in
  output-stationary order (partials reduced in registers, each output
  row written once).  The point side becomes streaming; the buffer side
  becomes random.

The row *counts* therefore change from ``|M|`` to ``N`` on the point
side — that, plus which side eats the random-access penalty, reproduces
the paper's Table 3 ladder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.grouping import GroupingPlan
from repro.gpu.device import GPUSpec
from repro.gpu.gemm import bmm_cost, mm_cost, record_gemm_cost, sequential_cost
from repro.gpu.memory import (
    DType,
    MemoryAccessPattern,
    movement_time,
    record_traffic,
    traffic,
)
from repro.gpu.timeline import KernelRecord, Profile
from repro.mapping.kmap import KernelMap
from repro.obs.metrics import get_registry
from repro.robust.faults import (
    get_injector,
    maybe_bitflip_features,
    maybe_bitflip_weights,
    maybe_inject_matmul_nan,
)

#: Transaction efficiency of row-granular random access (rows usually
#: shorter than / unaligned to 128-byte transactions).
RANDOM_ROW_EFF = 0.75

#: Efficiency penalty on the scatter buffer when gathers/scatters are
#: interleaved per offset (unfused): the cache keeps evicting the buffer
#: type it is about to need (Figure 9a discussion).
UNFUSED_BUFFER_EFF = 0.92

#: Compute efficiency of the fetch-on-demand dataflow *relative to a
#: tiled GEMM at the same occupancy*: the multiply runs as per-entry dot
#: products on CUDA cores with no staging/tiling reuse and no
#: tensor-core path.  The occupancy factor itself is applied separately,
#: which is what produces the small/large-workload crossover: at tiny
#: sizes both paths are occupancy-bound and skipping the staging
#: buffers wins; at scale the tiled GEMM pulls ahead.
FETCH_ON_DEMAND_EFF = 0.45


@dataclass(frozen=True)
class MovementConfig:
    """Data-movement optimization switches (Table 3's four columns)."""

    dtype: DType = DType.FP32
    vectorized: bool = False
    fused: bool = False
    locality_aware: bool = False

    @property
    def pattern(self) -> MemoryAccessPattern:
        if self.vectorized and self.dtype is not DType.FP32:
            return MemoryAccessPattern.VECTORIZED
        return MemoryAccessPattern.SCALAR


def _non_center_offsets(kmap: KernelMap, skip_center: bool) -> list:
    center = kmap.center_index if skip_center else None
    return [
        n
        for n in range(kmap.volume)
        if n != center and len(kmap.in_indices[n]) > 0
    ]


def gather_record(
    kmap: KernelMap,
    c_in: int,
    cfg: MovementConfig,
    device: GPUSpec,
    skip_center: bool,
    emit: bool = False,
) -> KernelRecord:
    """Price the gather stage of one layer.

    ``emit`` publishes the traffic to the metrics registry; execution
    paths set it, cost probes (dispatch comparisons) leave it off.
    """
    offsets = _non_center_offsets(kmap, skip_center)
    total = int(sum(len(kmap.in_indices[n]) for n in offsets))
    dtype = _movement_dtype(cfg.dtype, "gather")
    if cfg.locality_aware:
        # input-stationary: each input row read once (streaming), buffer
        # writes land at neighbor positions (random)
        reads = traffic(kmap.n_in, c_in, dtype, cfg.pattern)
        writes = traffic(total, c_in, dtype, cfg.pattern)
        t = movement_time(reads, device.dram_bandwidth) + movement_time(
            writes, device.dram_bandwidth
        ) / RANDOM_ROW_EFF
    else:
        # weight-stationary: random point-side reads, streaming buffer writes
        reads = traffic(total, c_in, dtype, cfg.pattern)
        writes = traffic(total, c_in, dtype, cfg.pattern)
        t = (
            movement_time(reads, device.dram_bandwidth) / RANDOM_ROW_EFF
            + movement_time(writes, device.dram_bandwidth)
        )
    launches = 1 if cfg.fused else max(1, len(offsets))
    t += launches * device.launch_overhead
    if emit:
        record_traffic(reads, "gather")
        record_traffic(writes, "gather")
    return KernelRecord(
        name="gather",
        stage="gather",
        time=t,
        bytes_moved=reads.bytes_moved + writes.bytes_moved,
        launches=launches,
    )


def scatter_record(
    kmap: KernelMap,
    c_out: int,
    cfg: MovementConfig,
    device: GPUSpec,
    skip_center: bool,
    emit: bool = False,
) -> KernelRecord:
    """Price the scatter-accumulate stage of one layer (``emit`` as in
    :func:`gather_record`)."""
    offsets = _non_center_offsets(kmap, skip_center)
    total = int(sum(len(kmap.out_indices[n]) for n in offsets))
    dtype = _movement_dtype(cfg.dtype, "scatter")
    if cfg.locality_aware:
        # output-stationary: random buffer reads, each output row written once
        reads = traffic(total, c_out, dtype, cfg.pattern)
        writes = traffic(kmap.n_out, c_out, dtype, cfg.pattern)
        t = movement_time(reads, device.dram_bandwidth) / RANDOM_ROW_EFF + (
            movement_time(writes, device.dram_bandwidth)
        )
    else:
        # weight-stationary: streaming buffer reads (cache-polluted when
        # unfused), random accumulating writes to the output rows
        reads = traffic(total, c_out, dtype, cfg.pattern)
        writes = traffic(total, c_out, dtype, cfg.pattern)
        buffer_eff = 1.0 if cfg.fused else UNFUSED_BUFFER_EFF
        t = (
            movement_time(reads, device.dram_bandwidth) / buffer_eff
            + movement_time(writes, device.dram_bandwidth) / RANDOM_ROW_EFF
        )
    launches = 1 if cfg.fused else max(1, len(offsets))
    t += launches * device.launch_overhead
    if emit:
        record_traffic(reads, "scatter")
        record_traffic(writes, "scatter")
    return KernelRecord(
        name="scatter",
        stage="scatter",
        time=t,
        bytes_moved=reads.bytes_moved + writes.bytes_moved,
        launches=launches,
    )


#: ``2 * |x|`` float32 bit patterns (the sign shifted out) bounding the
#: lanes :func:`round_to_fp16` rounds itself: below ``2**-14`` half
#: precision is subnormal; from 65520 up a value rounds to half infinity
#: (inf and NaN patterns lie above that too).
_HALF_NORMAL_MIN_2X = 0x38800000 << 1
_HALF_OVERFLOW_2X = 0x477FF000 << 1


def round_to_fp16(a: np.ndarray) -> np.ndarray:
    """``a`` rounded to half precision, returned as a fresh float32 array.

    Bit for bit equal to ``a.astype(np.float16).astype(np.float32)``,
    which NumPy runs with scalar code at 8-21 ns per element.  For a
    float32 input, rounding the bit pattern to 10 mantissa bits,
    round-to-nearest-even, is a handful of in-place uint32 passes::

        r = ((b >> 13) & 1) + 0x0FFF + b;  r &= 0xFFFFE000

    (the carry out of the mantissa bumps the exponent, which is exactly
    what rounding up to the next binade does).  That is correct wherever
    the result is a normal half: ``2**-14 <= |x| < 65520``, and for
    zeros.  The remaining lanes — nonzero ``|x| < 2**-14`` (half
    subnormals keep fewer mantissa bits, and the smallest underflow to
    zero), ``|x| >= 65520`` (half infinity), inf and NaN — are rare and
    take NumPy's own conversion.  Inputs that are not float32 take it
    whole: float64 -> float16 rounds once, while going through float32
    would round twice.

    The result never aliases ``a``: the fault sites flip bits in the
    cast buffer in place.
    """
    if a.dtype != np.float32:
        return a.astype(np.float16).astype(np.float32)
    b = np.ascontiguousarray(a).reshape(-1).view(np.uint32)
    r = b >> 13
    r &= 1
    r += 0x0FFF
    r += b
    r &= 0xFFFFE000
    m = b << 1
    over = b.size > 0 and m.max() >= _HALF_OVERFLOW_2X
    m -= 1  # zeros wrap to the top, out of the subnormal range below
    slow = m < _HALF_NORMAL_MIN_2X - 1
    if over:
        slow |= (m >= _HALF_OVERFLOW_2X - 1) & (m != 0xFFFFFFFF)
    idx = np.flatnonzero(slow)
    if idx.size:
        lanes = b[idx].view(np.float32)
        r[idx] = lanes.astype(np.float16).astype(np.float32).view(np.uint32)
    return r.view(np.float32).reshape(a.shape)


def _cast(feats: np.ndarray, dtype: DType) -> np.ndarray:
    """Apply the storage dtype's precision to features or weights.

    FP16 values are rounded to half precision so quantization error is
    observable (as on real hardware), but the array stays float32 so
    GEMMs take NumPy's BLAS path — half-precision matmul has no BLAS
    kernel and is orders of magnitude slower.  The rounding is
    :func:`round_to_fp16`, bit-exact with NumPy's float16 round trip at
    a fraction of its host cost; nothing is cached, every call rounds
    afresh.  INT8 uses symmetric per-tensor quantization (round-tripped
    the same way); the scatter side still runs at 16 bits as the paper
    requires (Section 4.3.1), which is handled by the cost model, not
    here.  Every dtype returns float32.
    """
    if dtype is DType.FP32:
        # The bit-flip fault sites mutate the cast buffer in place.  An
        # aliased return would let them corrupt the caller's tensor —
        # the model's weights — so the detect->recompute loop would
        # re-take its golden checksum from the corrupted buffer, verify
        # clean, and ship the corruption as a recovery.  Copy whenever
        # an injector is armed; the production path stays zero-copy.
        return feats.astype(np.float32, copy=get_injector() is not None)
    if dtype is DType.INT8:
        scale = max(1e-12, float(np.abs(feats).max()) / 127.0)
        q = np.clip(np.round(feats / scale), -127, 127)
        return (q * scale).astype(np.float32)
    return round_to_fp16(feats)


def _movement_dtype(dtype: DType, side: str) -> DType:
    """Storage dtype actually moved by one side of the pipeline.

    INT8 only applies to gather: the multi-way reduction in scatter
    needs more than 8 bits and CUDA requires aligned access, so all
    scatter traffic stays at 16 bits (Section 4.3.1) — the reason INT8
    offers diminishing returns end to end.
    """
    if dtype is DType.INT8 and side == "scatter":
        return DType.FP16
    return dtype


def price_gather_matmul_scatter(
    kmap: KernelMap,
    plan: GroupingPlan,
    c_in: int,
    c_out: int,
    cfg: MovementConfig,
    device: GPUSpec,
    profile: Profile,
    skip_center: bool = True,
    numerics: "_GatherMatmulScatter | None" = None,
) -> None:
    """Price one sparse convolution via Algorithm 2: the pricing part.

    Logs every record of the layer (center ``mm``, gather, one matmul
    record per plan group, scatter) and publishes the cost-side metrics
    (``gemm.*``, traffic).  Nothing here reads a feature value: the
    records depend only on the map, the plan, the channel widths and the
    dtype.  A price-only context calls this alone; the full path
    (:func:`execute_gather_matmul_scatter`) passes its ``numerics``,
    whose arithmetic for each matmul step runs just before that step's
    record is logged — so a fault detected mid-layer leaves the records
    of exactly the steps that completed.
    """
    plan.validate(kmap.volume, kmap.center_index if skip_center else None)

    # -- center offset: direct mm, no data movement -------------------------
    center = kmap.center_index
    if skip_center and center is not None and len(kmap.in_indices[center]):
        if numerics is not None:
            numerics.center(center)
        cost = mm_cost(len(kmap.in_indices[center]), c_in, c_out, cfg.dtype, device)
        record_gemm_cost(cost, "mm")
        with profile.span("matmul"):
            profile.log(
                "matmul.center",
                "matmul",
                cost.time,
                bytes_moved=cost.bytes_moved,
                flops=cost.flops,
                launches=cost.launches,
            )

    # -- movement pricing (the numerics do the actual indexing) -------------
    with profile.span("gather"):
        profile.add(gather_record(kmap, c_in, cfg, device, skip_center, emit=True))

    # -- grouped matmul ------------------------------------------------------
    with profile.span("matmul"):
        for gi, group in enumerate(plan.groups):
            sizes = [len(kmap.in_indices[n]) for n in group.members]
            if numerics is not None:
                numerics.group(group, sizes)
            if group.use_bmm:
                cost = bmm_cost(sizes, c_in, c_out, cfg.dtype, device)
                record_gemm_cost(cost, "bmm")
            else:
                cost = sequential_cost(sizes, c_in, c_out, cfg.dtype, device)
                record_gemm_cost(cost, "mm")
            profile.log(
                f"matmul.group{gi}",
                "matmul",
                cost.time,
                bytes_moved=cost.bytes_moved,
                flops=cost.flops,
                launches=cost.launches,
            )

    with profile.span("scatter"):
        profile.add(scatter_record(kmap, c_out, cfg, device, skip_center, emit=True))


class _GatherMatmulScatter:
    """The numerics part of Algorithm 2: cast, gather, GEMM, scatter.

    :func:`price_gather_matmul_scatter` drives it one matmul step at a
    time; :attr:`acc` holds the ``(N_out, C_out)`` accumulator.
    """

    def __init__(self, x, w, kmap: KernelMap, c_out: int, exact_bmm: bool, integrity):
        self.x, self.w, self.kmap = x, w, kmap
        self.exact_bmm = exact_bmm
        self.integrity = integrity
        self.acc = np.zeros((kmap.n_out, c_out), dtype=np.float32)

    def center(self, n: int) -> None:
        x, w, kmap, integrity = self.x, self.w, self.kmap, self.integrity
        if (
            integrity is None
            and kmap.center_is_identity
            and x.flags.c_contiguous
            and get_injector() is None
        ):
            # every point maps to itself: no gather, no indexed scatter.
            # The center runs first, so this is the same float operation
            # as ``acc[arange] += partial`` on the zero accumulator, and a
            # C-contiguous ``x`` takes the same BLAS call as its gathered
            # copy.  ABFT checks read the indices and an armed injector
            # may corrupt them in place: both keep the general path.
            self.acc += x @ w[n]
            return
        ci, co = kmap.in_indices[n], kmap.out_indices[n]
        partial = (x[ci] @ w[n]).astype(np.float32, copy=False)
        if integrity is not None:
            src = integrity.source_checksum(x, ci)
            integrity.check_matmul(partial, src, w[n], len(ci), "matmul.center")
            integrity.absorb(partial)
        # within one offset each output index appears at most once
        # (p = s*q + delta is injective in q), so plain indexed add is safe
        self.acc[co] += partial

    def group(self, group, sizes: list) -> None:
        x, w, kmap, integrity = self.x, self.w, self.kmap, self.integrity
        acc = self.acc
        if group.use_bmm and self.exact_bmm:
            # materialize the padded batch exactly as the GPU kernel would
            m_pad = max(sizes)
            batch = np.zeros((len(group.members), m_pad, x.shape[1]), dtype=x.dtype)
            for bi, n in enumerate(group.members):
                batch[bi, : sizes[bi]] = x[kmap.in_indices[n]]
                # fault-injection site: flips in the staged batch,
                # restricted to the unpadded rows — a hit in a
                # zero-padding row is sliced off before scatter and
                # would make the shot undetectable by construction
                maybe_bitflip_features(batch[bi, : sizes[bi]], site=f"gather.o{n}")
            stacked = np.stack([w[n] for n in group.members])
            partial = np.matmul(batch, stacked).astype(np.float32, copy=False)
            for bi, n in enumerate(group.members):
                pm = partial[bi, : sizes[bi]]
                if integrity is not None:
                    idx = kmap.in_indices[n]
                    src = integrity.source_checksum(x, idx)
                    integrity.check_buffer(
                        batch[bi, : sizes[bi]], src, f"gather.o{n}"
                    )
                    integrity.check_matmul(pm, src, w[n], sizes[bi], f"matmul.o{n}")
                    integrity.absorb(pm)
                acc[kmap.out_indices[n]] += pm
            return
        # zero-padding cannot change the products, so the per-member
        # path is numerically identical to bmm and much faster here
        for n in group.members:
            idx = kmap.in_indices[n]
            gathered = x[idx]
            # fault-injection site: flips in the staged gather rows
            maybe_bitflip_features(gathered, site=f"gather.o{n}")
            if integrity is not None:
                src = integrity.source_checksum(x, idx)
                integrity.check_buffer(gathered, src, f"gather.o{n}")
            partial = (gathered @ w[n]).astype(np.float32, copy=False)
            if integrity is not None:
                integrity.check_matmul(partial, src, w[n], len(idx), f"matmul.o{n}")
                integrity.absorb(partial)
            acc[kmap.out_indices[n]] += partial


def execute_gather_matmul_scatter(
    feats: np.ndarray,
    weights: np.ndarray,
    kmap: KernelMap,
    plan: GroupingPlan,
    cfg: MovementConfig,
    device: GPUSpec,
    profile: Profile,
    skip_center: bool = True,
    exact_bmm: bool = False,
    integrity=None,
) -> np.ndarray:
    """Run one sparse convolution via Algorithm 2 with a grouping plan.

    The records come from :func:`price_gather_matmul_scatter`; this adds
    the arithmetic.

    Args:
        feats: ``(N_in, C_in)`` input features.
        weights: ``(K^3, C_in, C_out)`` weight matrices.
        kmap: the layer's kernel map.
        plan: matmul grouping plan over the non-center offsets.
        cfg: data-movement configuration.
        device: GPU model that prices every stage.
        profile: records are appended here.
        skip_center: process the stride-1 center offset as a direct
            ``mm`` without data movement (always true in the engines;
            exposed for tests).
        exact_bmm: materialize the padded batched matmul exactly as the
            GPU would.  Zero-padding makes it numerically identical to
            the default per-member path (a property the tests assert),
            so by default only the *cost* reflects bmm and the numerics
            take the faster per-member route.
        integrity: optional
            :class:`~repro.robust.integrity.IntegrityChecker` verifying
            each stage with ABFT checksums (observation only — never
            changes numerics; raises
            :class:`~repro.robust.errors.IntegrityError` on mismatch).

    Returns:
        ``(N_out, C_out)`` output features (float32).
    """
    if weights.ndim != 3 or weights.shape[0] != kmap.volume:
        raise ValueError(
            f"weights must be (K^3={kmap.volume}, C_in, C_out), got {weights.shape}"
        )
    c_in, c_out = weights.shape[1], weights.shape[2]
    if feats.shape != (kmap.n_in, c_in):
        raise ValueError(
            f"feats shape {feats.shape} does not match (n_in={kmap.n_in}, c_in={c_in})"
        )

    x = _cast(feats, cfg.dtype)
    w = _cast(weights, cfg.dtype)
    if integrity is not None:
        # golden checksums right after the cast: the model of load-time
        # ABFT — anything that corrupts the buffers later is visible
        integrity.begin(x, w)
    # fault-injection site: weight buffer flips *after* the golden
    # checksum (GEMM checksums agree with it; only the sentinel sees it)
    maybe_bitflip_weights(w, site=f"weights.v{kmap.volume}")
    numerics = _GatherMatmulScatter(x, w, kmap, c_out, exact_bmm, integrity)
    price_gather_matmul_scatter(
        kmap, plan, c_in, c_out, cfg, device, profile, skip_center, numerics
    )
    acc = numerics.acc
    # fault-injection site: reduced-precision accumulator overflow
    # (no-op at FP32 — the ladder's fp32 rung is a genuine fix)
    maybe_inject_matmul_nan(acc, cfg.dtype)
    # fault-injection site: flips in the scatter accumulator
    maybe_bitflip_features(acc, site="scatter.out")
    if integrity is not None:
        integrity.check_output(acc, "scatter.out")
        integrity.verify_weights(w, "weights")
        integrity.finish(profile)
    return acc


def fetch_on_demand_offset_cost(
    m: int, c_in: int, c_out: int, dtype: DType, device: GPUSpec
) -> tuple:
    """(seconds, bytes, flops) of one offset's fetch-on-demand kernel.

    Math runs on CUDA cores (FP32 rate regardless of storage dtype) at
    ``occupancy * FETCH_ON_DEMAND_EFF``; all row accesses are random.
    """
    if m <= 0:
        return 0.0, 0, 0.0
    pattern = MemoryAccessPattern.SCALAR
    reads = traffic(m, c_in, dtype, pattern)
    writes = traffic(m, c_out, dtype, pattern)
    t_mem = (
        movement_time(reads, device.dram_bandwidth)
        + movement_time(writes, device.dram_bandwidth)
    ) / RANDOM_ROW_EFF
    flops = 2.0 * m * c_in * c_out
    blocks = -(-m // 64) * (-(-c_out // 64))
    util = device.occupancy(blocks) * FETCH_ON_DEMAND_EFF
    t_math = device.compute_time(flops, DType.FP32, utilization=util)
    t = max(t_mem, t_math) + device.launch_overhead
    return t, reads.bytes_moved + writes.bytes_moved, flops


def fetch_on_demand_cost(
    kmap: KernelMap, c_in: int, c_out: int, dtype: DType, device: GPUSpec
) -> float:
    """Total modeled latency of running a layer fetch-on-demand."""
    return sum(
        fetch_on_demand_offset_cost(len(idx), c_in, c_out, dtype, device)[0]
        for idx in kmap.in_indices
    )


def price_fetch_on_demand(
    kmap: KernelMap,
    c_in: int,
    c_out: int,
    dtype: DType,
    device: GPUSpec,
    profile: Profile,
    numerics=None,
) -> None:
    """Price the fetch-on-demand dataflow: one record per non-empty
    offset, plus the ``dataflow.fetch_on_demand.*`` counters.

    The pricing part of :func:`execute_fetch_on_demand`, which passes
    ``numerics(n)`` to run each offset's arithmetic just before its
    record is logged (as in :func:`price_gather_matmul_scatter`).
    """
    reg = get_registry()
    with profile.span("matmul", dataflow="fetch_on_demand"):
        for n in range(kmap.volume):
            m = len(kmap.in_indices[n])
            if not m:
                continue
            if numerics is not None:
                numerics(n)
            t, nbytes, flops = fetch_on_demand_offset_cost(
                m, c_in, c_out, dtype, device
            )
            reg.counter("dataflow.fetch_on_demand.launches").inc()
            reg.counter("dataflow.fetch_on_demand.flops").inc(flops)
            profile.log(
                f"fetch_on_demand.{n}",
                "matmul",
                t,
                bytes_moved=nbytes,
                flops=flops,
            )


def execute_fetch_on_demand(
    feats: np.ndarray,
    weights: np.ndarray,
    kmap: KernelMap,
    device: GPUSpec,
    profile: Profile,
    dtype: DType = DType.FP32,
    integrity=None,
) -> np.ndarray:
    """MinkowskiEngine's fetch-on-demand dataflow (Lin et al., 2021).

    No staging buffers: each offset's kernel reads its input rows, does
    the multiply, and atomically accumulates outputs in one pass.  This
    halves the point-side traffic relative to gather-matmul-scatter (no
    buffer round-trip) but runs the math as fragmented matrix-vector
    work — so it wins on *small* workloads (where the tiled GEMM is
    occupancy-bound anyway) and loses on large ones, exactly the
    Section 5.2 observation about 1-frame nuScenes models.  The records
    come from :func:`price_fetch_on_demand`.
    """
    c_in, c_out = weights.shape[1], weights.shape[2]
    x = _cast(feats, dtype)
    w = _cast(weights, dtype)
    if integrity is not None:
        integrity.begin(x, w)
    # fault-injection site: post-checksum weight-buffer flips
    maybe_bitflip_weights(w, site="fetch_on_demand.weights")
    acc = np.zeros((kmap.n_out, c_out), dtype=np.float32)

    def offset(n: int) -> None:
        idx = kmap.in_indices[n]
        partial = (x[idx] @ w[n]).astype(np.float32, copy=False)
        if integrity is not None:
            src = integrity.source_checksum(x, idx)
            integrity.check_matmul(
                partial, src, w[n], len(idx), f"fetch_on_demand.o{n}"
            )
            integrity.absorb(partial)
        acc[kmap.out_indices[n]] += partial

    price_fetch_on_demand(kmap, c_in, c_out, dtype, device, profile, offset)
    # fault-injection site: flips in the atomic accumulator
    maybe_bitflip_features(acc, site="fetch_on_demand.out")
    if integrity is not None:
        integrity.check_output(acc, "fetch_on_demand.out")
        integrity.verify_weights(w, "fetch_on_demand.weights")
        integrity.finish(profile)
    return acc


def price_pooling(
    kmap: KernelMap,
    channels: int,
    cfg: MovementConfig,
    device: GPUSpec,
    profile: Profile,
) -> None:
    """Price one sparse pooling layer: a gather and a scatter over the
    whole map (no center shortcut) and no matmul."""
    with profile.span("gather"):
        profile.add(gather_record(kmap, channels, cfg, device, False, emit=True))
    with profile.span("scatter"):
        profile.add(scatter_record(kmap, channels, cfg, device, False, emit=True))


def pool_features(feats: np.ndarray, kmap: KernelMap, mode: str) -> np.ndarray:
    """The numerics of sparse pooling: reduce each output's window over
    its *present* inputs (absent voxels are skipped, not zero-filled)."""
    c = feats.shape[1]
    if mode == "max":
        acc = np.full((kmap.n_out, c), -np.inf, dtype=np.float32)
    else:
        acc = np.zeros((kmap.n_out, c), dtype=np.float32)
        counts = np.zeros(kmap.n_out, dtype=np.int64)
    for n in range(kmap.volume):
        i, o = kmap.in_indices[n], kmap.out_indices[n]
        if not len(i):
            continue
        if mode == "max":
            np.maximum.at(acc, o, feats[i])
        else:
            acc[o] += feats[i]
            counts[o] += 1
    if mode == "max":
        acc[np.isneginf(acc)] = 0.0
    else:
        acc[counts > 0] /= counts[counts > 0, None]
    return acc
