"""Kernel map construction (Algorithm 1).

A :class:`KernelMap` stores, for every kernel offset ``delta``, the
matched ``(input index, output index)`` pairs.  Map search iterates over
output coordinates, probes ``s * q + delta`` in the input coordinate
table, and records hits — here vectorized over all outputs per offset.

Two search refinements from the paper are implemented:

* **symmetry** (Section 4.4 / 4.2.1): for stride-1 odd kernels, the map
  for offset ``-delta`` is the transposed map for ``delta``, so only
  half the offsets are probed;
* pluggable **table backends** (grid vs. hashmap) behind the small
  :class:`CoordIndex` adapter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.kernel import (
    center_offset_index,
    is_all_odd,
    kernel_offsets,
    kernel_volume,
    normalize,
    opposite_offset_index,
    to_tuple,
)
from repro.hashmap.coords import pack_coords
from repro.hashmap.grid_table import GridTable
from repro.hashmap.hash_table import HashTable


class CoordIndex:
    """Uniform ``coords -> row index`` adapter over both table backends.

    ``build_accesses`` freezes the table's build bill (slot accesses of
    its construction) when the index is created, so the build can be
    priced again on any device without reading the table's live
    counters, which keep growing with every later query.
    """

    def __init__(self, table: HashTable | GridTable):
        self.table = table
        self.build_accesses = int(table.stats.build_accesses)

    @classmethod
    def build(
        cls,
        coords: np.ndarray,
        backend: str = "hash",
        margin: int = 0,
        max_grid_bytes: int | None = None,
    ) -> "CoordIndex":
        """Index ``coords`` rows by position using the chosen backend.

        Args:
            backend: ``"hash"`` or ``"grid"``.
            margin: spatial slack for grid tables so neighbor probes at
                kernel offsets stay inside the box.
            max_grid_bytes: grid-table memory budget; a grid build past
                it raises :class:`~repro.robust.errors.GridMemoryError`.
        """
        if backend == "hash":
            return cls(HashTable.from_keys(pack_coords(coords)))
        if backend == "grid":
            return cls(
                GridTable.from_coords(coords, margin=margin, max_bytes=max_grid_bytes)
            )
        raise ValueError(f"unknown coordinate table backend {backend!r}")

    def lookup(self, coords: np.ndarray) -> np.ndarray:
        """Row index per coordinate, ``-1`` where absent."""
        if isinstance(self.table, HashTable):
            # probes beyond the packable range cannot be present
            c = np.asarray(coords, dtype=np.int64)
            return self.table.lookup(pack_coords_clipped(c))
        return self.table.lookup(coords)

    @property
    def stats(self):
        return self.table.stats

    @property
    def backend(self) -> str:
        return "grid" if isinstance(self.table, GridTable) else "hash"


def pack_coords_clipped(coords: np.ndarray) -> np.ndarray:
    """Pack coordinates, mapping out-of-range rows to an absent key.

    Neighbor probes ``s*q + delta`` can step just past the packable
    range; those coordinates are by construction not in the table, so we
    redirect them to a reserved never-inserted key instead of raising.
    """
    from repro.hashmap.coords import COORD_MAX, COORD_MIN

    c = np.asarray(coords, dtype=np.int64)
    bad = (
        (c[:, 1:] < COORD_MIN).any(axis=1)
        | (c[:, 1:] > COORD_MAX).any(axis=1)
        | (c[:, 0] < 0)
        | (c[:, 0] >= (1 << 15))
    )
    if bad.any():
        c = c.copy()
        c[bad] = 0
        keys = pack_coords(c)
        keys[bad] = np.int64(-2)  # never inserted (insert forbids only -1)
        return keys
    return pack_coords(c)


@dataclass
class KernelMap:
    """Per-offset input/output index pairs of one convolution layer.

    ``kernel_size`` and ``stride`` are canonical (int when isotropic,
    per-axis tuple otherwise).
    """

    kernel_size: object
    stride: object
    n_in: int
    n_out: int
    in_indices: list = field(default_factory=list)
    out_indices: list = field(default_factory=list)
    #: probes issued during construction (for mapping-cost pricing)
    queries_issued: int = 0
    #: entries produced by mirroring instead of probing (symmetry path);
    #: they still cost a map read + write, which is why the paper's
    #: symmetry optimization only buys ~1.1x end to end (Section 6.3)
    mirrored_entries: int = 0
    #: frozen search bill: table slot accesses of the probes, and the
    #: backend of the table they ran against (``None`` when the map was
    #: not searched, e.g. a transposed or decoded map)
    search_accesses: int = 0
    search_backend: str | None = None

    def __post_init__(self) -> None:
        self.kernel_size = normalize(self.kernel_size)
        self.stride = normalize(self.stride)
        vol = kernel_volume(self.kernel_size)
        if len(self.in_indices) != vol or len(self.out_indices) != vol:
            raise ValueError(
                f"expected {vol} per-offset index arrays, got "
                f"{len(self.in_indices)}/{len(self.out_indices)}"
            )

    @property
    def volume(self) -> int:
        return kernel_volume(self.kernel_size)

    @property
    def sizes(self) -> np.ndarray:
        """Map size per offset — the irregular workload of Figure 12."""
        return np.array([len(i) for i in self.in_indices], dtype=np.int64)

    @property
    def total(self) -> int:
        """``|M|``: total matched pairs across offsets."""
        return int(self.sizes.sum())

    @property
    def center_index(self) -> int | None:
        return center_offset_index(self.kernel_size)

    @property
    def is_submanifold(self) -> bool:
        """Stride 1 on every axis with an all-odd kernel: the center
        offset is an identity and needs no data movement."""
        return self.stride == 1 and is_all_odd(self.kernel_size)

    def clone(self) -> "KernelMap":
        """Deep copy (fresh index arrays).

        Used by the persistent mapping cache whenever a fault injector
        is armed: in-place corruption of the working copy must never
        reach the shared cached entry (or another request through it).
        """
        return KernelMap(
            kernel_size=self.kernel_size,
            stride=self.stride,
            n_in=self.n_in,
            n_out=self.n_out,
            in_indices=[a.copy() for a in self.in_indices],
            out_indices=[a.copy() for a in self.out_indices],
            queries_issued=self.queries_issued,
            mirrored_entries=self.mirrored_entries,
            search_accesses=self.search_accesses,
            search_backend=self.search_backend,
        )

    def transposed(self) -> "KernelMap":
        """Swap input/output roles (drives inverse/transposed conv)."""
        return KernelMap(
            kernel_size=self.kernel_size,
            stride=self.stride,
            n_in=self.n_out,
            n_out=self.n_in,
            in_indices=[a.copy() for a in self.out_indices],
            out_indices=[a.copy() for a in self.in_indices],
            queries_issued=0,
        )

    def validate(self) -> None:
        """Check index ranges; used by tests and paranoid callers."""
        for n in range(self.volume):
            i, o = self.in_indices[n], self.out_indices[n]
            if len(i) != len(o):
                raise ValueError(f"offset {n}: in/out lengths differ")
            if len(i) and (i.min() < 0 or i.max() >= self.n_in):
                raise ValueError(f"offset {n}: input index out of range")
            if len(o) and (o.min() < 0 or o.max() >= self.n_out):
                raise ValueError(f"offset {n}: output index out of range")


def identity_kmap(kernel_size: int, n: int) -> KernelMap:
    """Map of a pure center (1x1x1-like) connection: every point to itself."""
    vol = kernel_volume(kernel_size)
    center = center_offset_index(kernel_size)
    ins = [np.empty(0, dtype=np.int64) for _ in range(vol)]
    outs = [np.empty(0, dtype=np.int64) for _ in range(vol)]
    if center is not None:
        ins[center] = np.arange(n, dtype=np.int64)
        outs[center] = np.arange(n, dtype=np.int64)
    return KernelMap(kernel_size, 1, n, n, ins, outs)


def build_kmap(
    in_coords: np.ndarray,
    index: CoordIndex,
    out_coords: np.ndarray,
    kernel_size,
    stride=1,
    use_symmetry: bool = False,
) -> KernelMap:
    """Search kernel maps (Algorithm 1), vectorized per offset.

    Args:
        in_coords: ``(N_in, 4)`` input coordinates (only sizes used here;
            membership comes from ``index``).
        index: coordinate table over ``in_coords``.
        out_coords: ``(N_out, 4)`` output coordinates.
        kernel_size: kernel extent ``K`` (int or per-axis tuple).
        stride: convolution stride (int or per-axis tuple); probes are
            ``s*q + delta``.
        use_symmetry: exploit the stride-1 odd-kernel symmetry to probe
            only half the offsets (requires ``in_coords is out_coords``
            semantically, which stride-1 guarantees).
    """
    kernel_size = normalize(kernel_size)
    stride = normalize(stride)
    s_arr = np.array(to_tuple(stride, name="stride"), dtype=np.int64)
    offsets = kernel_offsets(kernel_size)
    vol = offsets.shape[0]
    n_in = int(np.asarray(in_coords).shape[0])
    n_out = int(np.asarray(out_coords).shape[0])
    out64 = np.asarray(out_coords, dtype=np.int64)

    ins: list = [None] * vol
    outs: list = [None] * vol
    queries = 0
    accesses_before = index.stats.query_accesses
    mirrored = 0

    symmetric_ok = use_symmetry and stride == 1 and is_all_odd(kernel_size)
    center = center_offset_index(kernel_size)

    for n in range(vol):
        if ins[n] is not None:
            continue
        if symmetric_ok and n == center:
            # stride-1 center: every point maps to itself, no probing
            ins[n] = np.arange(n_out, dtype=np.int64)
            outs[n] = np.arange(n_out, dtype=np.int64)
            continue
        probe = out64.copy()
        probe[:, 1:] = probe[:, 1:] * s_arr + offsets[n]
        hit_vals = index.lookup(probe)
        queries += n_out
        hits = hit_vals >= 0
        j = hit_vals[hits].astype(np.int64)
        k = np.nonzero(hits)[0].astype(np.int64)
        ins[n], outs[n] = j, k
        if symmetric_ok:
            opp = opposite_offset_index(n, kernel_size)
            if opp != n and ins[opp] is None:
                # (q, p, W_{-delta}) is a valid entry iff (p, q, W_delta) is
                ins[opp], outs[opp] = k.copy(), j.copy()
                mirrored += len(k)

    kmap = KernelMap(
        kernel_size=kernel_size,
        stride=stride,
        n_in=n_in,
        n_out=n_out,
        in_indices=ins,
        out_indices=outs,
        queries_issued=queries,
        mirrored_entries=mirrored,
        search_accesses=int(index.stats.query_accesses - accesses_before),
        search_backend=index.backend,
    )
    return kmap
