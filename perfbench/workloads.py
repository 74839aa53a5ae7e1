"""The benchmark's three workloads.

Each workload builds its inputs from ``--seed`` alone, drives the
program only through public functions, checks every output, and
reports the end-to-end metrics (untraced run) or the per-layer metrics
(traced run).  ``perfbench/README.md`` defines every metric, its plane
(modeled = deterministic, host = measured) and the workloads it moves.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from spans import PARENT, SpanRecorder, engine_targets, patched, serve_targets

#: dataset sample scale of the zoo workload: mapping is 5-32% of a
#: cold forward's host time here (MinkUNet-1f to CenterPoint-3f), and a
#: pass over the seven models takes ~5 s of host time
ZOO_SCALE = 0.2
#: full passes over the seven models the zoo always completes; the
#: modeled metrics come from exactly these frames
ZOO_MIN_CYCLES = 7

#: every per-layer metric, with its unit, in the order printed
PER_LAYER = (
    ("mapping.host_ms", "ms"),
    ("mapping.calls", "count"),
    ("mapping.cache_hit_rate.coords", "fraction"),
    ("mapping.cache_hit_rate.index", "fraction"),
    ("mapping.cache_hit_rate.kmap", "fraction"),
    ("mapping.mapcache_hit_rate.coords", "fraction"),
    ("mapping.mapcache_hit_rate.index", "fraction"),
    ("mapping.mapcache_hit_rate.kmap", "fraction"),
    ("hashmap.probe_length_mean", "slots"),
    ("hashmap.host_ms", "ms"),
    ("core.dataflow.host_ms", "ms"),
    ("core.engine.host_ms", "ms"),
    ("gpu.stage_ms.mapping", "ms"),
    ("gpu.stage_ms.gather", "ms"),
    ("gpu.stage_ms.matmul", "ms"),
    ("gpu.stage_ms.scatter", "ms"),
    ("gpu.stage_ms.other", "ms"),
    ("core.grouping.padding_ratio", "ratio"),
    ("gpu.gemm.launches", "count"),
    ("gpu.bytes_moved.gather", "MB"),
    ("gpu.bytes_moved.scatter", "MB"),
    ("serve.cluster.forwards", "count"),
    ("serve.cluster.hit_ratio", "fraction"),
    ("serve.cluster.host_s", "s"),
    ("serve.server.host_s", "s"),
    ("serve.server.host_us_per_request.q1", "us"),
    ("serve.server.host_us_per_request.q2", "us"),
    ("serve.server.host_us_per_request.q3", "us"),
    ("serve.server.host_us_per_request.q4", "us"),
    ("obs.timeline.events", "count"),
    ("obs.timeline.host_s", "s"),
    ("serve.queue.wait_p99_ms", "ms"),
    ("serve.server.attempt_amplification", "ratio"),
    ("serve.server.hedge_win_ratio", "fraction"),
    ("serve.batching.mean_size", "requests"),
    ("serve.batching.occupancy", "fraction"),
    ("robust.brownout.degraded_share", "fraction"),
    ("persist.store.puts", "count"),
    ("persist.store.gets", "count"),
    ("persist.store.host_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


@dataclass
class Metric:
    value: float
    unit: str
    #: how many measurements the value summarizes
    samples: int
    #: "modeled" (deterministic, must repeat exactly) or "host" (noisy)
    plane: str


class Result:
    """Metrics plus the tally of timed operations and failed checks."""

    def __init__(self) -> None:
        self.metrics: dict = {}
        self.attempted = 0
        self.failed_ops: set = set()
        self.failures: list = []

    def fail(self, op: int, message: str) -> None:
        self.failed_ops.add(op)
        self.failures.append(message)

    def put(self, name: str, value: float, unit: str, samples: int, plane: str):
        self.metrics[name] = Metric(float(value), unit, int(samples), plane)

    def put_layers(self, values: dict, samples: int) -> None:
        """Every per-layer metric, 0 where this workload has no such
        layer activity."""
        for name, unit in PER_LAYER:
            self.put(name, values.get(name, 0.0), unit, samples, "trace")

    def table(self, workload: str) -> str:
        rows = [f"perfbench {workload}: {self.attempted} timed operations, "
                f"{len(self.failed_ops)} failed, error_rate "
                f"{len(self.failed_ops) / max(1, self.attempted):.4f}"]
        for name, m in self.metrics.items():
            rows.append(f"  {name:40s} {m.value:16.6f} {m.unit:9s} "
                        f"n={m.samples:<5d} {m.plane}")
        return "\n".join(rows)


def reset_peak_rss() -> None:
    """Restart the kernel's resident-memory high-water mark (Linux), so
    the peak covers only what follows."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    """Resident-memory high-water mark since the last reset, MB."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def output_arrays(out):
    """Every float array of a model output (sparse tensor or dict)."""
    from repro.core.sparse_tensor import SparseTensor

    if isinstance(out, SparseTensor):
        return [out.feats]
    if isinstance(out, dict):
        return [a for v in out.values() for a in output_arrays(v)]
    if isinstance(out, np.ndarray) and out.dtype.kind == "f":
        return [out]
    return []


def check_output(out, reference=None):
    """A failure message, or ``None``: every output is finite, and
    matches ``reference`` (an FP32 engine's output of the same input)
    within the FP16 storage envelope."""
    from repro.gpu.memory import DType
    from repro.robust.tolerance import envelope

    arrays = output_arrays(out)
    if not arrays:
        return "model produced no float output"
    if not all(np.isfinite(a).all() for a in arrays):
        return "non-finite output"
    if reference is not None:
        ref = output_arrays(reference)
        if len(ref) != len(arrays) or any(
            a.shape != r.shape for a, r in zip(arrays, ref)
        ):
            return "output shapes differ from the reference engine's"
        env = envelope(DType.FP16)
        for a, r in zip(arrays, ref):
            if not env.allclose(a.astype(np.float64), r.astype(np.float64)):
                err = float(np.max(np.abs(a.astype(np.float64) - r)))
                return f"differs from the FP32 reference (max abs err {err:.3g})"
    return None


def per_frame_modeled(profiles) -> dict:
    """Modeled per-frame stage split and computed bytes moved over the
    profiles of a pass (one per forward)."""
    out: dict = {}
    n = len(profiles)
    if not n:
        return out
    for profile in profiles:
        for stage, secs in profile.stage_times().items():
            key = f"gpu.stage_ms.{stage}"
            out[key] = out.get(key, 0.0) + secs * 1e3 / n
        for r in profile.records:
            if r.stage in ("gather", "scatter"):
                key = f"gpu.bytes_moved.{r.stage}"
                out[key] = out.get(key, 0.0) + r.bytes_moved / 1e6 / n
    return out


def registry_layers(reg, frames: int) -> dict:
    """Per-layer metrics the program's own metrics registry counts."""
    out: dict = {}
    scalars = reg.scalars()
    for kind in ("coords", "index", "kmap"):
        # the execution context's per-frame caches, then the persistent
        # content-addressed mapping cache shared across frames
        out[f"mapping.cache_hit_rate.{kind}"] = scalars.get(
            f"engine.cache.hit_rate{{cache={kind}}}", 0.0)
        out[f"mapping.mapcache_hit_rate.{kind}"] = scalars.get(
            f"mapcache.hit_rate{{kind={kind}}}", 0.0)
    probes = [m for m in reg.collect() if m["name"] == "hash.probe_length"]
    count = sum(m["count"] for m in probes)
    out["hashmap.probe_length_mean"] = (
        sum(m["sum"] for m in probes) / count if count else 0.0)
    useful = sum(v for k, v in scalars.items() if k.startswith("gemm.useful_flops"))
    padded = sum(v for k, v in scalars.items() if k.startswith("gemm.padded_flops"))
    out["core.grouping.padding_ratio"] = padded / useful if useful else 0.0
    launches = sum(v for k, v in scalars.items() if k.startswith("gemm.launches"))
    out["gpu.gemm.launches"] = launches / frames if frames else 0.0
    return out


def span_layers(rec: SpanRecorder) -> dict:
    """Host self time per engine layer, from a traced pass."""
    times = rec.self_times()
    out: dict = {}
    for layer in ("mapping", "hashmap", "core.dataflow", "core.engine"):
        self_s, _, calls = times.get(layer, (0.0, 0.0, 0))
        out[f"{layer}.host_ms"] = self_s * 1e3
        if layer == "mapping":
            out["mapping.calls"] = calls
    return out


def zoo_scene_seed(seed: int, i: int, cycle: int) -> int:
    """Dataset seed of the zoo's scene of model ``i`` in pass ``cycle``."""
    return int(np.random.SeedSequence([seed, i, cycle]).generate_state(1)[0])


def engine_forward(engine, model, x, spec):
    """One forward on a fresh execution context: ``(output, context)``."""
    from repro.core.engine import ExecutionContext

    ctx = ExecutionContext(engine=engine, device=spec)
    return model(x, ctx), ctx


# -- zoo ----------------------------------------------------------------------


class Zoo:
    """Closed loop, one client: the seven zoo models in paper order on
    fresh seeded scenes, TorchSparse on RTX 2080Ti (Fig. 11)."""

    imports = (
        "import repro.models, repro.core.engine, repro.baselines, "
        "repro.gpu.device, repro.robust.tolerance"
    )

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed

    def setup(self) -> None:
        from repro.core.engine import TorchSparseEngine
        from repro.mapping.cache import get_mapping_cache, reset_mapping_cache
        from repro.models import MODEL_ZOO

        reset_mapping_cache()
        if len(get_mapping_cache()):
            raise RuntimeError("process-level mapping cache is not empty")
        self.entries = MODEL_ZOO
        self.models = [e.make_model() for e in MODEL_ZOO]
        self.datasets = [e.make_dataset() for e in MODEL_ZOO]
        self.engine = TorchSparseEngine()
        self.frame_peaks: list = []
        self._scenes: dict = {}
        for i in range(len(self.models)):
            self.scene(i, 0)

    def scene(self, i: int, cycle: int):
        """Model ``i``'s scene of pass ``cycle``, a function of the seed."""
        key = (i, cycle)
        if key not in self._scenes:
            self._scenes[key] = self.datasets[i].sample_tensor(
                seed=zoo_scene_seed(self.seed, i, cycle), scale=ZOO_SCALE)
        return self._scenes[key]

    def references(self, res: Result) -> list:
        """MinkowskiEngine-like and SpConv-like forwards on each model's
        first scene: ``(mk output, mk latency, spconv latency)``."""
        from repro.baselines import MinkowskiEngineLike, SpConvLike
        from repro.gpu.device import RTX_2080TI

        mk, sp = MinkowskiEngineLike(), SpConvLike()
        refs = []
        for i, model in enumerate(self.models):
            x = self.scene(i, 0)
            try:
                mk_out, mk_ctx = engine_forward(mk, model, x, RTX_2080TI)
                sp_out, sp_ctx = engine_forward(sp, model, x, RTX_2080TI)
            except Exception as e:  # counted against the model's first frame
                res.fail(i, f"{self.entries[i].key} reference: {type(e).__name__}: {e}")
                refs.append((None, math.nan, math.nan))
                continue
            for name, out in (("MinkowskiEngineLike", mk_out), ("SpConvLike", sp_out)):
                problem = check_output(out)
                if problem:
                    res.fail(i, f"{self.entries[i].key} {name}: {problem}")
            refs.append((mk_out, mk_ctx.profile.total_time, sp_ctx.profile.total_time))
        return refs

    def cycle(self, c: int, res: Result, refs=None, profiles=None, rec=None):
        """One timed pass over the seven models: ``(host s, frames,
        modeled latencies)``.  Each frame's peak resident memory is
        appended to ``self.frame_peaks``."""
        from repro.gpu.device import RTX_2080TI

        host, frames, lats = 0.0, 0, []
        for i, model in enumerate(self.models):
            x = self.scene(i, c)
            op = res.attempted
            res.attempted += 1
            if rec is not None:
                rec.group = op
            reset_peak_rss()
            try:
                t = time.process_time()
                out, ctx = engine_forward(self.engine, model, x, RTX_2080TI)
                host += time.process_time() - t
                self.frame_peaks.append(peak_rss_mb())
            except Exception as e:  # a failed frame is counted, not fatal
                res.fail(op, f"{self.entries[i].key} pass {c}: {type(e).__name__}: {e}")
                continue
            ref = refs[i][0] if refs is not None and c == 0 else None
            problem = check_output(out, ref)
            if problem:
                res.fail(op, f"{self.entries[i].key} pass {c}: {problem}")
                continue
            frames += 1
            lats.append(ctx.profile.total_time)
            if profiles is not None:
                profiles.append(ctx.profile)
        return host, frames, lats

    def measure(self, seconds: float) -> Result:
        from repro.profiling.report import percentile

        res = Result()
        refs = self.references(res)
        host, frames, c = 0.0, 0, 0
        rates, per_model = [], [[] for _ in self.models]
        while c < ZOO_MIN_CYCLES or host < seconds:
            h, f, lats = self.cycle(c, res, refs)
            if not f:
                break  # every frame failed; the failures are recorded
            host, frames = host + h, frames + f
            rates.append(f / h)
            if c < ZOO_MIN_CYCLES and len(lats) == len(self.models):
                for i, lat in enumerate(lats):
                    per_model[i].append(lat)
            for i in range(len(self.models)):
                self._scenes.pop((i, c), None)
            c += 1
        if res.failed_ops:
            return res
        first = [p[0] for p in per_model]
        fixed = [lat for p in per_model for lat in p]
        n = len(self.models)
        # the median pass: the host's throughput drifts by +-20% over
        # seconds, and a pass (seven models, ~5 s) is the smallest unit
        # whose work barely changes from one pass to the next
        rate = statistics.median(rates)
        res.put("host_frames_per_s", rate, "frames/s", len(rates), "host")
        res.put("requests_per_host_s", rate, "req/s", len(rates), "host")
        res.put("peak_rss_mb", sum(self.frame_peaks) / len(self.frame_peaks),
                "MB", len(self.frame_peaks), "host")
        res.put("modeled_fps_geomean",
                geomean(len(p) / sum(p) for p in per_model), "frames/s", len(fixed), "modeled")
        res.put("modeled_speedup_vs_minkowski",
                geomean(r[1] / t for r, t in zip(refs, first)), "x", n, "modeled")
        res.put("modeled_speedup_vs_spconv",
                geomean(r[2] / t for r, t in zip(refs, first)), "x", n, "modeled")
        res.put("serve_goodput", frames / res.attempted if res.attempted else 0.0,
                "fraction", res.attempted, "modeled")
        res.put("serve_p50_ms", percentile(fixed, 50.0) * 1e3, "ms", len(fixed), "modeled")
        res.put("serve_p99_ms", percentile(fixed, 99.0) * 1e3, "ms", len(fixed), "modeled")
        return res

    def traced(self) -> Result:
        """Pass 0 untraced, then the same scenes again with spans on."""
        from repro.obs.metrics import MetricsRegistry, use_registry

        res = Result()
        refs = self.references(res)
        with use_registry(MetricsRegistry()):
            host_u, _, lats_u = self.cycle(0, res, refs)
        rec, reg, profiles = SpanRecorder(), MetricsRegistry(), []
        with use_registry(reg), patched(rec, engine_targets()):
            host_t, frames, lats_t = self.cycle(0, res, refs, profiles, rec)
        if lats_u != lats_t:
            res.fail(0, "modeled latencies changed under tracing")
        layers = {**span_layers(rec), **registry_layers(reg, frames),
                  **per_frame_modeled(profiles)}
        layers["trace.overhead_ratio"] = host_t / host_u
        res.put_layers(layers, frames)
        return res


# -- serve --------------------------------------------------------------------

FLEET = ("2080ti", "2080ti", "3090", "3090")
FLEET_DOMAINS = ("r0", "r0", "r1", "r1")
SERVE_MODEL = "minkunet_0.5x_kitti"
#: scale and seed of the one scene serve-fleet's oracle prices (ROADMAP's
#: config seed 7)
SERVE_SCALE = 0.15
SERVE_SCENE_SEED = 7


@contextmanager
def collect_oracle_profiles(sink: list):
    """Keep the profile of every forward the latency oracle prices (not
    the context, whose coordinate tables are large)."""
    import repro.serve.cluster as cluster

    original = cluster.ExecutionContext

    def collecting(*args, **kwargs):
        ctx = original(*args, **kwargs)
        sink.append(ctx.profile)
        return ctx

    cluster.ExecutionContext = collecting
    try:
        yield sink
    finally:
        cluster.ExecutionContext = original


class ServeWorkload:
    """Shared driver of the two serving workloads: campaigns through
    ``run_serve_campaign`` with the flight recorder on, each checked
    for journal validity and request conservation."""

    imports = (
        "import repro.serve, repro.obs.timeline, repro.persist, "
        "repro.robust.faults, repro.robust.brownout, repro.robust.domains, "
        "repro.models, repro.baselines"
    )

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp
        self._stores = 0

    def setup(self) -> None:
        from repro.gpu.device import GPU_REGISTRY
        from repro.mapping.cache import get_mapping_cache, reset_mapping_cache
        from repro.profiling.parallel import device_labels

        reset_mapping_cache()
        if len(get_mapping_cache()):
            raise RuntimeError("process-level mapping cache is not empty")
        self.devices = tuple(GPU_REGISTRY[k] for k in FLEET)
        self.labels = device_labels(self.devices)
        self.build()

    def campaign_seed(self, k: int) -> int:
        if k == 0:
            return self.seed
        return int(np.random.SeedSequence([self.seed, k]).generate_state(1)[0] >> 1)

    def campaign(self, k: int, res: Result, rec: SpanRecorder | None = None):
        """One checked campaign: ``(report, journal, registry, host s)``."""
        from repro.obs.metrics import MetricsRegistry, use_registry
        from repro.obs.timeline import TimelineRecorder, validate_journal
        from repro.robust.faults import FaultInjector
        from repro.serve import run_serve_campaign

        seed = self.campaign_seed(k)
        config, traffic, specs = self.configure(seed)
        journal, reg = TimelineRecorder(), MetricsRegistry()
        op = res.attempted
        res.attempted += 1
        if rec is not None:
            rec.group = op
        try:
            with use_registry(reg):
                t = time.process_time()
                report = run_serve_campaign(
                    config, traffic,
                    injector=FaultInjector(seed=seed, specs=specs),
                    recorder=journal,
                )
                host = time.process_time() - t
        except Exception as e:  # a failed campaign is counted, not fatal
            res.fail(op, f"campaign {k}: {type(e).__name__}: {e}")
            return None
        problems = validate_journal(journal.header(), journal.events)
        arrivals = sum(e["kind"] == "arrival" for e in journal.events)
        terminals = sum(report.outcomes.values())
        if problems:
            res.fail(op, f"campaign {k}: journal invalid: {problems[:3]}")
        elif not report.all_terminal or arrivals != terminals or arrivals != report.total:
            res.fail(op, f"campaign {k}: {arrivals} arrivals but {terminals} "
                         f"terminal states over {report.total} requests")
        return report, journal, reg, host

    def fresh_store(self) -> str:
        self._stores += 1
        return str(self.tmp / f"store-{self._stores}")

    def cross_check(self, res: Result):
        """TorchSparse vs MinkowskiEngine-like vs SpConv-like on two
        scenes of the serving model: the one serve-fleet's oracle prices
        (the same in every run) and the zoo's first scene of the run
        seed (the zoo runs this model on it too).  Geomeans ``(fps, vs mk,
        vs spconv)``, or ``None`` when a forward raised."""
        from repro.baselines import MinkowskiEngineLike, SpConvLike
        from repro.core.engine import TorchSparseEngine
        from repro.gpu.device import RTX_2080TI
        from repro.models import MODEL_ZOO

        i = next(i for i, e in enumerate(MODEL_ZOO) if e.key == SERVE_MODEL)
        model, dataset = MODEL_ZOO[i].make_model(), MODEL_ZOO[i].make_dataset()
        scenes = ((SERVE_SCENE_SEED, SERVE_SCALE),
                  (zoo_scene_seed(self.seed, i, 0), ZOO_SCALE))
        engines = (TorchSparseEngine(), MinkowskiEngineLike(), SpConvLike())
        fps, vs_mk, vs_sp = [], [], []
        for k, (seed, scale) in enumerate(scenes):
            x = dataset.sample_tensor(seed=seed, scale=scale)
            try:
                (ts_out, ts), (mk_out, mk), (sp_out, sp) = (
                    engine_forward(e, model, x, RTX_2080TI) for e in engines)
            except Exception as e:  # counted against the first campaign
                res.fail(0, f"cross-check scene {k}: {type(e).__name__}: {e}")
                return None
            for name, out, ref in (("MinkowskiEngineLike", mk_out, None),
                                   ("SpConvLike", sp_out, None),
                                   ("TorchSparse", ts_out, mk_out)):
                problem = check_output(out, ref)
                if problem:
                    res.fail(0, f"cross-check scene {k} {name}: {problem}")
            lat = ts.profile.total_time
            fps.append(1.0 / lat)
            vs_mk.append(mk.profile.total_time / lat)
            vs_sp.append(sp.profile.total_time / lat)
        return geomean(fps), geomean(vs_mk), geomean(vs_sp)

    def measure(self, seconds: float) -> Result:
        from repro.serve.request import COMPLETED, DEADLINE_EXCEEDED

        res = Result()
        runs, host, peaks, k = [], 0.0, [], 0
        while k < self.MIN_CAMPAIGNS or host < seconds:
            reset_peak_rss()
            out = self.campaign(k, res)
            k += 1
            if out is None:
                break
            runs.append(out[0])
            host += out[3]
            peaks.append(peak_rss_mb())
        if not runs or res.failed_ops:
            return res
        first = runs[0]
        arrivals = sum(r.total for r in runs)
        check = self.cross_check(res)
        if check is None:
            return res
        fps, vs_mk, vs_sp = check
        res.put("host_frames_per_s", arrivals / host, "frames/s", len(runs), "host")
        res.put("requests_per_host_s", arrivals / host, "req/s", len(runs), "host")
        res.put("peak_rss_mb", max(peaks), "MB", len(peaks), "host")
        res.put("modeled_fps_geomean", fps, "frames/s", 2, "modeled")
        res.put("modeled_speedup_vs_minkowski", vs_mk, "x", 2, "modeled")
        res.put("modeled_speedup_vs_spconv", vs_sp, "x", 2, "modeled")
        res.put("serve_goodput", first.slo_attainment, "fraction", first.total, "modeled")
        lat_n = first.count(COMPLETED) + first.count(DEADLINE_EXCEEDED)
        res.put("serve_p50_ms", first.p50 * 1e3, "ms", lat_n, "modeled")
        res.put("serve_p99_ms", first.p99 * 1e3, "ms", lat_n, "modeled")
        return res

    def traced(self) -> Result:
        """Campaign 0 untraced, then the same campaign with spans on."""
        res = Result()
        plain = self.campaign(0, res)
        rec, profiles = SpanRecorder(), []
        with patched(rec, engine_targets() + serve_targets()), \
                collect_oracle_profiles(profiles):
            traced = self.campaign(0, res, rec)
        if plain is None or traced is None:
            return res
        report, journal, reg, host_t = traced
        if plain[1].to_jsonl() != journal.to_jsonl():
            res.fail(0, "campaign journal changed under tracing")
        layers = {**span_layers(rec), **registry_layers(reg, len(profiles)),
                  **per_frame_modeled(profiles), **self.serve_layers(rec, report, journal)}
        layers["trace.overhead_ratio"] = host_t / plain[3]
        res.put_layers(layers, 1)
        return res

    @staticmethod
    def serve_layers(rec: SpanRecorder, report, journal) -> dict:
        from repro.profiling.report import percentile

        times = rec.self_times()
        out: dict = {}
        # an oracle call is a memo miss when the engine ran directly
        # under it (not under a nested oracle call)
        oracle = [i for i, s in enumerate(rec.spans) if s[0] == "serve.cluster"]
        misses = {rec.nearest(i, "serve.cluster") for i, s in enumerate(rec.spans)
                  if s[0] == "core.engine" and s[PARENT] >= 0}
        misses.discard(-1)
        out["serve.cluster.forwards"] = len(misses)
        out["serve.cluster.hit_ratio"] = 1.0 - len(misses) / len(oracle) if oracle else 0.0
        out["serve.cluster.host_s"] = times.get("serve.cluster", (0, 0, 0))[1]
        out["serve.server.host_s"] = times.get("serve.server", (0, 0, 0))[0]
        run = next(s for s in rec.spans if s[0] == "serve.server")
        n = len(rec.arrivals)
        marks = [run[1]] + [rec.arrivals[n * q // 4] for q in (1, 2, 3)] + [run[2]]
        for q in range(4):
            count = n * (q + 1) // 4 - n * q // 4
            out[f"serve.server.host_us_per_request.q{q + 1}"] = (
                (marks[q + 1] - marks[q]) * 1e6 / count if count else 0.0)
        out["obs.timeline.events"] = len(journal.events)
        out["obs.timeline.host_s"] = times.get("obs.timeline", (0, 0, 0))[1]
        waits, seen = [], set()
        for e in journal.events:
            if e["kind"] == "dequeue" and e["request"] not in seen:
                seen.add(e["request"])
                waits.append(e["attrs"]["wait"])
        out["serve.queue.wait_p99_ms"] = percentile(waits, 99.0) * 1e3
        out["serve.server.attempt_amplification"] = report.amplification
        out["serve.server.hedge_win_ratio"] = (
            report.hedges_won / report.hedges_launched if report.hedges_launched else 0.0)
        out["serve.batching.mean_size"] = report.mean_batch_size
        out["serve.batching.occupancy"] = report.batch_occupancy
        out["robust.brownout.degraded_share"] = report.degraded_fraction
        puts, gets = times.get("persist.put", (0, 0, 0)), times.get("persist.get", (0, 0, 0))
        out["persist.store.puts"] = puts[2]
        out["persist.store.gets"] = gets[2]
        out["persist.store.host_ms"] = (puts[1] + gets[1]) * 1e3
        return out


class ServeFleet(ServeWorkload):
    """ROADMAP's all-features campaign: engine-priced, flash crowd."""

    #: one campaign is ~40 s of host time
    MIN_CAMPAIGNS = 1

    def build(self) -> None:
        from repro.robust.brownout import BrownoutConfig
        from repro.robust.domains import StormConfig
        from repro.robust.faults import FaultSpec
        from repro.serve import BatchingConfig, ServeConfig, TrafficConfig

        # the config seed picks the one scene the oracle prices (and the
        # server's noise stream); it stays ROADMAP's seed 7 so every run
        # prices the same scene -- nearly all the host time is the same
        # work -- while the run seed draws the arrivals and the faults.
        # Scene variety is the zoo's job.
        self.config = ServeConfig(
            devices=self.devices, scale=SERVE_SCALE, seed=SERVE_SCENE_SEED,
            domains=FLEET_DOMAINS,
            storm=StormConfig(retry_budget=8.0, retry_refill=0.1),
            batching=BatchingConfig(max_batch=4), brownout=BrownoutConfig(),
            steady_state=True, spares=1,
        )
        # ROADMAP's flash crowd (0.12 s at 4 x 1500 req/s) inside a 2.4 s
        # window instead of 0.6 s: a sixth of the arrivals fall in the
        # flash rather than half, so the median sojourn sits inside one
        # mode instead of flipping between two from seed to seed, and
        # whether the flash sheds moves goodput less
        self.traffic = TrafficConfig(
            rate=1500.0, duration=2.4, models=(SERVE_MODEL,), coherence=0.8,
            shape="flash", peak_factor=4.0, flash_start=0.45, flash_width=0.05,
        )
        self.specs = (
            FaultSpec(kind="device_crash", count=4),
            FaultSpec(kind="device_stall", site=self.labels[-1], count=-1, severity=0.1),
            FaultSpec(kind="queue_spike", count=2),
            FaultSpec(kind="domain_outage", site="r0", count=1, severity=0.05),
        )

    def configure(self, seed: int):
        config = replace(self.config, store_dir=self.fresh_store())
        return config, replace(self.traffic, seed=seed), list(self.specs)


class ServeLoop(ServeWorkload):
    """The same fleet with the engine bypassed: host time is the event
    loop and the flight recorder."""

    #: modeled seconds per frame on every card (engine bypassed)
    LATENCY = 2.0e-3
    #: one campaign is ~11 s of host time; two halve the host noise
    MIN_CAMPAIGNS = 2

    def build(self) -> None:
        from repro.robust.faults import FaultSpec
        from repro.serve import ServeConfig, TrafficConfig

        self.config = ServeConfig(
            devices=self.devices, domains=FLEET_DOMAINS,
            latency_overrides={SERVE_MODEL: self.LATENCY},
        )
        self.traffic = TrafficConfig(
            rate=1200.0, duration=8.0, models=(SERVE_MODEL,),
            shape="flash", peak_factor=2.0,
        )
        self.specs = (
            FaultSpec(kind="device_crash", count=8),
            FaultSpec(kind="queue_spike", count=4),
        )

    def configure(self, seed: int):
        config = replace(self.config, seed=seed)
        return config, replace(self.traffic, seed=seed), list(self.specs)


WORKLOADS = {"zoo": Zoo, "serve-fleet": ServeFleet, "serve-loop": ServeLoop}
