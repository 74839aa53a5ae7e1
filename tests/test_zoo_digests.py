"""Golden output digests of the seven zoo models.

``tests/data/zoo_output_digests.json`` holds the sha256 of every output
array's bytes of each :data:`~repro.models.MODEL_ZOO` model on one
small seeded scene, under three engines:

* ``torchsparse``: :class:`~repro.core.engine.TorchSparseEngine` (FP16);
* ``torchsparse_fod``: the same FP16 config with the fetch-on-demand
  dispatch on (threshold above every map size, so every layer where
  fetch-on-demand prices cheaper takes that dataflow);
* ``baseline``: :class:`~repro.core.engine.BaselineEngine` (FP32).

The digests were taken before the host-side FP16 emulation was
vectorized; any change to the numerics path must keep every output
byte-identical (``==``).  The file is an equivalence oracle and is
never regenerated.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import (
    BaselineEngine,
    EngineConfig,
    ExecutionContext,
    TorchSparseEngine,
)
from repro.core.sparse_tensor import SparseTensor
from repro.gpu.device import RTX_2080TI
from repro.models import MODEL_ZOO
from repro.obs.metrics import use_registry

GOLDEN = Path(__file__).parent / "data" / "zoo_output_digests.json"

ENGINES = {
    "torchsparse": lambda: TorchSparseEngine(),
    "torchsparse_fod": lambda: TorchSparseEngine(
        EngineConfig.torchsparse(fetch_on_demand_threshold=1 << 30)
    ),
    "baseline": lambda: BaselineEngine(),
}


def output_digest(out) -> str:
    """sha256 over the shape, dtype and bytes of every array of a model
    output, in output order (a sparse tensor's coordinates and features;
    a dict's values in insertion order)."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, SparseTensor):
            feed(v.coords)
            feed(v.feats)
        elif isinstance(v, dict):
            for key, item in v.items():
                h.update(str(key).encode())
                feed(item)
        elif isinstance(v, np.ndarray):
            a = np.ascontiguousarray(v)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
        else:
            h.update(repr(v).encode())

    feed(out)
    return h.hexdigest()


def zoo_digests(scale: float, seed: int) -> tuple:
    """``({engine: {model: digest}}, fetch-on-demand dispatches of the
    ``torchsparse_fod`` engine)``."""
    digests = {name: {} for name in ENGINES}
    fod = 0
    for entry in MODEL_ZOO:
        model = entry.make_model()
        x = entry.make_dataset().sample_tensor(seed=seed, scale=scale)
        for name, make in ENGINES.items():
            with use_registry() as reg:
                ctx = ExecutionContext(engine=make(), device=RTX_2080TI)
                digests[name][entry.key] = output_digest(model(x, ctx))
                if name == "torchsparse_fod":
                    fod += reg.counter(
                        "engine.dispatch", dataflow="fetch_on_demand"
                    ).value
    return digests, int(fod)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_zoo_outputs_match_golden_digests(golden):
    got, fod = zoo_digests(golden["scale"], golden["seed"])
    # the fetch-on-demand config really exercises that dataflow
    assert fod > 0
    assert set(got) == set(golden["digests"])
    for name, per_model in golden["digests"].items():
        assert set(got[name]) == set(per_model)
        mismatched = [k for k, v in per_model.items() if got[name][k] != v]
        assert not mismatched, f"{name}: outputs changed for {mismatched}"


def test_golden_covers_every_zoo_model_and_engine(golden):
    assert set(golden["digests"]) == set(ENGINES)
    for per_model in golden["digests"].values():
        assert list(per_model) == [e.key for e in MODEL_ZOO]
    # FP16 and FP32 outputs genuinely differ: the digests see precision
    for entry in MODEL_ZOO:
        assert (
            golden["digests"]["torchsparse"][entry.key]
            != golden["digests"]["baseline"][entry.key]
        )
