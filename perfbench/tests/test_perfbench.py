"""Tests of the benchmark's own code: percentiles, op keying, self time, spec.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
import tracing  # noqa: E402
from prognosis import autodiff as ad  # noqa: E402
from prognosis import model, train  # noqa: E402
from tracing import Span, Tracer, conv_key, layer_metrics, merge, self_times  # noqa: E402


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (39, None), (40, 75), (99, 75), (100, 90), (199, 90), (200, 95),
     (999, 95), (1000, 99)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


@pytest.mark.parametrize(
    "name, key",
    [("enc0.conv0.w", "conv0"), ("enc17.conv6.w", "conv6"), ("enc3.conv4.b", None),
     ("enc3.inorm.gain", None), ("blk0.q.w", None), ("xenc0.conv1.w", None), (None, None)],
)
def test_conv_key_from_weight_names(name, key):
    assert conv_key(name) == key


def _span(name, start, end, parent):
    s = Span(name, start, parent)
    s.end = end
    return s


def test_self_time_subtracts_nearest_descendants_in_view():
    spans = [
        _span("train.add_recording", 0.0, 10.0, None),
        _span("model.forward", 1.0, 6.0, 0),  # outside the pipeline view
        _span("dsp.resample", 2.0, 5.0, 1),  # re-parented to add_recording
        _span("dsp.segment", 7.0, 8.0, 0),
    ]
    pipe = self_times(spans, tracing.PIPELINE_VIEW)
    assert pipe == [pytest.approx(6.0), None, pytest.approx(3.0), pytest.approx(1.0)]
    mod = self_times(spans, tracing.MODEL_VIEW)
    assert mod == [None, pytest.approx(5.0), None, None]


def test_merge_shifts_parent_indices():
    a = [_span("bench.job", 0, 2, None), _span("train.adam_step", 0, 1, 0)]
    b = [_span("bench.job", 3, 5, None), _span("train.adam_step", 3, 4, 0)]
    merged = merge([a, b])
    assert [s.parent for s in merged] == [None, 0, None, 2]
    assert b[1].parent == 0  # inputs untouched


def test_gelu_keyed_by_the_conv_it_follows():
    tracer = Tracer()
    conv_out, other = ad.Tensor(np.ones(3)), ad.Tensor(np.ones(3))
    assert tracer.op_key("gelu", (conv_out,)) == "gelu@ffn"
    tracer.after_op("conv1d", "conv2", (), conv_out)
    assert tracer.op_key("gelu", (other,)) == "gelu@ffn"
    assert tracer.op_key("gelu", (conv_out,)) == "gelu@conv2"
    normed = ad.Tensor(np.ones(3))
    tracer.after_op("instance_norm", "inorm", (conv_out,), normed)
    assert tracer.op_key("gelu", (normed,)) == "gelu@conv2"
    tracer.after_op("gelu", "gelu@conv2", (normed,), ad.Tensor(np.ones(3)))
    assert tracer.op_key("gelu", (normed,)) == "gelu@ffn"


@pytest.fixture(scope="module")
def desk_step_spans():
    """Spans of one traced desk training step at batch 10."""
    cfg = model.preset_config("desk")
    params = model.init_params(cfg, seed=0)
    rng = np.random.default_rng(0)
    batch = [
        train.TrainingExample(
            rng.uniform(-1, 1, (18, cfg.segment_len)).astype(np.float32), i % 2, 1 + i % 5, "p"
        )
        for i in range(10)
    ]
    tracer = Tracer()
    tracer.register_params(params)
    with tracing.patched(tracer, full=True):
        with tracer.span("bench.job"):
            _, _, total = train.batch_loss_tensors(params, cfg, batch)
            total.backward()
    return tracer.take()


def test_patches_are_restored(desk_step_spans):
    assert ad.conv1d.__module__ == ad.__name__ and not hasattr(ad.conv1d, "__wrapped__")
    assert not hasattr(train.batch_loss_tensors, "__wrapped__")


def test_desk_step_op_counts(desk_step_spans):
    m = layer_metrics(desk_step_spans, n_jobs=1)
    assert m["autodiff.conv1d.calls_per_step"] == 140
    assert m["autodiff.gelu.calls_per_step"] == 160
    assert m["autodiff.ops_per_step"] > 160


def test_desk_step_layers_keyed(desk_step_spans):
    names = [s.name for s in desk_step_spans]
    # the first encoder in order: conv0, inorm, gelu@conv0, conv1, gelu@conv1, ...
    fwd = [n for n in names if n.startswith("autodiff.") and n.endswith(".fwd")]
    expected = ["conv0", "inorm", "gelu@conv0"] + [
        k for i in range(1, 7) for k in (f"conv{i}", f"gelu@conv{i}")
    ]
    assert fwd[: len(expected)] == [f"autodiff.{k}.fwd" for k in expected]
    assert "autodiff.gelu@ffn.fwd" in names
    assert "autodiff.conv6.bwd" in names and "autodiff.gelu@conv0.bwd" in names
    m = layer_metrics(desk_step_spans, n_jobs=1)
    # width 32: conv1 maps 32 channels x 3 taps to 32 at 2000 positions
    assert m["autodiff.conv1.gflop_per_channel"] == pytest.approx(2 * 32 * 32 * 3 * 2000 / 1e9)
    for k in tracing.OP_KEYS:
        assert m[f"autodiff.{k.replace('@', '_')}.fwd_s"] > 0, k
    assert m["autodiff.Tensor.backward.s"] > 0


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        row[:3] for row in tracing.PER_LAYER
    ]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert {w["name"] for w in bench["workloads"]} == {"desk-train", "wide", "ingest"}
