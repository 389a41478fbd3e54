"""Spans around the program's layers, and the per-layer metrics made from them.

A Tracer keeps spans (name, start, end, parent, info) in memory. ``patched``
wraps module attributes of the program for the length of a ``with`` block,
so that every call into a wrapped function opens a span, and restores them
afterwards. The program itself is not changed.

Two patch sets exist:

* ``probes``: the few functions the end-to-end metrics need to see inside
  (a training step's boundaries, validation, per-segment prediction, the
  cache build of each recording). They cost a few microseconds per call and
  are on in every run.
* ``full``: every layer the per-layer metrics report, including each
  autodiff op and the backward closure of each op result.

Self time is taken within a *view*, a set of layers: a span's duration minus
the time of its nearest descendants that belong to the same view. Spans of
other layers are transparent, so a layer's self time in the pipeline view
includes the model and autodiff work it calls, while the autodiff view
splits that work by op.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import re
from time import perf_counter

from prognosis import autodiff as ad
from prognosis import checkpoint, dsp, eeg_io, evaluation, model, train

N_CONV_LAYERS = 7
RATES_HZ = (250, 256)

PIPELINE_VIEW = frozenset({"eeg_io", "dsp", "train", "checkpoint", "evaluation"})
MODEL_VIEW = frozenset({"model"})
AUTODIFF_VIEW = frozenset({"autodiff"})

OP_KEYS = (
    *(f"conv{i}" for i in range(N_CONV_LAYERS)),
    "inorm",
    *(f"gelu@conv{i}" for i in range(N_CONV_LAYERS)),
    "gelu@ffn",
    "linear",
    "matmul",
    "softmax",
    "layer_norm",
    "glue",
)
_OWN_KEY_OPS = ("linear", "matmul", "softmax", "layer_norm")
_NOT_OPS = ("no_grad", "finite_diff_grad")
_CONV_WEIGHT = re.compile(r"^enc\d+\.conv(\d+)\.w$")
_DSP_STAGES = ("filter_signal", "resample", "minmax_rescale", "to_bipolar", "segment")


class Span:
    """One call: ``parent`` is the index of the enclosing span, ``info`` what
    the wrapper noted about the call (hours of signal, samples produced,
    FLOPs, examples)."""

    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name: str, start: float, parent: int | None, info=None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.info = info

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def conv_key(weight_name: str | None) -> str | None:
    """``enc{c}.conv{i}.w`` -> ``conv{i}``; any other name -> None."""
    m = _CONV_WEIGHT.match(weight_name or "")
    return f"conv{m.group(1)}" if m else None


class Tracer:
    """In-memory span recorder plus the state needed to key autodiff ops."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._param_names: dict[int, str] = {}
        # (tensor, conv key) of the latest conv output, so that the GELU
        # applied to it (directly or after instance norm) is keyed by layer
        self._last_conv = None

    def open(self, name: str, info=None) -> Span:
        span = Span(name, perf_counter(), self._stack[-1] if self._stack else None, info)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, info=None):
        s = self.open(name, info)
        try:
            yield s
        finally:
            self.close(s)

    def register_params(self, params: dict) -> None:
        for name, tensor in params.items():
            self._param_names[id(tensor)] = name

    def op_key(self, op: str, args: tuple) -> str:
        if op == "conv1d":
            return conv_key(self._param_names.get(id(args[1]))) or "glue"
        if op == "instance_norm":
            return "inorm"
        if op == "gelu":
            last = self._last_conv
            return f"gelu@{last[1]}" if last and args[0] is last[0] else "gelu@ffn"
        return op if op in _OWN_KEY_OPS else "glue"

    def after_op(self, op: str, key: str, args: tuple, out) -> None:
        if op == "conv1d" and key != "glue":
            self._last_conv = (out, key)
        elif op == "instance_norm":
            last = self._last_conv
            self._last_conv = (out, last[1]) if last and args[0] is last[0] else None
        elif op == "gelu":
            self._last_conv = None

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def merge(span_lists: list[list[Span]]) -> list[Span]:
    """Concatenate separately recorded span lists, fixing parent indices."""
    out: list[Span] = []
    for spans in span_lists:
        base = len(out)
        for s in spans:
            copy = Span(s.name, s.start, None if s.parent is None else s.parent + base, s.info)
            copy.end = s.end
            out.append(copy)
    return out


def write_tsv(spans: list[Span], path) -> None:
    with open(path, "w") as fh:
        fh.write("index\tname\tstart\tend\tparent\n")
        for i, s in enumerate(spans):
            parent = "" if s.parent is None else s.parent
            fh.write(f"{i}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t{parent}\n")


# -- wrapping ---------------------------------------------------------------


def _timed(tracer: Tracer, name: str, fn, info=None):
    """Wrap fn in a span; ``info(args, result)`` is stored on the span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if info is not None:
            span.info = info(args, result)
        return result

    return wrapper


def _conv_flops(args: tuple) -> int:
    x, w = args[0].data, args[1].data
    c_out, c_in, k = w.shape
    l_out = (x.shape[-1] - k) // args[3] + 1
    return 2 * c_out * c_in * k * l_out


def _op(tracer: Tracer, op: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        key = tracer.op_key(op, args)
        span = tracer.open(f"autodiff.{key}.fwd")
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if op == "conv1d":
            span.info = _conv_flops(args)
        tracer.after_op(op, key, args, out)
        if out._backward is not None:
            out._backward = _timed(tracer, f"autodiff.{key}.bwd", out._backward)
        return out

    return wrapper


def _registering(tracer: Tracer, fn, pick):
    """Wrap a function that creates parameters so their names get registered."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.register_params(pick(result))
        return result

    return wrapper


class _SignalProxy:
    """Stands in for ``scipy.signal`` inside ``dsp`` to count filtered samples."""

    def __init__(self, real, tracer: Tracer):
        self._real = real
        self.upfirdn = _timed(
            tracer, "probe.upfirdn", real.upfirdn, lambda a, r: int(r.size)
        )

    def __getattr__(self, name):
        return getattr(self._real, name)


def _hours(rec) -> float:
    return rec.samples.shape[1] / rec.fs_hz / 3600.0


def autodiff_ops() -> list[str]:
    """Public op functions of the autodiff module."""
    return sorted(
        name
        for name, fn in vars(ad).items()
        if inspect.isfunction(fn)
        and fn.__module__ == ad.__name__
        and not name.startswith("_")
        and name not in _NOT_OPS
    )


@contextlib.contextmanager
def patched(tracer: Tracer, full: bool):
    """Install the probe patches, plus all layer patches when ``full``."""
    saved: list[tuple[object, str, object]] = []
    wrappers: dict[int, object] = {}

    def put(obj, attr, make):
        original = getattr(obj, attr)
        if id(original) not in wrappers:
            wrappers[id(original)] = make(original)
        saved.append((obj, attr, original))
        setattr(obj, attr, wrappers[id(original)])

    def timed(name, info=None):
        return lambda fn: _timed(tracer, name, fn, info)

    n_examples = lambda a, r: len(a[2])  # noqa: E731
    try:
        put(train, "sample_training_example", timed("train.sample_training_example"))
        put(train, "adam_step", timed("train.adam_step"))
        put(train, "validation_accuracy", timed("train.validation_accuracy", n_examples))
        put(evaluation, "predict_from_segments",
            timed("evaluation.predict_from_segments", n_examples))
        put(train.SegmentStore, "add_recording",
            timed("train.add_recording", lambda a, r: _hours(a[1])))
        if full:
            put(eeg_io, "load_recording",
                timed("eeg_io.load_recording", lambda a, r: _hours(r)))
            put(dsp, "preprocess",
                timed("dsp.preprocess", lambda a, r: (a[0].fs_hz, _hours(a[0]))))
            for stage in _DSP_STAGES:
                info = (lambda a, r: int(r.size)) if stage == "resample" else None
                put(dsp, stage, timed(f"dsp.{stage}", info))
            saved.append((dsp, "signal", dsp.signal))
            dsp.signal = _SignalProxy(dsp.signal, tracer)
            put(train, "batch_loss_tensors", timed("train.batch_loss_tensors"))
            put(train, "init_params",
                lambda fn: _registering(tracer, fn, lambda r: r))
            put(checkpoint, "load_checkpoint",
                lambda fn: _registering(tracer, timed("checkpoint.load_checkpoint")(fn),
                                        lambda r: r[1]))
            put(train, "save_checkpoint", timed("checkpoint.save_checkpoint"))
            for fn_name in ("build_sequence", "encode_channel", "attention_block",
                            "forward_tensors", "forward"):
                put(model, fn_name, timed(f"model.{fn_name}"))
            put(train, "forward_tensors", timed("model.forward_tensors"))
            put(train, "forward", timed("model.forward"))
            put(evaluation, "forward", timed("model.forward"))
            for op in autodiff_ops():
                put(ad, op, lambda fn, op=op: _op(tracer, op, fn))
            put(ad.Tensor, "backward", timed("autodiff.backward"))
        yield
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)
        tracer._last_conv = None


# -- aggregation ------------------------------------------------------------


def self_times(spans: list[Span], view: frozenset) -> list[float | None]:
    """Self time of each span whose layer is in ``view`` (None for others).

    A span's self time is its duration minus the durations of the spans in
    the view whose nearest in-view ancestor it is. Spans are nested (each
    child lies inside its parent), as they are for synchronous calls.
    """
    out: list[float | None] = [
        s.duration if s.layer in view else None for s in spans
    ]
    for i, s in enumerate(spans):
        if out[i] is None:
            continue
        p = s.parent
        while p is not None and out[p] is None:
            p = spans[p].parent
        if p is not None:
            out[p] -= s.duration
    return out


def _ancestor(spans: list[Span], i: int, name: str) -> Span | None:
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return spans[p]
        p = spans[p].parent
    return None


def _nearest_in(spans: list[Span], i: int, view: frozenset) -> str | None:
    """Name of the nearest ancestor of span i whose layer is in view."""
    p = spans[i].parent
    while p is not None:
        if spans[p].layer in view:
            return spans[p].name
        p = spans[p].parent
    return None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], n_jobs: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``n_jobs`` traced jobs."""
    pipe = self_times(spans, PIPELINE_VIEW)
    mod = self_times(spans, MODEL_VIEW)
    auto = self_times(spans, AUTODIFF_VIEW)
    out: dict[str, float] = {}

    def total(selves, name):
        return sum(t for s, t in zip(spans, selves) if t is not None and s.name == name)

    def count(name):
        return sum(1 for s in spans if s.name == name)

    def info_sum(name):
        return sum(s.info for s in spans if s.name == name and s.info is not None)

    # eeg_io
    out["eeg_io.load_recording.s_per_hour"] = _ratio(
        total(pipe, "eeg_io.load_recording"), info_sum("eeg_io.load_recording")
    )

    # dsp, split by the input rate of the enclosing preprocess call
    stage_s = {(st, r): 0.0 for st in _DSP_STAGES for r in RATES_HZ}
    hours = {r: 0.0 for r in RATES_HZ}
    kept = {r: 0 for r in RATES_HZ}
    filtered = {r: 0 for r in RATES_HZ}
    for i, s in enumerate(spans):
        if s.name == "dsp.preprocess":
            r = round(s.info[0])
            if r in hours:
                hours[r] += s.info[1]
            continue
        if s.layer != "dsp" and s.name != "probe.upfirdn":
            continue
        pre = _ancestor(spans, i, "dsp.preprocess")
        if pre is None or round(pre.info[0]) not in hours:
            continue
        r = round(pre.info[0])
        stage = s.name.partition(".")[2]
        if s.name == "probe.upfirdn":
            filtered[r] += s.info
        elif stage in _DSP_STAGES:
            stage_s[(stage, r)] += pipe[i]
            if stage == "resample":
                kept[r] += s.info
    for st in _DSP_STAGES:
        for r in RATES_HZ:
            out[f"dsp.{st}.s_per_hour.fs{r}"] = _ratio(stage_s[(st, r)], hours[r])
    for r in RATES_HZ:
        # no upsampled filtering recorded: every filtered sample was kept
        out[f"dsp.resample.kept_fraction.fs{r}"] = (
            _ratio(kept[r], filtered[r]) if filtered[r] else float(kept[r] > 0)
        )

    # train: add_recording is cold when it ran the DSP pipeline itself
    cold_parents = {s.parent for s in spans if s.name == "dsp.preprocess"}
    cold = {"s": 0.0, "h": 0.0}
    warm = {"s": 0.0, "h": 0.0}
    for i, s in enumerate(spans):
        if s.name == "train.add_recording":
            acc = cold if i in cold_parents else warm
            acc["s"] += pipe[i]
            acc["h"] += s.info
    out["train.add_recording.cold.s_per_hour"] = _ratio(cold["s"], cold["h"])
    out["train.add_recording.warm.s_per_hour"] = _ratio(warm["s"], warm["h"])
    for fn in ("sample_training_example", "batch_loss_tensors", "adam_step",
               "validation_accuracy"):
        name = f"train.{fn}"
        out[f"{name}.s"] = _ratio(total(pipe, name), count(name))

    # model, per job; "heads" is what forward_tensors and forward do
    # themselves besides building the sequence and running the blocks
    per_job = lambda v: _ratio(v, n_jobs)  # noqa: E731
    block = total(mod, "model.attention_block")
    out["model.encode_channel.s"] = per_job(total(mod, "model.encode_channel"))
    out["model.build_sequence.s"] = per_job(total(mod, "model.build_sequence"))
    out["model.block.s"] = per_job(block)
    out["model.heads.s"] = per_job(
        total(mod, "model.forward_tensors") + total(mod, "model.forward")
    )
    # share of inference (no-tape forward) time spent in attention blocks
    infer_block = sum(
        t for i, (s, t) in enumerate(zip(spans, mod))
        if s.name == "model.attention_block" and _ancestor(spans, i, "model.forward")
    )
    out["model.block.share"] = _ratio(
        infer_block, sum(s.duration for s in spans if s.name == "model.forward")
    )

    # autodiff, per job
    fwd = {k: 0.0 for k in OP_KEYS}
    bwd = {k: 0.0 for k in OP_KEYS}
    flops = {k: 0 for k in OP_KEYS}
    calls = {k: 0 for k in OP_KEYS}
    step_ops = {"all": 0, "conv": 0, "gelu": 0}
    for i, s in enumerate(spans):
        if s.layer != "autodiff" or s.name == "autodiff.backward":
            continue
        key, _, phase = s.name[len("autodiff."):].rpartition(".")
        if phase == "bwd":
            bwd[key] += auto[i]
            continue
        fwd[key] += auto[i]
        calls[key] += 1
        if s.info is not None:
            flops[key] += s.info
        if _nearest_in(spans, i, PIPELINE_VIEW) == "train.batch_loss_tensors":
            step_ops["all"] += 1
            step_ops["conv"] += key.startswith("conv")
            step_ops["gelu"] += key.startswith("gelu@")
    for k in OP_KEYS:
        metric = k.replace("@", "_")
        out[f"autodiff.{metric}.fwd_s"] = per_job(fwd[k])
        out[f"autodiff.{metric}.bwd_s"] = per_job(bwd[k])
    out["autodiff.Tensor.backward.s"] = per_job(total(auto, "autodiff.backward"))
    for i in range(N_CONV_LAYERS):
        k = f"conv{i}"
        out[f"autodiff.{k}.fwd_gflops_per_s"] = _ratio(flops[k], fwd[k]) / 1e9
        out[f"autodiff.{k}.gflop_per_channel"] = _ratio(flops[k], calls[k]) / 1e9
    steps = count("train.batch_loss_tensors")
    out["autodiff.ops_per_step"] = _ratio(step_ops["all"], steps)
    out["autodiff.conv1d.calls_per_step"] = _ratio(step_ops["conv"], steps)
    out["autodiff.gelu.calls_per_step"] = _ratio(step_ops["gelu"], steps)

    # checkpoint and evaluation
    for fn in ("save_checkpoint", "load_checkpoint"):
        name = f"checkpoint.{fn}"
        out[f"{name}.s"] = _ratio(total(pipe, name), count(name))
    out["evaluation.predict_from_segments.s_per_segment"] = _ratio(
        total(pipe, "evaluation.predict_from_segments"),
        info_sum("evaluation.predict_from_segments"),
    )
    return out


# -- the per-layer metrics: name, unit, better, end-to-end metric it moves ---

_FWD = "infer_segment_s on all workloads; step_s on desk-train and wide"
_BWD = "step_s and job_s on desk-train; step_s on wide"


def _per_layer_spec() -> tuple[tuple[str, str, str, str], ...]:
    rows = [("eeg_io.load_recording.s_per_hour", "s/h", "lower",
             "corpus_open_s_per_hour on all workloads; step_s on ingest")]
    for stage in _DSP_STAGES:
        for r in RATES_HZ:
            rows.append((f"dsp.{stage}.s_per_hour.fs{r}", "s/h", "lower",
                         "preprocess_s_per_hour and step_s on ingest; "
                         "no change on desk-train or wide"))
    for r in RATES_HZ:
        rows.append((f"dsp.resample.kept_fraction.fs{r}", "ratio", "higher",
                     "preprocess_s_per_hour and step_s on ingest"))
    rows += [
        ("train.add_recording.cold.s_per_hour", "s/h", "lower",
         "preprocess_s_per_hour on ingest"),
        ("train.add_recording.warm.s_per_hour", "s/h", "lower",
         "corpus_open_s_per_hour on all workloads"),
        ("train.sample_training_example.s", "s", "lower", _BWD),
        ("train.batch_loss_tensors.s", "s", "lower", _BWD),
        ("train.adam_step.s", "s", "lower", _BWD),
        ("train.validation_accuracy.s", "s", "lower",
         "job_s and infer_segment_s on desk-train"),
        ("model.encode_channel.s", "s/job", "lower", _FWD),
        ("model.build_sequence.s", "s/job", "lower", _FWD),
        ("model.block.s", "s/job", "lower", _FWD),
        ("model.heads.s", "s/job", "lower", _FWD),
        ("model.block.share", "ratio", "lower", "infer_segment_s on wide (entry4)"),
    ]
    for k in OP_KEYS:
        metric = k.replace("@", "_")
        rows.append((f"autodiff.{metric}.fwd_s", "s/job", "lower", _FWD))
        rows.append((f"autodiff.{metric}.bwd_s", "s/job", "lower", _BWD))
    rows.append(("autodiff.Tensor.backward.s", "s/job", "lower", _BWD))
    for i in range(N_CONV_LAYERS):
        rows.append((f"autodiff.conv{i}.fwd_gflops_per_s", "GFLOP/s", "higher", _FWD))
        rows.append((f"autodiff.conv{i}.gflop_per_channel", "GFLOP", "lower", _FWD))
    for name in ("ops_per_step", "conv1d.calls_per_step", "gelu.calls_per_step"):
        rows.append((f"autodiff.{name}", "count", "lower", _BWD))
    rows += [
        ("checkpoint.save_checkpoint.s", "s", "lower",
         "job_s on desk-train; setup_s on ingest"),
        ("checkpoint.load_checkpoint.s", "s", "lower", "job_s on ingest"),
        ("evaluation.predict_from_segments.s_per_segment", "s", "lower",
         "infer_segment_s and step_s on ingest"),
        ("trace.overhead_s", "s/job", "lower", "none: cost of tracing itself"),
        ("trace.overhead_share", "ratio", "lower", "none: cost of tracing itself"),
    ]
    return tuple(rows)


PER_LAYER = _per_layer_spec()
