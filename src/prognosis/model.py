"""Hybrid 1D-CNN + attention model.

Each bipolar channel has its own dedicated 7-layer conv encoder producing
12 tokens per 5-minute segment. Tokens from all channels are concatenated,
two learnable summary tokens ([class] at position 0, [regress] at
position 1) are prepended, learnable positional vectors are added, and the
result runs through K post-norm attention blocks with M heads. Two
single-layer heads read the summary token states.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from functools import cache
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dsp import SEGMENT_SAMPLES
from .errors import BadConfig, ShapeMismatch


@dataclass(frozen=True)
class ConvLayerSpec:
    kernel: int
    stride: int
    out_channels: int
    has_instance_norm: bool = False

    def __post_init__(self):
        if self.kernel < 1 or self.stride < 1 or self.out_channels < 1:
            raise BadConfig(f"bad conv layer spec: {self}")


@cache
def default_conv_layers(embed_dim: int) -> tuple[ConvLayerSpec, ...]:
    """The paper's 7-layer schedule: kernels (5,3,3,3,4,3,3), strides
    (5,3,3,3,3,2,3), instance norm after the first layer only.

    Maps 30000 samples to 12 tokens with receptive field 2970 and jump 2430.
    """
    kernels = (5, 3, 3, 3, 4, 3, 3)
    strides = (5, 3, 3, 3, 3, 2, 3)
    return tuple(
        ConvLayerSpec(k, s, embed_dim, has_instance_norm=(i == 0))
        for i, (k, s) in enumerate(zip(kernels, strides))
    )


def conv_output_length(conv_layers, n: int) -> int:
    for layer in conv_layers:
        if n < layer.kernel:
            raise BadConfig(f"input length {n} shorter than kernel {layer.kernel}")
        n = (n - layer.kernel) // layer.stride + 1
    return n


def receptive_field(conv_layers) -> tuple[int, int]:
    """(receptive field, jump) of one output sample of the conv stack."""
    rf = 1
    jump = 1
    for layer in conv_layers:
        rf += (layer.kernel - 1) * jump
        jump *= layer.stride
    return rf, jump


@dataclass(frozen=True)
class ModelConfig:
    """One row of the paper's architecture table. The conv schedule and the
    segment length are fixed by the paper, not settable."""

    n_bipolar_channels: int = 18
    embed_dim: int = 768
    n_attention_blocks: int = 8
    n_heads: int = 8
    ffn_hidden: int = 3072
    segment_len: ClassVar[int] = SEGMENT_SAMPLES

    def __post_init__(self):
        if self.embed_dim < 1:
            raise BadConfig(f"embed_dim must be >= 1, got {self.embed_dim}")
        if self.n_heads < 1 or self.embed_dim % self.n_heads != 0:
            raise BadConfig(
                f"embed_dim {self.embed_dim} not divisible by {self.n_heads} heads"
            )

    @property
    def conv_layers(self) -> tuple[ConvLayerSpec, ...]:
        return default_conv_layers(self.embed_dim)

    @property
    def tokens_per_channel(self) -> int:
        return conv_output_length(self.conv_layers, self.segment_len)

    @property
    def seq_len(self) -> int:
        return self.n_bipolar_channels * self.tokens_per_channel + 2

    def to_dict(self) -> dict:
        """The table row plus the fixed schedule, as a checkpoint records it."""
        return {**asdict(self), "segment_len": self.segment_len,
                "conv_layers": [asdict(c) for c in self.conv_layers]}

    @classmethod
    def from_dict(cls, d) -> "ModelConfig":
        """Inverse of ``to_dict``, for checkpoints: a missing or mistyped field,
        or a segment length or conv schedule other than the paper's, is a
        BadConfig."""
        if type(d) is not dict:
            raise BadConfig(f"model config must be a JSON object, got {d!r}")
        for key, kind in _CONFIG_FIELDS.items():  # exact types: a bool is not an int
            if type(d.get(key)) is not kind:
                raise BadConfig(f"model config: {key} must be {kind.__name__}, got {d.get(key)!r}")
        config = cls(**{f.name: d[f.name] for f in fields(cls)})
        paper = config.to_dict()
        for key in ("segment_len", "conv_layers"):
            if d[key] != paper[key]:
                raise BadConfig(f"model config: {key} differs from the paper's fixed value")
        return config


_CONFIG_FIELDS = {
    **dict.fromkeys(("n_bipolar_channels", "embed_dim", "n_attention_blocks", "n_heads",
                     "ffn_hidden", "segment_len"), int),
    "conv_layers": list,
}


# Table-style architecture presets: (channels, blocks, heads). Entries 1 and 2
# share an architecture; "desk" is the small configuration used for tests.
PRESETS: dict[str, dict] = {
    "desk": dict(n_bipolar_channels=2, embed_dim=32, n_attention_blocks=2,
                 n_heads=2, ffn_hidden=128),
    "entry1": dict(n_bipolar_channels=2, embed_dim=768, n_attention_blocks=2,
                   n_heads=2, ffn_hidden=3072),
    "entry3": dict(n_bipolar_channels=2, embed_dim=768, n_attention_blocks=8,
                   n_heads=8, ffn_hidden=3072),
    "entry4": dict(n_bipolar_channels=18, embed_dim=768, n_attention_blocks=8,
                   n_heads=8, ffn_hidden=3072),
}
PRESETS["entry2"] = PRESETS["entry1"]


def preset_config(name: str) -> ModelConfig:
    if name not in PRESETS:
        raise BadConfig(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return ModelConfig(**PRESETS[name])


@dataclass
class ModelOutput:
    poor_prob: float
    cpc_raw: float
    cpc_pred: int


def param_table(config: ModelConfig) -> list[tuple[str, tuple[int, ...], int | str]]:
    """Every learnable parameter as (name, shape, init), in the order
    ``init_params`` draws them. ``init`` is the fan-in of a U(+-1/sqrt(fan_in))
    weight, or "zeros", "ones" or "normal" (N(0, 0.02))."""
    d = config.embed_dim
    table: list[tuple[str, tuple[int, ...], int | str]] = []
    for c in range(config.n_bipolar_channels):
        in_ch = 1
        for i, layer in enumerate(config.conv_layers):
            out = layer.out_channels
            table.append((f"enc{c}.conv{i}.w", (out, in_ch, layer.kernel), in_ch * layer.kernel))
            table.append((f"enc{c}.conv{i}.b", (out,), "zeros"))
            if layer.has_instance_norm:
                table.append((f"enc{c}.inorm.gain", (out,), "ones"))
                table.append((f"enc{c}.inorm.shift", (out,), "zeros"))
            in_ch = out

    table.append(("pos", (config.seq_len, d), "normal"))
    table.append(("class_token", (d,), "normal"))
    table.append(("regress_token", (d,), "normal"))

    h = config.ffn_hidden
    for k in range(config.n_attention_blocks):
        for proj in ("q", "k", "v", "o"):
            table.append((f"blk{k}.{proj}.w", (d, d), d))
            table.append((f"blk{k}.{proj}.b", (d,), "zeros"))
        table.append((f"blk{k}.ffn1.w", (d, h), d))
        table.append((f"blk{k}.ffn1.b", (h,), "zeros"))
        table.append((f"blk{k}.ffn2.w", (h, d), h))
        table.append((f"blk{k}.ffn2.b", (d,), "zeros"))
        for ln in ("ln1", "ln2"):
            table.append((f"blk{k}.{ln}.gain", (d,), "ones"))
            table.append((f"blk{k}.{ln}.shift", (d,), "zeros"))

    for head in ("class_head", "regress_head"):
        table.append((f"{head}.w", (d, 1), d))
        table.append((f"{head}.b", (1,), "zeros"))
    return table


def init_params(
    config: ModelConfig, seed: int, dtype=np.float32
) -> dict[str, Tensor]:
    """Fresh learnable parameters, keyed by name, drawn in ``param_table``
    order: conv/linear weights ~ U(+-1/sqrt(fan_in)), biases zero; positional
    vectors and summary tokens ~ N(0, 0.02); norm gains 1, shifts 0.
    """
    rng = np.random.default_rng(seed)

    def draw(shape, init) -> np.ndarray:
        if init == "zeros":
            return np.zeros(shape, dtype=dtype)
        if init == "ones":
            return np.ones(shape, dtype=dtype)
        if init == "normal":
            return rng.normal(0.0, 0.02, size=shape).astype(dtype)
        bound = 1.0 / math.sqrt(init)
        return rng.uniform(-bound, bound, size=shape).astype(dtype)

    return {
        name: Tensor(draw(shape, init), requires_grad=True)
        for name, shape, init in param_table(config)
    }


def count_parameters(params: dict[str, Tensor]) -> int:
    return sum(int(p.data.size) for p in params.values())


def encode_channel(
    params: dict[str, Tensor], config: ModelConfig, channel_index: int, x: Tensor
) -> Tensor:
    """Run one bipolar channel [1, segment_len] through its dedicated encoder.

    Returns tokens [tokens_per_channel, embed_dim].
    """
    if x.data.shape != (1, config.segment_len):
        raise ShapeMismatch(
            f"channel input must be 1x{config.segment_len}, got {x.data.shape}"
        )
    c = channel_index
    h = x
    for i, layer in enumerate(config.conv_layers):
        h = ad.conv1d(
            h, params[f"enc{c}.conv{i}.w"], params[f"enc{c}.conv{i}.b"], layer.stride
        )
        if layer.has_instance_norm:
            h = ad.instance_norm(
                h, params[f"enc{c}.inorm.gain"], params[f"enc{c}.inorm.shift"]
            )
        h = ad.gelu(h)
    return ad.transpose(h, (1, 0))  # [tokens, d]


def build_sequence(
    params: dict[str, Tensor], config: ModelConfig, segment_data: np.ndarray
) -> Tensor:
    """Assemble the token sequence for one segment.

    Concatenates per-channel token matrices in montage order, prepends the
    [class] (position 0) and [regress] (position 1) tokens, and adds the
    learnable positional vectors to all positions.
    """
    if segment_data.shape[0] < config.n_bipolar_channels:
        raise ShapeMismatch(
            f"segment has {segment_data.shape[0]} channels, model needs "
            f"{config.n_bipolar_channels}"
        )
    dtype = params["pos"].data.dtype
    channel_tokens = []
    for c in range(config.n_bipolar_channels):
        x = Tensor(np.ascontiguousarray(segment_data[c : c + 1], dtype=dtype))
        channel_tokens.append(encode_channel(params, config, c, x))
    d = config.embed_dim
    seq = ad.concat(
        [
            ad.reshape(params["class_token"], (1, d)),
            ad.reshape(params["regress_token"], (1, d)),
            *channel_tokens,
        ],
        axis=0,
    )
    return ad.add(seq, params["pos"])


def attention_block(
    params: dict[str, Tensor], config: ModelConfig, block_index: int, x: Tensor
) -> Tensor:
    """Post-norm block: LN(x + MHA(x)) then LN(h + FFN(h))."""
    k = block_index
    s, d = x.data.shape
    m = config.n_heads
    hd = d // m
    q = ad.linear(x, params[f"blk{k}.q.w"], params[f"blk{k}.q.b"])
    kk = ad.linear(x, params[f"blk{k}.k.w"], params[f"blk{k}.k.b"])
    v = ad.linear(x, params[f"blk{k}.v.w"], params[f"blk{k}.v.b"])
    # [S, d] -> [M, S, d/M]
    q = ad.transpose(ad.reshape(q, (s, m, hd)), (1, 0, 2))
    kk = ad.transpose(ad.reshape(kk, (s, m, hd)), (1, 0, 2))
    v = ad.transpose(ad.reshape(v, (s, m, hd)), (1, 0, 2))
    logits = ad.scale(ad.matmul(q, ad.transpose(kk, (0, 2, 1))), 1.0 / math.sqrt(hd))
    attn = ad.softmax(logits)
    heads = ad.matmul(attn, v)  # [M, S, hd]
    merged = ad.reshape(ad.transpose(heads, (1, 0, 2)), (s, d))
    mha = ad.linear(merged, params[f"blk{k}.o.w"], params[f"blk{k}.o.b"])
    h1 = ad.layer_norm(
        ad.add(x, mha), params[f"blk{k}.ln1.gain"], params[f"blk{k}.ln1.shift"]
    )
    ffn = ad.linear(
        ad.gelu(ad.linear(h1, params[f"blk{k}.ffn1.w"], params[f"blk{k}.ffn1.b"])),
        params[f"blk{k}.ffn2.w"],
        params[f"blk{k}.ffn2.b"],
    )
    return ad.layer_norm(
        ad.add(h1, ffn), params[f"blk{k}.ln2.gain"], params[f"blk{k}.ln2.shift"]
    )


def forward_tensors(
    params: dict[str, Tensor], config: ModelConfig, segment_data: np.ndarray
) -> tuple[Tensor, Tensor]:
    """Forward pass returning (class_logit, cpc_raw) as [1]-shaped tensors."""
    h = build_sequence(params, config, segment_data)
    for k in range(config.n_attention_blocks):
        h = attention_block(params, config, k, h)
    class_state = ad.slice_rows(h, 0, 1)  # [1, d]
    regress_state = ad.slice_rows(h, 1, 2)
    logit = ad.linear(class_state, params["class_head.w"], params["class_head.b"])
    cpc_raw = ad.linear(regress_state, params["regress_head.w"], params["regress_head.b"])
    return ad.reshape(logit, (1,)), ad.reshape(cpc_raw, (1,))


def forward(
    params: dict[str, Tensor], config: ModelConfig, segment_data: np.ndarray
) -> ModelOutput:
    """Inference on one segment (no tape)."""
    with ad.no_grad():
        logit, cpc_raw = forward_tensors(params, config, segment_data)
        prob = ad.sigmoid(logit)
    raw = float(cpc_raw.data[0])
    return ModelOutput(
        poor_prob=float(prob.data[0]),
        cpc_raw=raw,
        cpc_pred=round_cpc(raw),
    )


def round_cpc(raw: float) -> int:
    """The CPC score (1-5) nearest a raw regression output."""
    return int(np.clip(round(raw), 1, 5))
