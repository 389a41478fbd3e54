import dataclasses
import hashlib
import json
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from prognosis import autodiff as ad
from prognosis import model as M
from prognosis.autodiff import Tensor
from prognosis.checkpoint import load_checkpoint, save_checkpoint
from prognosis.errors import BadConfig, DataFileError, NonFiniteValue, ShapeMismatch
from prognosis.model import (
    ConvLayerSpec,
    ModelConfig,
    build_sequence,
    count_parameters,
    default_conv_layers,
    encode_channel,
    forward,
    init_params,
    preset_config,
    receptive_field,
)


@pytest.fixture(scope="module")
def desk():
    return preset_config("desk")


@pytest.fixture(scope="module")
def desk_params(desk):
    return init_params(desk, seed=0)


def payload_start(raw: bytes) -> int:
    """The offset of a checkpoint's first tensor payload, just past its header."""
    (hlen,) = struct.unpack("<I", raw[12:16])
    return 16 + hlen


def random_segment(seed=0, channels=18):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, size=(channels, 30000)).astype(np.float32)


class TestReceptiveField:
    def test_default_schedule(self):
        assert receptive_field(default_conv_layers(32)) == (2970, 2430)

    def test_single_layer(self):
        assert receptive_field([ConvLayerSpec(5, 5, 1)]) == (5, 5)

    def test_two_layers(self):
        layers = [ConvLayerSpec(3, 1, 1), ConvLayerSpec(3, 1, 1)]
        assert receptive_field(layers) == (5, 1)

    def test_token_count(self):
        assert M.conv_output_length(default_conv_layers(32), 30000) == 12


class TestConfig:
    def test_seq_len(self, desk):
        assert desk.tokens_per_channel == 12
        assert desk.seq_len == 2 * 12 + 2

    def test_full_scale_dims(self):
        cfg = preset_config("entry4")
        assert cfg.seq_len == 18 * 12 + 2 == 218
        assert cfg.embed_dim == 768

    def test_presets_match_table(self):
        expected = {
            "entry1": (2, 2, 2),
            "entry2": (2, 2, 2),
            "entry3": (2, 8, 8),
            "entry4": (18, 8, 8),
        }
        for name, (ch, k, m) in expected.items():
            cfg = preset_config(name)
            assert (cfg.n_bipolar_channels, cfg.n_attention_blocks, cfg.n_heads) == (
                ch, k, m,
            )
        with pytest.raises(BadConfig, match="unknown preset 'entry9'"):
            preset_config("entry9")

    def test_heads_must_divide(self):
        with pytest.raises(BadConfig):
            ModelConfig(n_bipolar_channels=2, embed_dim=32, n_attention_blocks=1,
                        n_heads=5, ffn_hidden=64)

    def test_config_is_a_table_row(self, desk):
        assert [f.name for f in dataclasses.fields(ModelConfig)] == [
            "n_bipolar_channels", "embed_dim", "n_attention_blocks", "n_heads", "ffn_hidden",
        ]
        assert desk.conv_layers is ModelConfig(embed_dim=32, n_heads=2).conv_layers

    def test_round_trip_dict(self, desk):
        assert ModelConfig.from_dict(desk.to_dict()) == desk


class TestEncoder:
    def test_desk_output_shape(self, desk, desk_params):
        x = Tensor(random_segment()[0:1])
        out = encode_channel(desk_params, desk, 0, x)
        assert out.data.shape == (12, 32)

    def test_stem_activations_are_time_major(self, desk, desk_params, monkeypatch):
        """conv1d reads kernel == stride windows as a reshape view of x.data.T,
        so every stem activation must stay a transposed C-contiguous array."""
        outs = []

        def recording(real):
            def op(*args):
                outs.append(real(*args))
                return outs[-1]
            return op

        for op in ("conv1d", "instance_norm", "gelu"):
            monkeypatch.setattr(ad, op, recording(getattr(ad, op)))
        encode_channel(desk_params, desk, 0, Tensor(random_segment()[0:1]))
        assert len(outs) == 15  # 7 convs, 1 instance norm, 7 GELUs
        assert all(out.data.T.flags.c_contiguous for out in outs)

    def test_wrong_length_rejected(self, desk, desk_params):
        with pytest.raises(ShapeMismatch):
            encode_channel(desk_params, desk, 0, Tensor(np.zeros((1, 29999))))
        with pytest.raises(ShapeMismatch, match="segment has 1 channels, model needs 2"):
            build_sequence(desk_params, desk, random_segment(channels=1))

    def test_sequence_shape(self, desk, desk_params):
        seq = build_sequence(desk_params, desk, random_segment())
        assert seq.data.shape == (26, 32)

    def test_sequence_is_concat_of_encoders(self, desk, desk_params):
        params = dict(desk_params)
        for name in ("pos", "class_token", "regress_token"):
            params[name] = Tensor(np.zeros_like(desk_params[name].data))
        seg = random_segment(seed=3)
        seq = build_sequence(params, desk, seg)
        tok0 = encode_channel(params, desk, 0, Tensor(seg[0:1].astype(np.float32)))
        tok1 = encode_channel(params, desk, 1, Tensor(seg[1:2].astype(np.float32)))
        assert np.allclose(seq.data[0:2], 0)
        assert np.allclose(seq.data[2:14], tok0.data)
        assert np.allclose(seq.data[14:26], tok1.data)

    def test_per_channel_isolation(self, desk, desk_params):
        seg = random_segment(seed=4)
        base = build_sequence(desk_params, desk, seg).data
        bumped = seg.copy()
        # a constant offset would be cancelled by the instance norm; use noise
        bumped[1] += 0.01 * np.random.default_rng(5).standard_normal(30000).astype(np.float32)
        out = build_sequence(desk_params, desk, bumped).data
        assert np.array_equal(out[:14], base[:14])
        assert not np.allclose(out[14:26], base[14:26])


class TestAttentionBlock:
    def test_shape_preserved(self, desk, desk_params):
        x = Tensor(np.random.default_rng(0).standard_normal((7, 32)))
        out = M.attention_block(desk_params, desk, 0, x)
        assert out.data.shape == (7, 32)

    def test_uniform_attention_is_row_mean(self, desk):
        d = desk.embed_dim
        params = init_params(desk, seed=0)
        zeros = lambda *s: Tensor(np.zeros(s, dtype=np.float32))
        params["blk0.q.w"] = zeros(d, d)
        params["blk0.q.b"] = zeros(d)
        params["blk0.k.w"] = zeros(d, d)
        params["blk0.k.b"] = zeros(d)
        params["blk0.v.w"] = Tensor(np.eye(d, dtype=np.float32))
        params["blk0.v.b"] = zeros(d)
        params["blk0.o.w"] = Tensor(np.eye(d, dtype=np.float32))
        params["blk0.o.b"] = zeros(d)
        params["blk0.ffn1.w"] = zeros(d, desk.ffn_hidden)
        params["blk0.ffn1.b"] = zeros(desk.ffn_hidden)
        params["blk0.ffn2.w"] = zeros(desk.ffn_hidden, d)
        params["blk0.ffn2.b"] = zeros(d)
        params["blk0.ln1.gain"] = Tensor(np.ones(d, dtype=np.float32))
        params["blk0.ln1.shift"] = zeros(d)
        params["blk0.ln2.gain"] = Tensor(np.ones(d, dtype=np.float32))
        params["blk0.ln2.shift"] = zeros(d)
        x = np.random.default_rng(1).standard_normal((5, d))
        out = M.attention_block(params, desk, 0, Tensor(x)).data

        def rownorm(a, eps=1e-5):
            mu = a.mean(axis=-1, keepdims=True)
            var = a.var(axis=-1, keepdims=True)
            return (a - mu) / np.sqrt(var + eps)

        mha = np.tile(x.mean(axis=0), (5, 1))  # uniform softmax averages rows
        expected = rownorm(rownorm(x + mha))
        assert np.allclose(out, expected, atol=1e-5)

    def test_attention_rows_sum_to_one(self, desk, desk_params):
        x = np.random.default_rng(2).standard_normal((6, 32))
        d, m = desk.embed_dim, desk.n_heads
        hd = d // m
        q = x @ desk_params["blk0.q.w"].data + desk_params["blk0.q.b"].data
        k = x @ desk_params["blk0.k.w"].data + desk_params["blk0.k.b"].data
        q = q.reshape(6, m, hd).transpose(1, 0, 2)
        k = k.reshape(6, m, hd).transpose(1, 0, 2)
        logits = (q @ k.transpose(0, 2, 1)) / np.sqrt(hd)
        weights = ad.softmax(Tensor(logits)).data
        assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-6)


class TestForward:
    def test_codomains(self, desk, desk_params):
        out = forward(desk_params, desk, random_segment(seed=5))
        assert 0.0 <= out.poor_prob <= 1.0
        assert out.cpc_pred in {1, 2, 3, 4, 5}

    def test_determinism(self, desk, desk_params):
        seg = random_segment(seed=6)
        a = forward(desk_params, desk, seg)
        b = forward(desk_params, desk, seg)
        assert a.poor_prob == b.poor_prob and a.cpc_raw == b.cpc_raw

    def test_attention_reach(self, desk, desk_params):
        seg = random_segment(seed=7)
        with ad.no_grad():
            base, _ = M.forward_tensors(desk_params, desk, seg)
        noise = 0.05 * np.random.default_rng(8).standard_normal(30000).astype(np.float32)
        for ch in range(desk.n_bipolar_channels):
            bumped = seg.copy()
            bumped[ch] += noise
            with ad.no_grad():
                logit, _ = M.forward_tensors(desk_params, desk, bumped)
            assert logit.data[0] != base.data[0]


class TestParameterCount:
    def test_single_head(self):
        params = {
            "w": Tensor(np.zeros((768, 1))),
            "b": Tensor(np.zeros(1)),
        }
        assert count_parameters(params) == 769

    def test_linear_in_blocks(self, desk):
        base = count_parameters(init_params(desk, seed=0))
        cfg4 = ModelConfig(n_bipolar_channels=2, embed_dim=32,
                           n_attention_blocks=4, n_heads=2, ffn_hidden=128)
        more = count_parameters(init_params(cfg4, seed=0))
        d, f = 32, 128
        block = 4 * (d * d + d) + (d * f + f) + (f * d + d) + 4 * d
        assert more - base == 2 * block

    def test_desk_hand_sum(self, desk, desk_params):
        d, f, seq = 32, 128, 26
        conv0 = d * 1 * 5 + d + 2 * d  # weights + bias + instance norm affine
        rest = sum(d * d * k + d for k in (3, 3, 3, 4, 3, 3))
        encoder = conv0 + rest
        block = 4 * (d * d + d) + (d * f + f) + (f * d + d) + 4 * d
        expected = (
            2 * encoder + seq * d + 2 * d + 2 * block + 2 * (d + 1)
        )
        assert count_parameters(desk_params) == expected

    def test_encoders_not_shared(self, desk_params):
        assert desk_params["enc0.conv0.w"] is not desk_params["enc1.conv0.w"]
        assert not np.array_equal(
            desk_params["enc0.conv0.w"].data, desk_params["enc1.conv0.w"].data
        )


class TestCheckpoint:
    def test_round_trip(self, desk, desk_params, tmp_path):
        path = save_checkpoint(tmp_path / "m.ckpt", desk, desk_params,
                               meta={"note": "test"})
        cfg, params, adam, meta = load_checkpoint(path)
        assert cfg == desk
        assert adam is None
        assert meta == {"note": "test"}
        assert set(params) == set(desk_params)
        for name in desk_params:
            assert np.array_equal(params[name].data, desk_params[name].data)

    def test_adam_state_round_trip(self, desk, desk_params, tmp_path):
        from prognosis.train import AdamState

        state = AdamState.fresh(desk_params)
        state.t = 5
        for name in state.m:
            state.m[name] += 0.5
        path = save_checkpoint(tmp_path / "m.ckpt", desk, desk_params,
                               adam_state=state)
        _, _, adam, _ = load_checkpoint(path)
        assert adam is not None
        t, m, v = adam
        assert t == 5
        assert np.allclose(m["class_head.b"], 0.5)
        assert np.allclose(v["class_head.b"], 0.0)

    def test_interrupted_save_leaves_nothing(self, desk, desk_params, tmp_path):
        class Interrupting:
            def __getitem__(self, name):
                raise KeyboardInterrupt  # after the parameters were written

        state = SimpleNamespace(t=1, m=Interrupting(), v={})
        with pytest.raises(KeyboardInterrupt):
            save_checkpoint(tmp_path / "best.ckpt", desk, desk_params, adam_state=state)
        assert list(tmp_path.iterdir()) == []

    def test_truncated(self, desk, desk_params, tmp_path):
        path = save_checkpoint(tmp_path / "m.ckpt", desk, desk_params)
        data = path.read_bytes()
        path.write_bytes(data[:-100])
        with pytest.raises(DataFileError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("corrupt, error, message", [
        pytest.param(lambda raw: raw[:8] + struct.pack("<I", 2) + raw[12:],
                     DataFileError, "unsupported version 2", id="version-2"),
        pytest.param(lambda raw: raw[:12] + struct.pack("<I", len(raw)) + raw[16:],
                     DataFileError, "checkpoint truncated", id="header-past-end"),
        pytest.param(lambda raw: raw[:16] + b"x" + raw[17:],
                     DataFileError, "bad header", id="header-not-json"),
        # the first payload, in sorted name order, is blk0.ffn1.b
        pytest.param(lambda raw: raw[:payload_start(raw)] + struct.pack("<f", np.nan)
                     + raw[payload_start(raw) + 4:],
                     NonFiniteValue, "blk0.ffn1.b: ", id="nan-payload"),
        pytest.param(lambda raw: raw + b"\0", DataFileError, "1 trailing bytes",
                     id="trailing-byte"),
    ])
    def test_corrupt_bytes_refused(self, desk, desk_params, tmp_path, corrupt, error, message):
        path = save_checkpoint(tmp_path / "m.ckpt", desk, desk_params)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(error, match=message) as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_not_a_checkpoint(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"hello world, this is not a checkpoint")
        with pytest.raises(DataFileError, match="not a checkpoint file"):
            load_checkpoint(bad)


# sha256 digests of the checkpoint format, computed before the conv schedule
# became a constant: saved checkpoints stay loadable only while these hold.
DESK_HEADER_SHA256 = "c9b102363beeffa857db9a396abfdaf882cec33b0600219533335aa4d8a76f71"
PRESET_DICTS_SHA256 = "7fa2efd569a637b0560ee55307cf8d5e002b07646d96383a3d9eb6d88cbcb60e"


class TestCheckpointFormat:
    def test_desk_header_bytes(self, desk, desk_params, tmp_path):
        raw = save_checkpoint(tmp_path / "m.ckpt", desk, desk_params,
                              meta={"note": "pin"}).read_bytes()
        (hlen,) = struct.unpack("<I", raw[12:16])
        assert hashlib.sha256(raw[: 16 + hlen]).hexdigest() == DESK_HEADER_SHA256

    def test_preset_dicts(self):
        dicts = {name: preset_config(name).to_dict() for name in sorted(M.PRESETS)}
        blob = json.dumps(dicts).encode()  # key order matters: the manifest keeps it
        assert hashlib.sha256(blob).hexdigest() == PRESET_DICTS_SHA256
