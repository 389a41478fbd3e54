"""The failure vocabulary, and typed failures of the file parsers."""

import ast
import importlib
import json
import pkgutil
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prognosis
from prognosis import eeg_io
from prognosis.checkpoint import load_checkpoint, save_checkpoint
from prognosis.errors import DataFileError, PrognosisError
from prognosis.model import init_params, preset_config

VOCABULARY = {
    "ShapeMismatch",
    "NonFiniteValue",
    "BadConfig",
    "DataFileError",
    "UnusableRecording",
    "InsufficientData",
}


def all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from all_subclasses(sub)


def test_one_class_per_failure_meaning():
    for mod in pkgutil.iter_modules(prognosis.__path__):
        importlib.import_module(f"prognosis.{mod.name}")
    classes = list(all_subclasses(PrognosisError))
    assert sorted(c.__name__ for c in classes) == sorted(VOCABULARY)
    assert all(c.__module__ == "prognosis.errors" for c in classes)


# Calls that put a file or directory on disk by themselves.
WRITE_METHODS = {"mkdir", "tofile", "write_text", "write_bytes", "touch", "rename"}
WRITE_FUNCTIONS = {"os.replace", "os.rename", "os.makedirs", "np.save", "np.savez"}


def is_write(call: ast.Call) -> bool:
    func = ast.unparse(call.func)
    if func == "open":
        mode = call.args[1:2] or [k.value for k in call.keywords if k.arg == "mode"]
        return bool(mode) and not (
            isinstance(mode[0], ast.Constant) and set(mode[0].value) <= set("rbt")
        )
    return func in WRITE_FUNCTIONS or (
        isinstance(call.func, ast.Attribute) and call.func.attr in WRITE_METHODS
    )


def disk_writes(node, module: str):
    """(line, call) of each write under ``node`` made outside ``eeg_io.write_file``.

    The ``write`` callback handed to ``write_file`` only fills the temp file
    that ``write_file`` opened, so calls inside it are not writes of their own.
    """
    if module == "eeg_io" and getattr(node, "name", None) == "write_file":
        return
    callback = []
    if isinstance(node, ast.Call):
        if is_write(node):
            yield node.lineno, ast.unparse(node.func)
        if ast.unparse(node.func).split(".")[-1] == "write_file":
            callback = node.args[2:3] + [k.value for k in node.keywords if k.arg == "write"]
    for child in ast.iter_child_nodes(node):
        if child not in callback:
            yield from disk_writes(child, module)


def test_one_writer():
    found = {}
    for mod in pkgutil.iter_modules(prognosis.__path__):
        tree = ast.parse(Path(prognosis.__path__[0], f"{mod.name}.py").read_text())
        found.update({f"{mod.name}:{line}": call for line, call in disk_writes(tree, mod.name)})
        if mod.name == "eeg_io":  # the guard sees the writes write_file makes
            (helper,) = [n for n in tree.body if getattr(n, "name", "") == "write_file"]
            seen = {call for _, call in disk_writes(helper, "")}
            assert {"open", "os.replace", "path.parent.mkdir"} <= seen
    assert found == {}


def unusable_handlers(node):
    """Line of each ``except`` clause under ``node`` that names UnusableRecording."""
    for n in ast.walk(node):
        if isinstance(n, ast.ExceptHandler) and n.type is not None:
            types = n.type.elts if isinstance(n.type, ast.Tuple) else [n.type]
            if any(ast.unparse(t).split(".")[-1] == "UnusableRecording" for t in types):
                yield n.lineno


def test_one_skip_policy():
    """``dsp.usable_hours`` alone decides which hours are skipped, so it alone
    catches UnusableRecording: a handler anywhere else is a second skip loop."""
    found, allowed = set(), set()
    for mod in pkgutil.iter_modules(prognosis.__path__):
        tree = ast.parse(Path(prognosis.__path__[0], f"{mod.name}.py").read_text())
        found |= {f"{mod.name}:{line}" for line in unusable_handlers(tree)}
        if mod.name == "dsp":
            (policy,) = [n for n in tree.body if getattr(n, "name", "") == "usable_hours"]
            allowed = {f"dsp:{line}" for line in unusable_handlers(policy)}
    assert allowed  # the guard sees the policy's own handler
    assert found == allowed


def write_recording(directory: Path) -> Path:
    rec = eeg_io.RawRecording(
        patient_id="p1", hour_index=0, fs_hz=250.0,
        electrodes=eeg_io.STANDARD_ELECTRODES,
        samples=np.zeros((19, 1000), dtype=np.float32),
    )
    header_path, _ = eeg_io.write_recording(rec, directory)
    return header_path


def write_patient(directory: Path) -> Path:
    meta = eeg_io.PatientMeta("p1", eeg_io.GOOD, 1)
    pdir = directory / "p1"
    eeg_io.write_patient(meta, [], pdir.parent)
    write_recording(pdir)
    return pdir / "patient.json"


def rewrite_json(path: Path, edit) -> None:
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))


def write_checkpoint(directory: Path) -> Path:
    cfg = preset_config("desk")
    return save_checkpoint(directory / "m.ckpt", cfg, init_params(cfg, seed=0))


def rewrite_checkpoint_header(path: Path, edit) -> None:
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[12:16])
    blob = json.dumps(edit(json.loads(raw[16 : 16 + hlen]))).encode()
    path.write_bytes(raw[:12] + struct.pack("<I", len(blob)) + blob + raw[16 + hlen :])


DELETE = object()


def put(*keys, value):
    """An edit of a JSON record that sets (or deletes) the value at a key path."""

    def edit(record):
        *outer, last = keys
        target = record
        for key in outer:
            target = target[key]
        if value is DELETE:
            del target[last]
        else:
            target[last] = value
        return record

    return edit


def as_list(record):
    return [record]


def put_tensor(name, key, value):
    """An edit of a checkpoint header that sets one field of a tensor's entry."""

    def edit(header):
        entry = next(e for e in header["tensors"] if e["name"] == name)
        entry[key] = value
        return header

    return edit


def edit_tensors(edit):
    """An edit of a checkpoint header that replaces its tensor list by ``edit(list)``."""

    def edit_header(header):
        header["tensors"] = edit(header["tensors"])
        return header

    return edit_header


# (file kind, edit of its JSON, what the message must say)
BAD_FILES = {
    "header fs_hz string": ("header", put("fs_hz", value="fast"), "fs_hz must be"),
    "header fs_hz nan": ("header", put("fs_hz", value=float("nan")), "fs_hz must be"),
    "header electrodes int": ("header", put("electrodes", value=5), "electrodes must be"),
    "header electrodes ints": (
        "header", put("electrodes", value=[1] * 19), "electrodes must be",
    ),
    "header n_samples string": ("header", put("n_samples", value="x"), "n_samples must be"),
    "header hour_index null": ("header", put("hour_index", value=None), "hour_index must be"),
    "header hour_index bool": ("header", put("hour_index", value=True), "hour_index must be"),
    "header signal_file int": ("header", put("signal_file", value=3), "signal_file must be"),
    "header signal_file path": (
        "header", put("signal_file", value="../hour_0.f32"), "signal_file must be",
    ),
    "header patient_id int": ("header", put("patient_id", value=7), "patient_id must be"),
    "header patient_id nul": ("header", put("patient_id", value="p\0"), "patient_id must be"),
    "header list": ("header", as_list, "not a JSON object"),
    "patient cpc string": ("patient", put("cpc", value="x"), "cpc must be"),
    "patient patient_id int": ("patient", put("patient_id", value=7), "patient_id must be"),
    "patient list": ("patient", as_list, "not a JSON object"),
    "patient other id": (
        "patient", put("patient_id", value="p2"), "patient_id 'p1' is not the 'p2'",
    ),
    "checkpoint no config": ("checkpoint", put("config", value=DELETE), "model config must be"),
    "checkpoint tensors int": ("checkpoint", put("tensors", value=5), "tensor list must be"),
    "checkpoint shape string": (
        "checkpoint", put("tensors", 0, "shape", value="1,2"), "bad tensor entry",
    ),
    "checkpoint embed_dim string": (
        "checkpoint", put("config", "embed_dim", value="big"), "embed_dim must be int",
    ),
    "checkpoint zero heads": (
        "checkpoint", put("config", "n_heads", value=0), "not divisible by 0 heads",
    ),
    "checkpoint list": ("checkpoint", as_list, "not a JSON object"),
    "checkpoint conv stride": (
        "checkpoint", put("config", "conv_layers", 2, "stride", value=2), "conv_layers differs",
    ),
    "checkpoint segment_len": (
        "checkpoint", put("config", "segment_len", value=30001), "segment_len differs",
    ),
    "checkpoint channels 3": (
        "checkpoint", put("config", "n_bipolar_channels", value=3),
        r"tensor 'pos' has shape \[26, 32\], the model config needs \[38, 32\]",
    ),
    "checkpoint renamed tensor": (
        "checkpoint", put_tensor("class_head.b", "name", "class_head.bias"),
        "tensor 'class_head.bias' is not a parameter of this model",
    ),
    "checkpoint pos transposed": (
        "checkpoint", put_tensor("pos", "shape", [32, 26]),
        r"tensor 'pos' has shape \[32, 26\], the model config needs \[26, 32\]",
    ),
    "checkpoint tensor twice": (
        "checkpoint", edit_tensors(lambda ts: ts + [e for e in ts if e["name"] == "pos"]),
        "tensor 'pos' is listed twice",
    ),
    "checkpoint tensor missing": (
        "checkpoint", edit_tensors(lambda ts: [e for e in ts if e["name"] != "pos"]),
        "tensor 'pos' is missing",
    ),
    "checkpoint adam t string": (
        "checkpoint", put("adam", value={"t": "1"}), "bad adam section",
    ),
    "checkpoint meta list": ("checkpoint", put("meta", value=[]), "meta must be a JSON object"),
}


@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_bad_file_field_names_path(case, tmp_path):
    kind, edit, message = BAD_FILES[case]
    if kind == "header":
        path = write_recording(tmp_path)
        rewrite_json(path, edit)
        load = lambda: eeg_io.load_recording(path)  # noqa: E731
    elif kind == "patient":
        path = write_patient(tmp_path)
        rewrite_json(path, edit)
        load = lambda: eeg_io.load_patient(path.parent)  # noqa: E731
    else:
        path = write_checkpoint(tmp_path)
        rewrite_checkpoint_header(path, edit)
        load = lambda: load_checkpoint(path)  # noqa: E731
    with pytest.raises(DataFileError, match=message) as info:
        load()
    assert str(path) in str(info.value)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8,
)


@given(
    key=st.sampled_from(
        ["patient_id", "hour_index", "fs_hz", "electrodes", "n_samples",
         "signal_file", "dtype"]
    ),
    value=json_values,
)
@settings(max_examples=200, deadline=None)
def test_header_field_fuzz(key, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_recording(Path(tmp))
        rewrite_json(path, put(key, value=value))
        try:
            eeg_io.load_recording(path)
        except PrognosisError as exc:
            assert str(path) in str(exc)
