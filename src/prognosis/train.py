"""Joint classification/regression training.

Loss is unweighted: binary cross-entropy on the poor-outcome probability
plus mean squared error on the CPC regression. Optimization is plain Adam
with bias correction. Sampling follows patient -> hour -> segment, all
uniform; the patient split is stratified by outcome at the patient level.
"""

from __future__ import annotations

import csv
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import dsp
from .autodiff import Tensor
from .checkpoint import save_checkpoint
from .eeg_io import GOOD, POOR, RawRecording, source_key, write_file
from .errors import BadConfig, DataFileError, InsufficientData, ShapeMismatch, UnusableRecording
from .evaluation import POOR_THRESHOLD
from .model import ModelConfig, count_parameters, forward, forward_tensors, init_params

PROB_CLAMP = 1e-7
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
VAL_SEGMENTS_PER_PATIENT = 4


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 10
    learning_rate: float = 0.0001
    max_iterations: int = 300
    eval_every: int = 25
    split_ratio: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.split_ratio < 1):
            raise BadConfig(f"split_ratio must be in (0,1), got {self.split_ratio}")
        if not (0 < self.learning_rate <= sys.float_info.max):
            raise BadConfig(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        for name in ("batch_size", "max_iterations", "eval_every"):
            if getattr(self, name) < 1:
                raise BadConfig(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class TrainingExample:
    segment_data: np.ndarray  # [18, 30000]
    y: int  # 1 = Poor
    x: int  # CPC 1..5
    patient_id: str


@dataclass
class LossBreakdown:
    ce: float
    mse: float

    @property
    def total(self) -> float:
        return self.ce + self.mse


def _bce(probs: Tensor, labels: Tensor) -> Tensor:
    """Mean binary cross-entropy; probabilities clamped away from 0 and 1."""
    p = ad.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    one = Tensor(np.ones_like(labels.data))
    return ad.scale(
        ad.tmean(
            ad.add(
                ad.mul(labels, ad.log(p)),
                ad.mul(Tensor(1 - labels.data), ad.log(ad.sub(one, p))),
            )
        ),
        -1.0,
    )


def _mse(preds: Tensor, targets: Tensor) -> Tensor:
    diff = ad.sub(targets, preds)
    return ad.tmean(ad.mul(diff, diff))


def _float64(values) -> Tensor:
    return Tensor(np.asarray(values, dtype=np.float64))


def cross_entropy_loss(probs, labels) -> float:
    """The training loss's cross-entropy term on plain arrays, in float64."""
    return float(_bce(_float64(probs), _float64(labels)).data)


def mse_loss(preds, targets) -> float:
    """The training loss's CPC regression term on plain arrays, in float64."""
    return float(_mse(_float64(preds), _float64(targets)).data)


def total_loss(ce: float, mse: float) -> LossBreakdown:
    return LossBreakdown(ce=ce, mse=mse)


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def fresh(cls, params: dict[str, Tensor]) -> "AdamState":
        return cls(
            m={n: np.zeros_like(p.data) for n, p in params.items()},
            v={n: np.zeros_like(p.data) for n, p in params.items()},
        )


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    cfg: TrainConfig,
) -> None:
    """One in-place Adam update with bias correction."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ShapeMismatch(
                f"{name}: grad {g.shape} vs param {p.data.shape}"
            )
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        p.data -= (cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(
            p.data.dtype
        )


def split_patients(dataset, ratio: float, seed: int) -> tuple[list[str], list[str]]:
    """Patient-level split, stratified by outcome; returns (train_ids, val_ids)."""
    if len(dataset) < 2:
        raise InsufficientData(f"need >= 2 patients, got {len(dataset)}")
    rng = np.random.default_rng(seed)
    train_ids: list[str] = []
    val_ids: list[str] = []
    for outcome in (GOOD, POOR):
        ids = sorted(pid for pid, (meta, _) in dataset.items() if meta.outcome == outcome)
        if not ids:
            continue
        rng.shuffle(ids)
        cut = int(round(ratio * len(ids)))
        train_ids.extend(ids[:cut])
        val_ids.extend(ids[cut:])
    return sorted(train_ids), sorted(val_ids)


def _cache_key(rec: RawRecording) -> bytes:
    """Everything a cached hour depends on: the DSP pipeline and the recording."""
    pipeline = {
        "version": dsp.PIPELINE_VERSION,
        "band_hz": dsp.DEFAULT_BAND_HZ,
        "order": dsp.DEFAULT_ORDER,
        "target_fs_hz": dsp.TARGET_FS_HZ,
        "segment_samples": dsp.SEGMENT_SAMPLES,
    }
    return json.dumps({"pipeline": pipeline, "source": source_key(rec)}, sort_keys=True).encode()


class SegmentStore:
    """Disk-cached preprocessed segments, memory-mapped on read.

    One .npy per (patient, hour) holding [n_segments, 18, 30000] float32,
    and beside it a .key sidecar holding the ``_cache_key`` it was built
    from. An hour is trusted only when its sidecar holds the current key.
    A rebuild renames the .npy into place before its key, so a current key
    sits beside an .npy built for it even when a rebuild is cut short.
    """

    def __init__(self, cache_dir):
        self.cache_dir = Path(cache_dir)
        self._index: dict[str, dict[int, Path]] = {}
        self.skipped: list[str] = []  # why each unusable hour was left out

    def _path(self, patient_id: str, hour_index: int) -> Path:
        return self.cache_dir / patient_id / f"hour_{hour_index}.npy"

    def add_recording(self, rec: RawRecording) -> None:
        path = self._path(rec.patient_id, rec.hour_index)
        key_path = path.with_suffix(".key")
        key = _cache_key(rec)
        try:
            fresh = path.is_file() and key_path.read_bytes() == key
        except OSError:
            fresh = False
        if not fresh:
            segments = dsp.preprocess(rec)
            write_file(path, "cache file", lambda fh: np.save(fh, segments), "wb")
            write_file(key_path, "cache key", lambda fh: fh.write(key), "wb")
        self._index.setdefault(rec.patient_id, {})[rec.hour_index] = path

    def hours(self, patient_id: str) -> list[int]:
        """The cached hours of a patient, or UnusableRecording if it has none."""
        if patient_id not in self._index:
            raise UnusableRecording(f"patient {patient_id}: no cached hour")
        return sorted(self._index[patient_id])

    def segments(self, patient_id: str, hour_index: int) -> np.ndarray:
        path = self._index[patient_id][hour_index]
        try:
            return np.load(path, mmap_mode="r")
        except (ValueError, OSError) as exc:
            raise DataFileError(f"cache file {path}: {exc}") from exc


def build_store(dataset, cache_dir) -> SegmentStore:
    """Cache every hour ``dsp.usable_hours`` keeps, and its message for each
    hour it skips in ``store.skipped``; a patient with no usable hour fails."""
    store = SegmentStore(cache_dir)
    for pid in sorted(dataset):
        usable, skipped = dsp.usable_hours(pid, dataset[pid][1])
        for rec in usable:
            store.add_recording(rec)
        store.skipped.extend(skipped)
    return store


def _example(dataset, pid: str, segment: np.ndarray) -> TrainingExample:
    """A float32 copy of one cached segment, labelled from its patient."""
    meta = dataset[pid][0]
    return TrainingExample(
        segment_data=np.array(segment, dtype=np.float32),
        y=1 if meta.outcome == POOR else 0,
        x=meta.cpc,
        patient_id=pid,
    )


def sample_training_example(
    split_ids: list[str], store: SegmentStore, dataset, rng: np.random.Generator
) -> TrainingExample:
    """Uniform patient -> uniform hour -> uniform segment."""
    if not split_ids:
        raise InsufficientData("no patients in split")
    pid = split_ids[int(rng.integers(len(split_ids)))]
    hours = store.hours(pid)
    hour = hours[int(rng.integers(len(hours)))]
    segs = store.segments(pid, hour)
    return _example(dataset, pid, segs[int(rng.integers(segs.shape[0]))])


def batch_loss_tensors(
    params: dict[str, Tensor],
    config: ModelConfig,
    batch: list[TrainingExample],
) -> tuple[Tensor, Tensor, Tensor]:
    """Build (ce, mse, total) as scalar graph nodes for one batch."""
    logits = []
    raws = []
    for ex in batch:
        logit, raw = forward_tensors(params, config, ex.segment_data)
        logits.append(logit)
        raws.append(raw)
    dtype = params["pos"].data.dtype
    y = Tensor(np.array([ex.y for ex in batch], dtype=dtype))
    x_true = Tensor(np.array([ex.x for ex in batch], dtype=dtype))
    ce = _bce(ad.sigmoid(ad.concat(logits)), y)
    mse = _mse(ad.concat(raws), x_true)
    return ce, mse, ad.add(ce, mse)


def select_validation_segments(
    val_ids: list[str], store: SegmentStore, dataset, seed: int
) -> list[TrainingExample]:
    """Fixed, seeded set of validation segments (a few per patient)."""
    rng = np.random.default_rng(seed + 1)
    out: list[TrainingExample] = []
    for pid in val_ids:
        hours = store.hours(pid)
        hour = hours[int(rng.integers(len(hours)))]
        segs = store.segments(pid, hour)
        k = min(VAL_SEGMENTS_PER_PATIENT, segs.shape[0])
        picks = rng.choice(segs.shape[0], size=k, replace=False)
        for idx in sorted(int(i) for i in picks):
            out.append(_example(dataset, pid, segs[idx]))
    return out


def validation_accuracy(
    params: dict[str, Tensor], config: ModelConfig, val_examples: list[TrainingExample]
) -> float:
    correct = 0
    for ex in val_examples:
        out = forward(params, config, ex.segment_data)
        correct += int((out.poor_prob >= POOR_THRESHOLD) == (ex.y == 1))
    return correct / len(val_examples)


@dataclass
class TrainResult:
    run_dir: Path
    best_ckpt: Path
    last_ckpt: Path
    metrics_csv: Path
    best_val_accuracy: float
    best_iteration: int


def train(
    dataset,
    store: SegmentStore,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    run_dir,
    dataset_path: str = "",
) -> TrainResult:
    """Full training loop; writes metrics.csv, best.ckpt, last.ckpt, manifest."""
    outcomes = {meta.outcome for meta, _ in dataset.values()}
    if len(outcomes) < 2:
        raise InsufficientData(f"dataset contains only {outcomes} patients")
    run_dir = Path(run_dir)
    metrics_csv = run_dir / "metrics.csv"
    write_file(metrics_csv, "metrics", None)  # an unusable run_dir fails before training

    train_ids, val_ids = split_patients(dataset, train_cfg.split_ratio, train_cfg.seed)
    if not train_ids or not val_ids:
        raise InsufficientData(
            f"split produced {len(train_ids)} train / {len(val_ids)} val patients"
        )
    params = init_params(model_cfg, seed=train_cfg.seed)
    adam = AdamState.fresh(params)
    sampler = np.random.default_rng(train_cfg.seed)
    val_examples = select_validation_segments(val_ids, store, dataset, train_cfg.seed)

    started = time.time()
    meta_common = {
        "seed": train_cfg.seed,
        "split_ratio": train_cfg.split_ratio,
        "train_patients": train_ids,
        "val_patients": val_ids,
        "n_parameters": count_parameters(params),
    }
    best_acc = -1.0
    best_iter = 0
    best_snapshot: dict[str, Tensor]  # the last iteration always validates
    rows: list[tuple] = []
    for it in range(1, train_cfg.max_iterations + 1):
        batch = [
            sample_training_example(train_ids, store, dataset, sampler)
            for _ in range(train_cfg.batch_size)
        ]
        ce_t, mse_t, total_t = batch_loss_tensors(params, model_cfg, batch)
        for p in params.values():
            p.zero_grad()
        total_t.backward()
        grads = {n: p.grad for n, p in params.items()}
        adam_step(params, grads, adam, train_cfg)
        val_acc = ""
        if it % train_cfg.eval_every == 0 or it == train_cfg.max_iterations:
            acc = validation_accuracy(params, model_cfg, val_examples)
            val_acc = f"{acc:.6f}"
            if acc > best_acc:
                best_acc = acc
                best_iter = it
                best_snapshot = {
                    n: Tensor(p.data.copy(), requires_grad=True)
                    for n, p in params.items()
                }
        rows.append(
            (it, float(ce_t.data), float(mse_t.data), float(total_t.data), val_acc)
        )

    def write_metrics(fh):
        writer = csv.writer(fh)
        writer.writerow(["iteration", "ce", "mse", "total", "val_accuracy"])
        for it, ce, mse, tot, acc in rows:
            writer.writerow([it, f"{ce:.6f}", f"{mse:.6f}", f"{tot:.6f}", acc])
    write_file(metrics_csv, "metrics", write_metrics)
    best_ckpt = save_checkpoint(
        run_dir / "best.ckpt",
        model_cfg,
        best_snapshot,
        meta={**meta_common, "iteration": best_iter, "val_accuracy": best_acc},
    )
    last_ckpt = save_checkpoint(
        run_dir / "last.ckpt",
        model_cfg,
        params,
        adam_state=adam,
        meta={**meta_common, "iteration": train_cfg.max_iterations},
    )
    manifest = {
        "run_id": run_dir.name,
        "model_config": model_cfg.to_dict(),
        "train_config": {
            **asdict(train_cfg), "beta1": ADAM_BETA1, "beta2": ADAM_BETA2, "eps": ADAM_EPS
        },
        "dataset_path": str(dataset_path),
        "version": "eeg-prognosis 0.1.0",
        "started_unix": started,
        "ended_unix": time.time(),
    }
    write_file(run_dir / "manifest.json", "manifest", lambda fh: json.dump(manifest, fh, indent=1))
    return TrainResult(
        run_dir=run_dir,
        best_ckpt=best_ckpt,
        last_ckpt=last_ckpt,
        metrics_csv=metrics_csv,
        best_val_accuracy=best_acc,
        best_iteration=best_iter,
    )
