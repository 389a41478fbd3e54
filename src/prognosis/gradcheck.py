"""The gradient oracle: central differences, one relative-error rule, the whole-model check."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import BadConfig
from .model import ModelConfig, init_params
from .train import TrainingExample, batch_loss_tensors

# Relative error uses a denominator floor: coordinates with near-zero
# gradients are dominated by finite-difference truncation noise, so the
# comparison degrades to an absolute check there.
REL_DENOM_FLOOR = 1e-2
N_EXAMPLES = 2  # one of each outcome
TOLERANCE = 1e-4  # the oracle's gate on the max relative error


def central_difference(loss, x: np.ndarray, i: int, h: float = 1e-3) -> float:
    """(loss() at x.flat[i] + h  -  loss() at x.flat[i] - h) / 2h, perturbing ``x``
    in place: ``.flat`` writes through any layout, where ``reshape(-1)`` may copy."""
    orig = x.flat[i]
    x.flat[i] = orig + h
    up = float(loss())
    x.flat[i] = orig - h
    down = float(loss())
    x.flat[i] = orig
    return (up - down) / (2.0 * h)


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), REL_DENOM_FLOOR)


@dataclass
class GradCheckResult:
    n_checked: int
    max_rel_error: float
    worst_param: str

    def passed(self) -> bool:
        return self.max_rel_error <= TOLERANCE


def _random_examples(config: ModelConfig, rng: np.random.Generator, n: int):
    out = []
    for i in range(n):
        data = rng.uniform(-1.0, 1.0, size=(config.n_bipolar_channels, config.segment_len))
        out.append(
            TrainingExample(
                segment_data=data.astype(np.float64),
                y=int(i % 2),
                x=int(1 + (i % 5)),
                patient_id=f"gc{i}",
            )
        )
    return out


def check_model_gradients(
    config: ModelConfig,
    n_coords: int = 200,
    seed: int = 0,
    h: float = 1e-3,
) -> GradCheckResult:
    """Compare backward() against central differences on random coordinates.

    Runs in double precision. Samples coordinates uniformly over parameter
    groups and within each tensor.
    """
    if n_coords < 1:
        raise BadConfig(f"n_coords must be at least 1, got {n_coords}")
    rng = np.random.default_rng(seed)
    params = init_params(config, seed=seed, dtype=np.float64)
    batch = _random_examples(config, rng, N_EXAMPLES)

    _, _, total = batch_loss_tensors(params, config, batch)
    for p in params.values():
        p.zero_grad()
    total.backward()

    def loss_value() -> float:
        with ad.no_grad():
            _, _, t = batch_loss_tensors(params, config, batch)
        return float(t.data)

    names = sorted(params)
    max_rel = 0.0
    worst = ""
    for _ in range(n_coords):
        name = names[int(rng.integers(len(names)))]
        p = params[name]
        idx = int(rng.integers(p.data.size))
        fd = central_difference(loss_value, p.data, idx, h)
        rel = relative_error(float(p.grad.flat[idx]), fd)
        if rel > max_rel:
            max_rel = rel
            worst = f"{name}[{idx}]"
    return GradCheckResult(n_checked=n_coords, max_rel_error=max_rel, worst_param=worst)
