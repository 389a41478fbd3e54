"""Whole-model gradient verification against central finite differences."""

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
        flat = p.data.reshape(-1)
        idx = int(rng.integers(flat.size))
        # a float64 view: the oracle perturbs the parameter in place
        coord = flat[idx : idx + 1]
        fd = float(ad.finite_diff_grad(lambda _: loss_value(), coord, h)[0])
        a = float(p.grad.reshape(-1)[idx])
        rel = abs(a - fd) / max(abs(a), abs(fd), REL_DENOM_FLOOR)
        if rel > max_rel:
            max_rel = rel
            worst = f"{name}[{idx}]"
    return GradCheckResult(n_checked=n_coords, max_rel_error=max_rel, worst_param=worst)
