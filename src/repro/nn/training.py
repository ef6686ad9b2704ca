"""Minimal numpy training loop for the accuracy studies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import ShapeDataset
from .layers import (
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool,
    MaxPool2D,
    ReLU,
)
from .model import Sequential


@dataclass
class TrainResult:
    model: Sequential
    losses: list[float]
    train_accuracy: float
    test_accuracy: float


def make_small_cnn(
    n_classes: int,
    channels: int = 8,
    image_size: int = 16,
    seed: int = 0,
) -> Sequential:
    """A two-conv CNN; ``channels`` scales capacity (the Section IV-E knob).

    The paper widened ResNet50's channels to fill the MXM's 320-element
    vector length "for the same computational cost and latency"; here the
    same study scales ``channels``.  A padded tile streams in as many
    cycles as a full one, so a narrow layer (the one-channel first conv:
    9 x ``channels``) fills the vector the other way on the chip — the
    runner streams several of its rows a vector
    (:meth:`~repro.nn.tsp_inference.TspCnnRunner.rows_per_vector`).
    """
    rng = np.random.default_rng(seed)
    pooled = image_size // 4  # two 2x2 max pools
    return Sequential(
        [
            Conv2D(1, channels, kernel=3, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Conv2D(channels, channels * 2, kernel=3, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(channels * 2 * pooled * pooled, n_classes, rng=rng),
        ]
    )


def train(
    model: Sequential,
    data: ShapeDataset,
    epochs: int = 6,
    batch_size: int = 32,
    lr: float = 0.05,
    seed: int = 0,
) -> TrainResult:
    """SGD with shuffling; deterministic given the seed."""
    rng = np.random.default_rng(seed)
    n = data.x_train.shape[0]
    losses = []
    for _epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            loss = model.train_step(
                data.x_train[idx], data.y_train[idx], lr=lr
            )
            losses.append(loss)
    return TrainResult(
        model=model,
        losses=losses,
        train_accuracy=model.accuracy(data.x_train, data.y_train),
        test_accuracy=model.accuracy(data.x_test, data.y_test),
    )
