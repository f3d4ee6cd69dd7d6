"""Model zoo mirroring the paper's backbones at laptop scale.

Paper setup -> our substitute:

* Fashion-MNIST: 3-layer MLP           -> :func:`make_mlp`
* SVHN / CIFAR-10: ResNet-18           -> :func:`make_resnet_lite` (depth="18")
* CIFAR-100 / ImageNet: ResNet-34      -> :func:`make_resnet_lite` (depth="34")

The "lite" ResNets keep the residual/stage structure of ResNet-18/34 but with
narrow channels so a full federated run finishes in seconds on a CPU.  The
momentum phenomena the paper studies (client drift, direction distortion,
minority collapse) are driven by the loss geometry of the long-tailed data,
not by model width.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn.container import BasicBlock, Sequential
from repro.nn.conv import Conv2d, GlobalAvgPool2d
from repro.nn.layers import Dense, ReLU
from repro.nn.module import Module
from repro.nn.norm import BatchNorm2d, GroupNorm
from repro.utils.rng import as_generator

__all__ = ["make_mlp", "make_resnet_lite", "make_linear", "build_model", "MODEL_REGISTRY"]


def make_mlp(
    input_dim: int,
    num_classes: int,
    hidden: tuple[int, ...] = (64, 32),
    seed: int | np.random.Generator = 0,
) -> Sequential:
    """3-layer MLP used for Fashion-MNIST in the paper (scaled)."""
    rng = as_generator(seed)
    layers: list[Module] = []
    d = input_dim
    for h in hidden:
        layers.append(Dense(d, h, rng))
        layers.append(ReLU())
        d = h
    layers.append(Dense(d, num_classes, rng))
    return Sequential(*layers)


def make_linear(
    input_dim: int, num_classes: int, seed: int | np.random.Generator = 0
) -> Sequential:
    """Single linear layer — the convex testbed for theory checks."""
    rng = as_generator(seed)
    return Sequential(Dense(input_dim, num_classes, rng))


def make_resnet_lite(
    in_channels: int,
    image_size: int,
    num_classes: int,
    depth: str = "18",
    width: int = 8,
    seed: int | np.random.Generator = 0,
    norm: str = "group",
) -> Sequential:
    """Narrow ResNet with the 18/34 stage pattern over small images.

    Args:
        in_channels: input channels (3 for the image-like datasets).
        image_size: spatial side; must be divisible by 4 (two stride-2 stages).
        num_classes: classifier width.
        depth: "18" (2 blocks/stage), "34" (3 blocks/stage) or "micro"
            (1 block/stage — the speed option for parameter sweeps).
        width: base channel count (ResNet-18 uses 64; we default to 8).
        seed: init seed.
        norm: "group" (library default, deterministic under FL) or "batch"
            (the paper's actual ResNet normalisation; running statistics are
            averaged across clients by the simulation engine).
    """
    if depth not in ("18", "34", "micro"):
        raise ValueError(f"depth must be '18', '34' or 'micro', got {depth!r}")
    if image_size % 4:
        raise ValueError(f"image_size must be divisible by 4, got {image_size}")
    if norm not in ("group", "batch"):
        raise ValueError(f"norm must be 'group' or 'batch', got {norm!r}")
    rng = as_generator(seed)
    blocks_per_stage = {"micro": 1, "18": 2, "34": 3}[depth]
    c = width
    g = min(4, c)
    stem_norm = GroupNorm(g, c) if norm == "group" else BatchNorm2d(c)
    layers: list[Module] = [
        Conv2d(in_channels, c, 3, rng, stride=1, padding=1, bias=False),
        stem_norm,
        ReLU(),
    ]
    channels = [c, 2 * c, 4 * c]
    in_c = c
    for stage, out_c in enumerate(channels):
        for b in range(blocks_per_stage):
            stride = 2 if (stage > 0 and b == 0) else 1
            layers.append(BasicBlock(in_c, out_c, rng, stride=stride, norm=norm))
            in_c = out_c
    layers += [GlobalAvgPool2d(), Dense(in_c, num_classes, rng)]
    return Sequential(*layers)


MODEL_REGISTRY: dict[str, Callable[..., Sequential]] = {
    "mlp": make_mlp,
    "linear": make_linear,
    "resnet-lite-18": lambda **kw: make_resnet_lite(depth="18", **kw),
    "resnet-lite-34": lambda **kw: make_resnet_lite(depth="34", **kw),
}


def build_model(name: str, **kwargs) -> Sequential:
    """Build a model from the registry by name."""
    try:
        factory = MODEL_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {sorted(MODEL_REGISTRY)}"
        ) from None
    return factory(**kwargs)
