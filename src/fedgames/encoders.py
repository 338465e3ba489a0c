"""Random-feature and echo-state latent encoders.

Both encoders map an input vector x_t to a d_y x d_z latent matrix by
column-tiling x to width d_z, applying a random affine map, adding scaled
row noise and passing the result through a fixed nonlinearity:

    RFN:  Z_t = relu(A [x..x] + b + sigma W_t)
    ESN:  Z_t = phi(A [x..x] + B Z_{t-1} + b + sigma W_t)

where W_t is a 1 x d_z standard-normal row and sigma a d_y column scale.
The ESN saturation phi is the hard sigmoid clamp((x + 3) / 6, 0, 1) by
default (so phi(0) = 0.5), with tanh as an option.

Parameter arrays may carry leading stack axes (one row per agent or per
Monte-Carlo replica): A (..., d_y, d_x), b (..., d_y, d_z), B (..., d_y,
d_y), sigma (..., d_y). The encoders broadcast over them, with one noise
row per stacked encoder and one input x shared by all of them, so a
whole population is encoded in one call and every check runs once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EncodeError

HARD_SIGMOID = "hard_sigmoid"
TANH = "tanh"


@dataclass(frozen=True)
class RfnParams:
    A: np.ndarray  # (..., d_y, d_x)
    b: np.ndarray  # (..., d_y, d_z)
    sigma: np.ndarray  # (..., d_y)

    def __post_init__(self):
        for name in ("A", "b", "sigma"):
            a = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(a)):
                raise EncodeError(f"{name} contains non-finite entries")
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if np.any(self.sigma < 0):
            raise EncodeError("sigma must be nonnegative elementwise")


@dataclass(frozen=True)
class EsnParams:
    A: np.ndarray  # (..., d_y, d_x)
    B: np.ndarray  # (..., d_y, d_y)
    b: np.ndarray  # (..., d_y, d_z)
    sigma: np.ndarray  # (..., d_y)
    activation: str = HARD_SIGMOID

    def __post_init__(self):
        for name in ("A", "B", "b", "sigma"):
            a = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(a)):
                raise EncodeError(f"{name} contains non-finite entries")
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if self.activation not in (HARD_SIGMOID, TANH):
            raise EncodeError(f"unknown activation {self.activation!r}")


def _preactivation(A, b, x, extra, sigma, noise):
    d_y, d_z = b.shape[-2:]
    x = np.asarray(x, dtype=float).reshape(-1)
    if A.shape[-2] != d_y or A.shape[-1] != x.shape[0]:
        raise EncodeError(f"A has shape {A.shape}, incompatible with x of length {x.shape[0]}")
    noise = np.asarray(noise, dtype=float)
    if noise.shape != b.shape[:-2] + (d_z,):
        raise EncodeError(f"noise must have shape {b.shape[:-2] + (d_z,)}, got {noise.shape}")
    pre = (A @ x)[..., None] + b + sigma[..., None] * noise[..., None, :]
    if extra is not None:
        pre = pre + extra
    return pre


def hard_sigmoid(x: np.ndarray) -> np.ndarray:
    return np.clip((x + 3.0) / 6.0, 0.0, 1.0)


def rfn_encode(x_t, p: RfnParams, noise) -> np.ndarray:
    """Rectified random-feature encoding of one input vector by every
    stacked encoder in ``p``."""
    return np.maximum(_preactivation(p.A, p.b, x_t, None, p.sigma, noise), 0.0)


def esn_encode(x_t, z_prev, p: EsnParams, noise) -> np.ndarray:
    """Saturating recurrent encoding; z_prev is the previous latent matrix
    of every stacked encoder, shaped like ``p.b``."""
    z_prev = np.asarray(z_prev, dtype=float)
    if z_prev.shape != p.b.shape:
        raise EncodeError(f"z_prev has shape {z_prev.shape}, expected {p.b.shape}")
    if not np.all(np.isfinite(z_prev)):
        raise EncodeError("z_prev contains non-finite entries")
    pre = _preactivation(p.A, p.b, x_t, p.B @ z_prev, p.sigma, noise)
    if p.activation == TANH:
        return np.tanh(pre)
    return hard_sigmoid(pre)


def _stacked_normals(rng, count, shapes):
    """Standard normals for ``count`` parameter sets (None: a single set),
    drawn set-major: set i takes the i-th consecutive block of the stream,
    so the first n sets are the same for any count >= n."""
    lead = () if count is None else (int(count),)
    sizes = [int(np.prod(shape)) for shape in shapes]
    draws = rng.standard_normal(lead + (sum(sizes),))
    parts = np.split(draws, np.cumsum(sizes)[:-1], axis=-1)
    return lead, [part.reshape(lead + shape) for part, shape in zip(parts, shapes)]


def sample_rfn_params(
    d_y: int, d_z: int, d_x: int, sigma: float, rng: np.random.Generator, count: int | None = None
) -> RfnParams:
    """Draw encoder weights from standard normals, uniform sigma scale;
    ``count`` stacks that many sets along a leading axis."""
    lead, (A, b) = _stacked_normals(rng, count, [(d_y, d_x), (d_y, d_z)])
    return RfnParams(A=A, b=b, sigma=np.full(lead + (d_y,), float(sigma)))


def sample_esn_params(
    d_y: int,
    d_z: int,
    d_x: int,
    sigma: float,
    rng: np.random.Generator,
    activation: str = HARD_SIGMOID,
    count: int | None = None,
) -> EsnParams:
    lead, (A, B, b) = _stacked_normals(rng, count, [(d_y, d_x), (d_y, d_y), (d_y, d_z)])
    return EsnParams(A=A, B=B, b=b, sigma=np.full(lead + (d_y,), float(sigma)), activation=activation)
