"""Random-feature and echo-state latent encoders.

Both encoders map an input vector x_t to a d_y x d_z latent matrix by
column-tiling x to width d_z, applying a random affine map, adding scaled
row noise and passing the result through a fixed nonlinearity:

    RFN:  Z_t = relu(A [x..x] + b + sigma W_t)
    ESN:  Z_t = phi(A [x..x] + B Z_{t-1} + b + sigma W_t)

where W_t is a 1 x d_z standard-normal row and sigma a d_y column scale.
The ESN saturation phi is the hard sigmoid clamp((x + 3) / 6, 0, 1) by
default (so phi(0) = 0.5), with tanh as an option.

One type, ``EncoderParams``, holds both: an RFN is an encoder whose B
is None. ``sample_encoders`` draws a stack of either kind from an
``EncoderConfig``.

Parameter arrays may carry leading stack axes (one row per agent or per
Monte-Carlo replica): A (..., d_y, d_x), b (..., d_y, d_z), B (..., d_y,
d_y), sigma (..., d_y). The encoders broadcast over them, with one noise
row per stacked encoder and one input x shared by all of them, so a
whole population is encoded in one call and every check runs once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NONNEGATIVE, EncodeError, check_fields

HARD_SIGMOID = "hard_sigmoid"
TANH = "tanh"
ACTIVATIONS = (HARD_SIGMOID, TANH)


@dataclass(frozen=True)
class EncoderConfig:
    kind: str = "rfn"  # rfn | esn
    sigma: float = 0.1
    activation: str = HARD_SIGMOID

    def __post_init__(self):
        check_fields(self, ("'rfn' or 'esn'", ("rfn", "esn").__contains__), "kind")
        check_fields(self, NONNEGATIVE, "sigma")
        check_fields(self, (f"one of {ACTIVATIONS}", ACTIVATIONS.__contains__), "activation")


@dataclass(frozen=True)
class EncoderParams:
    """Stacked encoder parameters; ``B`` is None for a feed-forward (RFN)
    encoder, which rectifies and never reads ``activation``."""

    A: np.ndarray  # (..., d_y, d_x)
    B: np.ndarray | None  # (..., d_y, d_y)
    b: np.ndarray  # (..., d_y, d_z)
    sigma: np.ndarray  # (..., d_y)
    activation: str = HARD_SIGMOID

    def __post_init__(self):
        for name in ("A", "B", "b", "sigma"):
            if getattr(self, name) is None:
                continue  # B of a feed-forward encoder
            a = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(a)):
                raise EncodeError(f"{name} contains non-finite entries")
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if np.any(self.sigma < 0):
            raise EncodeError("sigma must be nonnegative elementwise")
        if self.activation not in ACTIVATIONS:
            raise EncodeError(f"unknown activation {self.activation!r}")


def check_step(p: EncoderParams, x, noise, z_prev=None) -> None:
    """The checks of one encoding step by the stacked encoders ``p``: for
    a recurrent encoder the shape and finiteness of the carry ``z_prev``,
    then the input length and the shape of the noise rows.
    ``encode_into`` makes none of them; a caller that encodes a run of
    steps on its own buffers checks once per run, with the run's first
    carry."""
    d_y, d_z = p.b.shape[-2:]
    if p.B is not None:
        if z_prev.shape != p.b.shape:
            raise EncodeError(f"z_prev has shape {z_prev.shape}, expected {p.b.shape}")
        check_carry(z_prev)
    if p.A.shape[-2] != d_y or p.A.shape[-1] != x.shape[0]:
        raise EncodeError(f"A has shape {p.A.shape}, incompatible with x of length {x.shape[0]}")
    if noise.shape != p.b.shape[:-2] + (d_z,):
        raise EncodeError(f"noise must have shape {p.b.shape[:-2] + (d_z,)}, got {noise.shape}")


def check_carry(z_prev: np.ndarray) -> None:
    """Raise EncodeError if the carry ``z_prev`` is not finite. One sum
    settles a finite carry; the entries are searched only when the sum
    is not finite, which an overflowing sum of finite entries can also
    cause (as in ``harness.check_finite``)."""
    if not np.isfinite(np.sum(z_prev)) and not np.isfinite(z_prev).all():
        raise EncodeError("z_prev contains non-finite entries")


def encode_into(p: EncoderParams, x, noise, z_prev, out, ax, work) -> np.ndarray:
    """The encoders' arithmetic, unchecked, on the caller's buffers: the
    latents of one step by every stacked encoder in ``p``, written into
    ``out`` (shaped like ``p.b``) and returned. ``ax`` (shaped like
    ``p.A`` without its last axis) and ``work`` (like ``p.b``) are
    scratch; ``z_prev`` (read by a recurrent encoder only) must not be
    ``out``. The sums run in the order of

        A [x..x] + b + sigma W_t (+ B Z_{t-1})

    left to right, whichever caller (``rfn_encode``, ``esn_encode``, the
    harness's ``_encode_run``, for the latent bank and for each round's
    latents) supplies the buffers."""
    np.matmul(p.A, x, out=ax)
    np.add(ax[..., None], p.b, out=out)
    np.multiply(p.sigma[..., None], noise[..., None, :], out=work)
    out += work
    if p.B is None:
        return np.maximum(out, 0.0, out=out)
    np.matmul(p.B, z_prev, out=work)
    out += work
    if p.activation == TANH:
        return np.tanh(out, out=out)
    return hard_sigmoid(out, out=out)


def _encode(p: EncoderParams, x_t, noise, z_prev=None) -> np.ndarray:
    """Check one step and encode it into fresh arrays."""
    x = np.asarray(x_t, dtype=float).reshape(-1)
    noise = np.asarray(noise, dtype=float)
    if z_prev is not None:
        z_prev = np.asarray(z_prev, dtype=float)
    check_step(p, x, noise, z_prev)
    return encode_into(p, x, noise, z_prev, np.empty(p.b.shape), np.empty(p.A.shape[:-1]), np.empty(p.b.shape))


def hard_sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """clamp((x + 3) / 6, 0, 1), into ``out`` when given (it may be ``x``)."""
    if out is None:
        out = np.empty(np.shape(x))
    np.add(x, 3.0, out=out)
    out /= 6.0
    np.maximum(out, 0.0, out=out)  # np.clip's clamp, without its Python wrapper
    return np.minimum(out, 1.0, out=out)


def rfn_encode(x_t, p: EncoderParams, noise) -> np.ndarray:
    """Rectified random-feature encoding of one input vector by every
    stacked encoder in ``p``."""
    return _encode(p, x_t, noise)


def esn_encode(x_t, z_prev, p: EncoderParams, noise) -> np.ndarray:
    """Saturating recurrent encoding; z_prev is the previous latent matrix
    of every stacked encoder, shaped like ``p.b``."""
    return _encode(p, x_t, noise, z_prev)


def sample_encoders(cfg: EncoderConfig, count, d_y: int, d_z: int, d_x: int, rng) -> EncoderParams:
    """``count`` encoders of ``cfg`` (None: one unstacked encoder) with
    standard-normal A, B (recurrent only) and b and the uniform sigma
    scale, drawn set-major in that field order: set i takes the i-th
    consecutive block of the stream, so the first n sets are the same for
    any count >= n."""
    lead = () if count is None else (int(count),)
    shapes = {"A": (d_y, d_x), "B": (d_y, d_y), "b": (d_y, d_z)}
    if cfg.kind == "rfn":
        del shapes["B"]
    sizes = [math.prod(shape) for shape in shapes.values()]
    parts = np.split(rng.standard_normal(lead + (sum(sizes),)), np.cumsum(sizes)[:-1], axis=-1)
    drawn = {name: part.reshape(lead + shape) for (name, shape), part in zip(shapes.items(), parts)}
    sigma = np.full(lead + (d_y,), float(cfg.sigma))
    return EncoderParams(drawn["A"], drawn.get("B"), drawn["b"], sigma, cfg.activation)
