"""Agent pool state: stacked encoders plus the per-agent simulation arrays.

The encoder parameters live in one stacked ``RfnParams``/``EsnParams``
with a leading agent axis. The spawner sees them as flat parameter rows,
one per agent, laid out field by field in declaration order: (A, b, sigma)
for feed-forward encoders, (A, B, b, sigma) for recurrent ones.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .encoders import EsnParams, RfnParams


def _param_fields(encoder) -> list[str]:
    return [f.name for f in dataclasses.fields(encoder) if isinstance(getattr(encoder, f.name), np.ndarray)]


@dataclass
class AgentPool:
    """Mutable per-episode state of the N agents."""

    encoder: RfnParams | EsnParams  # stacked: leading agent axis
    latents: np.ndarray  # (N, d_y, d_z) current Z
    predictions: np.ndarray  # (N, d_y)
    latent_transforms: np.ndarray | None  # (N, d_z, d_z) post-composition maps; None: all identity
    esn_state: np.ndarray  # (N, d_y, d_z) last encoder output: the recurrent carry

    @property
    def size(self) -> int:
        return self.encoder.b.shape[0]

    @staticmethod
    def create(encoder: RfnParams | EsnParams) -> "AgentPool":
        n, d_y, d_z = encoder.b.shape
        return AgentPool(
            encoder=encoder,
            latents=np.zeros((n, d_y, d_z)),
            predictions=np.zeros((n, d_y)),
            latent_transforms=None,
            esn_state=np.zeros((n, d_y, d_z)),
        )

    def set_latents(self, z: np.ndarray) -> None:
        """Take a step's encoder output ``z``: it becomes the recurrent
        carry, and the latents are ``z`` through each agent's latent map,
        or ``z`` itself (the same array) while no agent has been steered."""
        self.esn_state = z
        self.latents = z if self.latent_transforms is None else z @ self.latent_transforms

    def steer(self, slots: np.ndarray, maps: np.ndarray) -> None:
        """Give the agents in ``slots`` the (d_z, d_z) latent ``maps``; the
        first call materializes the identity maps of all the others."""
        if self.latent_transforms is None:
            n, _, d_z = self.latents.shape
            self.latent_transforms = np.tile(np.eye(d_z), (n, 1, 1))
        self.latent_transforms[slots] = maps

    def param_rows(self) -> np.ndarray:
        """(N, dim) flat encoder parameters, one row per agent."""
        return np.concatenate(
            [getattr(self.encoder, name).reshape(self.size, -1) for name in _param_fields(self.encoder)],
            axis=1,
        )

    def respawn(self, slots: np.ndarray, rows: np.ndarray) -> None:
        """Give the agents in ``slots`` the flat parameter ``rows`` (sigma
        taken in absolute value), an identity latent map and a cleared
        recurrent state. The new stack is validated like any encoder.
        The state is replaced, not written in place, because the current
        latents may be the same array."""
        slots = np.asarray(slots, dtype=int)
        rows = np.asarray(rows, dtype=float)
        updated = {}
        start = 0
        for name in _param_fields(self.encoder):
            stack = getattr(self.encoder, name).copy()
            width = stack[0].size
            block = rows[:, start : start + width].reshape((len(slots),) + stack.shape[1:])
            stack[slots] = np.abs(block) if name == "sigma" else block
            updated[name] = stack
            start += width
        self.encoder = dataclasses.replace(self.encoder, **updated)
        if self.latent_transforms is not None:
            self.latent_transforms[slots] = np.eye(self.latent_transforms.shape[1])
        state = self.esn_state.copy()
        state[slots] = 0.0
        self.esn_state = state
