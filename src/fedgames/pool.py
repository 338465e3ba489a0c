"""Agent pool state: stacked encoders plus the per-agent simulation arrays.

The encoder parameters live in one stacked ``EncoderParams`` with a
leading agent axis. The spawner sees them as flat parameter rows, one
per agent, laid out field by field in declaration order: (A, [B], b,
sigma), with B for recurrent encoders only. The pool owns that (N, dim)
matrix, and the encoder's arrays are views into it, so reading the rows
copies nothing, and a respawn writes only its new rows.

One pool may hold several populations of N agents side by side, as the
rows of an episode group (``harness.run_group``); each population's
spawner then reads and respawns only its own block of rows.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .encoders import EncoderParams
from .errors import EncodeError


def _param_fields(encoder) -> list[str]:
    return [f.name for f in dataclasses.fields(encoder) if isinstance(getattr(encoder, f.name), np.ndarray)]


def _on_rows(encoder, rows: np.ndarray):
    """``encoder``'s kind with one stacked encoder per row of ``rows``,
    each parameter array a view into the columns that hold it; the new
    stack is validated like any encoder."""
    views = {}
    start = 0
    for name in _param_fields(encoder):
        shape = rows.shape[:1] + getattr(encoder, name).shape[1:]
        width = math.prod(shape[1:])
        views[name] = rows[:, start : start + width].reshape(shape)
        start += width
    return dataclasses.replace(encoder, **views)


@dataclass
class AgentPool:
    """Mutable per-episode state of the stacked agents (N, or G N for a
    group of G episodes)."""

    encoder: EncoderParams  # stacked: leading agent axis, arrays are views into ``rows``
    rows: np.ndarray  # (N, dim) flat encoder parameters, one row per agent
    latent_transforms: np.ndarray | None  # (N, d_z, d_z) post-composition maps; None: all identity
    # the last raw encoder output, set by an episode once per round: the
    # recurrent carry; a caller's latents may be this same array
    esn_state: np.ndarray  # (N, d_y, d_z)

    @staticmethod
    def create(*encoders: EncoderParams) -> "AgentPool":
        """The pool of the stacked ``encoders``' agents, in order, each
        encoder's parameters copied into the pool's own rows (an encoder
        given twice gives two independent copies of its agents)."""
        rows = np.concatenate(
            [np.concatenate([getattr(e, name).reshape(len(e.b), -1) for name in _param_fields(e)], axis=1) for e in encoders]
        )
        n, (d_y, d_z) = rows.shape[0], encoders[0].b.shape[1:]
        return AgentPool(
            encoder=_on_rows(encoders[0], rows),
            rows=rows,
            latent_transforms=None,
            esn_state=np.zeros((n, d_y, d_z)),
        )

    def steer(self, slots: np.ndarray, maps: np.ndarray) -> None:
        """Give the agents in ``slots`` the (d_z, d_z) latent ``maps``; the
        first call materializes the identity maps of all the others."""
        if self.latent_transforms is None:
            n, _, d_z = self.esn_state.shape
            self.latent_transforms = np.tile(np.eye(d_z), (n, 1, 1))
        self.latent_transforms[slots] = maps

    def respawn(self, slots: np.ndarray, rows: np.ndarray) -> None:
        """Give the agents in ``slots`` the new (len(slots), dim) parameter
        ``rows``, an identity latent map and a cleared recurrent state.

        The rows are written in place into ``self.rows``, which the
        encoder's arrays view, with their sigma taken in absolute value; no
        other row is touched or checked again. A non-finite row raises
        EncodeError before anything is written. The state is replaced, not
        written in place, because the caller's latents (the spawner's,
        read after this call) may be the same array."""
        slots = np.asarray(slots, dtype=int)
        rows = np.asarray(rows, dtype=float)
        if not np.isfinite(rows).all():
            raise EncodeError("respawned parameter rows contain non-finite entries")
        first = rows.shape[1] - self.encoder.sigma[0].size  # sigma, a row's last field, starts here
        self.rows[slots] = rows
        self.rows[slots, first:] = np.abs(rows[:, first:])
        if self.latent_transforms is not None:
            self.latent_transforms[slots] = np.eye(self.latent_transforms.shape[1])
        state = self.esn_state.copy()
        state[slots] = 0.0
        self.esn_state = state
