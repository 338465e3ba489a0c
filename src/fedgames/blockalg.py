"""Block algebra for matrices invariant under permutations of agents 2..N.

An N x N block matrix whose pattern is preserved by any relabeling of the
non-first agents is determined by five blocks:

    [ a  b  b  ...  b ]
    [ c  d  e  ...  e ]
    [ c  e  d  ...  e ]
    [ :           :   ]
    [ c  e  e  ...  d ]

This family is closed under addition, multiplication and transposition,
which is what lets the homogeneity-reduced backward pass update the
repeating blocks of the N d-dimensional Riccati-type iterates at a cost
independent of N. For N = 2 the off-off-diagonal block e does not exist;
it is carried as zeros and never contributes (all its product
coefficients vanish).

Blocks may carry leading batch axes (the reduced pass stacks one set of
blocks per round); every operation broadcasts over them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class XBlockMatrix:
    N: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    e: np.ndarray

    @staticmethod
    def build(N: int, a, b, c, d, e=None) -> "XBlockMatrix":
        a, b, c, d = (np.asarray(x, dtype=float) for x in (a, b, c, d))
        e = np.zeros_like(d) if e is None else np.asarray(e, dtype=float)
        return XBlockMatrix(N, a, b, c, d, e)

    @staticmethod
    def diag(N: int, block: np.ndarray) -> "XBlockMatrix":
        block = np.asarray(block, dtype=float)
        z = np.zeros_like(block)
        return XBlockMatrix(N, block, z, z, block, z)

    @staticmethod
    def symmetric(N: int, a, b, d, e=None) -> "XBlockMatrix":
        """Pattern (a, b; b', d, e) as in the Riccati-type iterates."""
        b = np.asarray(b, dtype=float)
        return XBlockMatrix.build(N, a, b, b.mT, d, e)

    @staticmethod
    def uniform_row_gram(N: int, r1: np.ndarray, r2: np.ndarray) -> "XBlockMatrix":
        """Gram matrix R' R of the block row R = [r1, r2, ..., r2]."""
        r1 = np.asarray(r1, dtype=float)
        r2 = np.asarray(r2, dtype=float)
        return XBlockMatrix(N, r1.mT @ r1, r1.mT @ r2, r2.mT @ r1, r2.mT @ r2, r2.mT @ r2)

    @property
    def T(self) -> "XBlockMatrix":
        return XBlockMatrix(self.N, self.a.mT, self.c.mT, self.b.mT, self.d.mT, self.e.mT)

    def __add__(self, other: "XBlockMatrix") -> "XBlockMatrix":
        assert self.N == other.N
        return XBlockMatrix(
            self.N,
            self.a + other.a,
            self.b + other.b,
            self.c + other.c,
            self.d + other.d,
            self.e + other.e,
        )

    def __sub__(self, other: "XBlockMatrix") -> "XBlockMatrix":
        return self + (-1.0) * other

    def __rmul__(self, scalar: float) -> "XBlockMatrix":
        s = float(scalar)
        return XBlockMatrix(self.N, s * self.a, s * self.b, s * self.c, s * self.d, s * self.e)

    def __matmul__(self, other):
        if isinstance(other, XBlockColumn):
            return self._matvec(other)
        assert self.N == other.N
        N = self.N
        a1, b1, c1, d1, e1 = self.a, self.b, self.c, self.d, self.e
        a2, b2, c2, d2, e2 = other.a, other.b, other.c, other.d, other.e
        a = a1 @ a2 + (N - 1) * (b1 @ c2)
        b = a1 @ b2 + b1 @ d2 + (N - 2) * (b1 @ e2)
        c = c1 @ a2 + d1 @ c2 + (N - 2) * (e1 @ c2)
        d = c1 @ b2 + d1 @ d2 + (N - 2) * (e1 @ e2)
        if N >= 3:
            e = c1 @ b2 + d1 @ e2 + e1 @ d2 + (N - 3) * (e1 @ e2)
        else:
            e = np.zeros_like(d)
        return XBlockMatrix(N, a, b, c, d, e)

    def _matvec(self, col: "XBlockColumn") -> "XBlockColumn":
        assert self.N == col.N
        N = self.N
        u = self.a @ col.u + (N - 1) * (self.b @ col.v)
        v = self.c @ col.u + self.d @ col.v + (N - 2) * (self.e @ col.v)
        return XBlockColumn(N, u, v)

    def to_dense(self) -> np.ndarray:
        N = self.N
        p, q = self.a.shape
        pd, qd = self.d.shape
        out = np.zeros((p + (N - 1) * pd, q + (N - 1) * qd))
        out[:p, :q] = self.a
        for j in range(1, N):
            out[:p, q + (j - 1) * qd : q + j * qd] = self.b
            out[p + (j - 1) * pd : p + j * pd, :q] = self.c
        for i in range(1, N):
            for j in range(1, N):
                blk = self.d if i == j else self.e
                out[p + (i - 1) * pd : p + i * pd, q + (j - 1) * qd : q + j * qd] = blk
        return out


@dataclass(frozen=True)
class XBlockColumn:
    """Block column vector (u; v; v; ...; v); a batched u, v is a stack of
    (d, 1) columns."""

    N: int
    u: np.ndarray
    v: np.ndarray

    @staticmethod
    def build(N: int, u, v) -> "XBlockColumn":
        return XBlockColumn(N, np.asarray(u, dtype=float), np.asarray(v, dtype=float))

    @staticmethod
    def uniform(N: int, block) -> "XBlockColumn":
        b = np.asarray(block, dtype=float)
        return XBlockColumn(N, b, b.copy())

    def __add__(self, other: "XBlockColumn") -> "XBlockColumn":
        assert self.N == other.N
        return XBlockColumn(self.N, self.u + other.u, self.v + other.v)

    def __rmul__(self, scalar: float) -> "XBlockColumn":
        s = float(scalar)
        return XBlockColumn(self.N, s * self.u, s * self.v)

    def to_dense(self) -> np.ndarray:
        return np.concatenate([self.u] + [self.v] * (self.N - 1))
