"""The benchmark's own arithmetic for the boosts it checks.

Nothing here calls the library.  The generators are written out from
their definitions (boost along n plus rotation about nu x n, and the
scale term -r (nu.n) I of the generalized boost) and exponentiated
numerically, so a closed form of the library that is wrong, short-circuited
or NaN does not agree with them.
"""
from __future__ import annotations

import math

import numpy as np

# Dirac representation: gamma^0 = diag(1, 1, -1, -1), gamma^k off-diagonal.
_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
GAMMA = (np.diag([1, 1, -1, -1]).astype(complex),) + tuple(
    np.block([[np.zeros((2, 2)), s], [-s, np.zeros((2, 2))]]) for s in _SIGMA)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential: scaling and squaring of a 14-term Taylor series."""
    norm = float(np.abs(a).sum(axis=1).max())
    k = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0
    b = a / 2.0**k
    term = out = np.eye(len(a), dtype=a.dtype)
    for j in range(1, 15):
        term = term @ b / j
        out = out + term
    for _ in range(k):
        out = out @ out
    return out


def generalized_boost(nu, n, alpha: float, r: float) -> np.ndarray:
    """exp(alpha (G(nu, n) - r (nu.n) I)); r = 0 gives the plain boost."""
    nu, n = np.asarray(nu, dtype=float), np.asarray(n, dtype=float)
    m = np.cross(nu, n)
    g = np.zeros((4, 4))
    g[0, 1:] = g[1:, 0] = -n
    g[1:, 1:] = [[0.0, -m[2], m[1]], [m[2], 0.0, -m[0]], [-m[1], m[0], 0.0]]
    g -= r * float(np.dot(nu, n)) * np.eye(4)
    return expm(alpha * g)
