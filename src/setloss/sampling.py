"""Self-contained seeded randomness.

Every stochastic component in the package draws from this one source so
results are reproducible from a single seed within the implementation,
without depending on any external generator's stream guarantees. The
design is a counter-based SplitMix64: output i is a bijective mix of
seed + (i+1) * GOLDEN, which vectorizes cleanly (uint64 arithmetic wraps)
and never needs to carry mutable state across array calls.

Gaussians come from the Box-Muller transform: for uniform u1 in (0, 1]
and u2 in [0, 1),

    r = sqrt(-2 ln u1),  z0 = r cos(2 pi u2),  z1 = r sin(2 pi u2)

are two independent standard normals. Uniforms are built from the top 53
bits of the mixed counter, shifted into (0, 1] so the log is always safe.

Component streams are decorrelated by `derive`: each fixed offset yields
an independent child seed, so draw j of component c never collides with
any other (component, draw) pair regardless of evaluation order.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MASK = (1 << 64) - 1


def _mix(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


class Rng:
    """Counter-based SplitMix64 stream with Box-Muller normals."""

    def __init__(self, seed: int):
        self._seed = np.uint64(int(seed) & _MASK)
        self._count = 0

    def derive(self, offset: int) -> "Rng":
        """Independent child stream for a fixed component offset."""
        bump = (int(_GOLDEN) * (int(offset) + 1)) & _MASK
        child = _mix(np.array([int(self._seed) ^ bump], dtype=np.uint64))
        return Rng(int(child[0]))

    def _raw(self, k: int) -> np.ndarray:
        idx = np.arange(self._count + 1, self._count + k + 1, dtype=np.uint64)
        self._count += k
        return _mix(self._seed + idx * _GOLDEN)

    def uniforms(self, k: int) -> np.ndarray:
        """k doubles in (0, 1]."""
        return ((self._raw(k) >> np.uint64(11)) + np.uint64(1)) * 2.0**-53

    def normals(self, shape) -> np.ndarray:
        """Standard normals of the given shape via Box-Muller."""
        total = int(np.prod(shape))
        pairs = (total + 1) // 2
        u1 = self.uniforms(pairs)
        u2 = self.uniforms(pairs)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:total]
        return out.reshape(shape)

    def permutation(self, k: int) -> np.ndarray:
        """Deterministic permutation of range(k) by sorting one raw draw each."""
        return np.argsort(self._raw(k), kind="stable").astype(np.int64)
