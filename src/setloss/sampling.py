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
`derived_normals` draws the normals of a run of children at once, each row
bit for bit the child's own.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import check_count, check_integers

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


def _child_seeds(seed: np.uint64, offsets: np.ndarray) -> np.ndarray:
    """The seeds of `Rng.derive(offset)` for each offset (uint64 arithmetic
    wraps, as the mask does for Python ints)."""
    bump = (np.asarray(offsets, dtype=np.uint64) + np.uint64(1)) * _GOLDEN
    return _mix(seed ^ bump)


def _stream(seeds, start: int, k: int) -> np.ndarray:
    """Outputs start+1..start+k of each seed's counter stream, one row per
    seed (a lone seed gives one row without the leading axis)."""
    idx = np.arange(start + 1, start + k + 1, dtype=np.uint64)
    return _mix(np.asarray(seeds, dtype=np.uint64)[..., None] + idx * _GOLDEN)


def _unit(raw: np.ndarray) -> np.ndarray:
    """The top 53 bits of raw outputs as doubles in (0, 1]."""
    return ((raw >> np.uint64(11)) + np.uint64(1)) * 2.0**-53


def _entries(shape) -> int:
    """The number of entries of an array of this shape (a length or a tuple
    of them), taken over Python ints, where np.prod wraps; ValidationError
    past sys.maxsize."""
    dims = tuple(int(k) for k in (shape if np.iterable(shape) else (shape,)))
    total = math.prod(dims)
    check_count(f"the entry count of a draw of shape {dims}", total)
    return total


def _box_muller(u1: np.ndarray, u2: np.ndarray, total: int) -> np.ndarray:
    """The first `total` normals of each row's uniform pairs (u1, u2)."""
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)[..., :total]


class Rng:
    """Counter-based SplitMix64 stream with Box-Muller normals. The seed
    must be an int or a numpy integer (ValidationError otherwise: a float
    or bool would be truncated to another seed's stream)."""

    def __init__(self, seed: int):
        check_integers(seed=seed)
        self._seed = np.uint64(int(seed) & _MASK)
        self._count = 0

    def derive(self, offset: int) -> "Rng":
        """Independent child stream for a fixed component offset."""
        return Rng(int(_child_seeds(self._seed, [offset])[0]))

    def _raw(self, k: int) -> np.ndarray:
        out = _stream(self._seed, self._count, k)
        self._count += k
        return out

    def uniforms(self, k: int) -> np.ndarray:
        """k doubles in (0, 1]."""
        return _unit(self._raw(k))

    def normals(self, shape) -> np.ndarray:
        """Standard normals of the given shape via Box-Muller."""
        total = _entries(shape)
        pairs = (total + 1) // 2
        u1 = self.uniforms(pairs)
        u2 = self.uniforms(pairs)
        return _box_muller(u1, u2, total).reshape(shape)

    def derived_normals(self, start: int, stop: int, shape) -> np.ndarray:
        """`derive(i).normals(shape)` for i = start..stop-1, stacked on a
        leading axis, bit for bit, from one call per step."""
        total = _entries(shape)
        pairs = (total + 1) // 2
        seeds = _child_seeds(self._seed, np.arange(start, stop))
        u = _unit(_stream(seeds, 0, 2 * pairs))
        return _box_muller(u[:, :pairs], u[:, pairs:], total).reshape(
            (stop - start,) + tuple(shape))

    def permutation(self, k: int) -> np.ndarray:
        """Deterministic permutation of range(k) by sorting one raw draw each."""
        return np.argsort(self._raw(k), kind="stable").astype(np.int64)
