"""Random-number-generator management.

Every stochastic component in the reproduction accepts either a seed or a
``numpy.random.Generator``; these helpers normalise the two forms so
experiments are reproducible bit-for-bit.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

RngLike = Union[None, int, np.random.Generator]


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for ``rng``.

    ``None`` produces a freshly seeded generator, an ``int`` seeds a new
    generator deterministically, and an existing generator is returned as-is.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"expected None, int, or numpy Generator, got {type(rng).__name__}")


def spawn_rng(rng: RngLike, stream: Optional[int] = None) -> np.random.Generator:
    """Derive an independent child generator from ``rng``.

    Useful when one experiment needs several independent random streams (for
    example per-client channels) that must not interact, while remaining
    reproducible from a single seed.
    """
    parent = ensure_rng(rng)
    if stream is None:
        seed = int(parent.integers(0, 2**63 - 1))
    else:
        seed = int(parent.integers(0, 2**31 - 1)) ^ (int(stream) * 0x9E3779B1 & 0x7FFFFFFF)
    return np.random.default_rng(seed)


def keyed_rng(root: int, *key: int) -> np.random.Generator:
    """The generator addressed by ``key`` under the seed ``root``.

    A pure function of its arguments: ``keyed_rng(root, 7, 24)`` is the same
    PCG64 stream however many other addresses were used before it, and
    distinct keys give independent streams (``SeedSequence`` spawn keys).
    The testbed simulator keys every capture's substreams by (capture
    ordinal, stream id), so a campaign shard reaches its slice of a serial
    run by setting an ordinal instead of replaying draws.
    """
    return np.random.default_rng(np.random.SeedSequence(int(root), spawn_key=key))


def keyed_noise_rng(root: int, *key: int) -> np.random.Generator:
    """The generator addressed by ``key``, on the SFC64 bit generator.

    The same address and independence as :func:`keyed_rng`, but SFC64, whose
    normal draws are cheaper than PCG64's; the receiver's thermal noise,
    the largest block of draws per capture, uses it.
    """
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(int(root), spawn_key=key)))


def derive_seed(rng: RngLike) -> int:
    """Draw one child seed from ``rng`` (the unnumbered-spawn derivation).

    Campaigns derive per-replicate seeds this way, in canonical replicate
    order at compile time, so the seed assigned to each shard is a pure
    function of the campaign spec — independent of worker count or
    scheduling.
    """
    return int(ensure_rng(rng).integers(0, 2**63 - 1))
