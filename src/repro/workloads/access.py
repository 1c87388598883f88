"""Virtual-address stream generators.

All generators return numpy int64 arrays of byte addresses.  They model the
locality classes the benchmarks exhibit:

* ``uniform`` — GUPS-style random updates: every access a fresh page.
* ``zipf`` — key-value-store skew: hot keys dominate, long cold tail.
* ``sequential`` — streaming scans (GAPBS top-down passes, CG row sweeps).
* ``strided`` — fixed-stride gathers (sparse matvec column accesses).
* ``pointer_chase`` — dependent random walks (B+tree descents, Canneal's
  netlist hops): like uniform in TLB terms but generated as a chain.
* ``mixture`` — weighted combination over labelled regions, for workloads
  with hot/cold structure (Graph500's hot frontier, Redis's stack).
"""

from __future__ import annotations

import numpy as np

#: accesses interleaved per vectorized step of :func:`mixture`
_MIXTURE_CHUNK = 1 << 15


def uniform(rng: np.random.Generator, base: int, size: int, n: int) -> np.ndarray:
    """n addresses uniformly random in [base, base+size)."""
    if size <= 0 or n < 0:
        raise ValueError(f"bad uniform params size={size} n={n}")
    return base + rng.integers(0, size, n, dtype=np.int64)


def zipf(
    rng: np.random.Generator,
    base: int,
    size: int,
    n: int,
    alpha: float = 1.2,
    granule: int = 4096,
) -> np.ndarray:
    """n addresses with Zipf-distributed popularity over ``granule`` blocks.

    Block ranks are randomly permuted across the region so hot blocks are
    scattered (real key-value stores hash keys), which is what defeats
    naive hot-range heuristics.
    """
    if alpha <= 1.0:
        raise ValueError(f"zipf alpha must be > 1, got {alpha}")
    blocks = max(1, size // granule)
    ranks = rng.zipf(alpha, n).astype(np.int64) - 1
    ranks %= blocks
    perm = rng.permutation(blocks)
    offsets = rng.integers(0, granule, n, dtype=np.int64)
    return base + perm[ranks] * granule + offsets


def sequential(base: int, size: int, n: int, stride: int = 64) -> np.ndarray:
    """n addresses walking the region with ``stride``, wrapping around."""
    if stride <= 0:
        raise ValueError(f"stride must be positive, got {stride}")
    idx = (np.arange(n, dtype=np.int64) * stride) % max(size, 1)
    return base + idx


def strided(
    rng: np.random.Generator, base: int, size: int, n: int, stride: int
) -> np.ndarray:
    """n addresses at random multiples of ``stride`` (sparse column gathers)."""
    slots = max(1, size // stride)
    return base + rng.integers(0, slots, n, dtype=np.int64) * stride


def pointer_chase(
    rng: np.random.Generator, base: int, size: int, n: int, node: int = 64
) -> np.ndarray:
    """n dependent accesses hopping between ``node``-sized slots."""
    slots = max(1, size // node)
    hops = rng.integers(0, slots, n, dtype=np.int64)
    return base + hops * node


def mixture(
    rng: np.random.Generator,
    parts: list[tuple[float, np.ndarray]],
    n: int,
) -> np.ndarray:
    """Interleave streams with given weights into one n-access stream.

    ``parts`` is [(weight, address_pool), ...]; each access draws its source
    stream by weight and consumes that stream round-robin.
    """
    weights = np.array([w for w, _ in parts], dtype=np.float64)
    if (weights < 0).any() or weights.sum() <= 0:
        raise ValueError("mixture weights must be non-negative and sum > 0")
    weights = weights / weights.sum()
    choice = rng.choice(len(parts), size=n, p=weights)
    out = np.empty(n, dtype=np.int64)
    pools = [np.asarray(pool) for _, pool in parts]
    drawn = [0] * len(parts)  # accesses each source has supplied so far
    # The k-th draw of source c takes pool[k % len(pool)].  Chunking keeps
    # the index temporaries small next to the stream itself.
    for lo in range(0, n, _MIXTURE_CHUNK):
        block = choice[lo : lo + _MIXTURE_CHUNK]
        for c, pool in enumerate(pools):
            pos = np.flatnonzero(block == c)
            if len(pos):
                k = drawn[c]
                out[lo + pos] = pool[np.arange(k, k + len(pos)) % len(pool)]
                drawn[c] = k + len(pos)
    return out
