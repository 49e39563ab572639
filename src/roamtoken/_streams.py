"""Seed derivation conventions.

Every trial owns three independent random streams (measurement noise, graph
draws, token moves), derived counter-style from ``(master_seed, trial_index)``
so that results do not depend on execution order or concurrency.  The
single-episode path and the vectorized multi-trial engine consume these
streams with the same draw pattern, so a trial can be replayed standalone.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.random import Generator, SeedSequence

SeedLike = int | SeedSequence


class EpisodeStreams(NamedTuple):
    noise: Generator
    graph: Generator
    move: Generator


def as_seed_sequence(seed: SeedLike) -> SeedSequence:
    if isinstance(seed, SeedSequence):
        return seed
    return SeedSequence(int(seed))


def trial_seed(master_seed: int, trial: int) -> SeedSequence:
    """Counter-based per-trial seed: independent of how many trials run."""
    return SeedSequence([int(master_seed), int(trial)])


def _extended(master: SeedLike, *words: int) -> SeedSequence:
    """``SeedSequence([master, *words])``; a SeedSequence master's entropy is extended."""
    if isinstance(master, SeedSequence):
        entropy = master.entropy if isinstance(master.entropy, (list, tuple)) else [master.entropy]
        return SeedSequence(list(entropy) + list(words))
    return SeedSequence([int(master), *words])


def trial_seed_for(master: SeedLike, trial: int) -> SeedSequence:
    """``trial_seed`` generalized to SeedSequence masters (entropy is extended)."""
    return _extended(master, int(trial))


def episode_streams(seed: SeedLike) -> EpisodeStreams:
    """The (noise, graph, move) stream triple for one episode.

    Spawning from a fresh SeedSequence is deterministic, so passing
    ``trial_seed(master, r)`` reproduces trial ``r`` of a batched run.
    """
    children = as_seed_sequence(seed).spawn(3)
    return EpisodeStreams(*(np.random.default_rng(c) for c in children))


def derived_stream(master_seed: SeedLike, tag: int) -> Generator:
    """A named auxiliary stream (for example backbone generation)."""
    return np.random.default_rng(_extended(master_seed, 0x5EED, int(tag)))
