"""Seeded Zipf/topic click streams, drawn whole with a few vectorized numpy calls.

Every session picks one topic (topics are Zipf-popular). Each click is, with
probability ``global_share``, an item drawn from one Zipf law over the whole
catalogue (so a few items are popular everywhere and their posting lists grow
long); otherwise it is drawn from a Zipf law over the session's own topic.
Session lengths are 1 + geometric, so single clicks exist and the length
filter has work to do. Sessions start a random number of seconds apart and
clicks within a session are a second apart.

Drawing per session with ``rng.choice(p=...)`` costs minutes at 10^5
sessions; inverse-CDF lookups on the whole click vector cost seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BASE_TIME = 1_600_000_000
CATALOGUE_SEED = 0


@dataclass(frozen=True)
class StreamShape:
    """Parameters of the generated stream; the seed is passed separately."""

    sessions: int = 100_000
    topics: int = 400
    items_per_topic: int = 100
    topic_exponent: float = 0.8
    item_exponent: float = 1.1
    global_exponent: float = 1.1
    global_share: float = 0.3
    mean_extra_clicks: float = 3.0
    mean_gap_s: float = 30.0


def _zipf_cdf(n: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def _draw(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw of 0-based ranks for uniforms ``u``."""
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)


def generate(shape: StreamShape, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw a click stream; the seed changes the draw, not the catalogue.

    Returns three aligned arrays, one entry per click in chronological order:
    session number, timestamp (epoch seconds) and raw item number.
    """
    rng = np.random.default_rng(seed)
    n = shape.sessions
    n_items = shape.topics * shape.items_per_topic
    lengths = 1 + rng.geometric(1.0 / (1.0 + shape.mean_extra_clicks), n)
    topic = _draw(_zipf_cdf(shape.topics, shape.topic_exponent), rng.random(n))
    starts = BASE_TIME + np.cumsum(rng.integers(1, 2 * int(shape.mean_gap_s), n))

    session = np.repeat(np.arange(n), lengths)
    first = np.cumsum(lengths) - lengths
    position = np.arange(session.size) - np.repeat(first, lengths)
    local = _draw(_zipf_cdf(shape.items_per_topic, shape.item_exponent), rng.random(session.size))
    # A fixed permutation scatters the globally popular items across topics.
    # It is part of the catalogue, not of the draw: were it seeded, whether
    # the top global items also top busy topics would change the posting
    # lengths, and so the cost of retrieval, from one seed to the next.
    popular = np.random.default_rng(CATALOGUE_SEED).permutation(n_items)
    anywhere = popular[_draw(_zipf_cdf(n_items, shape.global_exponent), rng.random(session.size))]
    is_global = rng.random(session.size) < shape.global_share
    items = np.where(is_global, anywhere, topic[session] * shape.items_per_topic + local)
    return session, starts[session] + position, items
