"""Seeded generator of interaction logs shaped like MovieLens-1M.

Writes a `movielens_dat` file (`user::item::rating::timestamp` per line) with:

* heavy-tailed per-user history lengths (log-normal, ML-1M median of about
  96 and a floor of 20; a higher floor for long-history workloads), the same
  set of lengths for every seed,
* Zipf-like item popularity over a fixed catalog, every item used at least
  once so the vocabulary is the whole catalog,
* timestamp gaps from a mixture that reaches both the exact buckets (gaps
  under 64 s) and the log-spaced buckets (minutes to months),
* each user's lines in shuffled order, as in ML-1M, where a user's ratings
  are not stored chronologically.

The same arguments give a byte-identical file.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

ITEMS = 3706            # ML-1M catalog size; vocab = ITEMS + 1 with padding
MEDIAN_LENGTH = 96      # ML-1M median ratings per user
MAX_LENGTH = 2314       # ML-1M longest history
ZIPF_EXPONENT = 1.0
ZIPF_OFFSET = 20.0      # flattens the head so the top item is not dominant
T0 = 956_703_932        # first ML-1M timestamp (2000-04-25)


def history_lengths(rng: np.random.Generator, users: int, min_length: int) -> np.ndarray:
    """Log-normal lengths with the ML-1M median, floored at min_length.

    The lengths are the distribution's quantiles at evenly spaced levels, dealt
    to users in a seeded order: every seed gives the same log size, so set-up
    and memory do not vary with the seed.
    """
    z = np.array([NormalDist().inv_cdf((k + 0.5) / users) for k in range(users)])
    raw = np.exp(np.log(MEDIAN_LENGTH) + z)
    return rng.permutation(np.clip(raw.astype(np.int64), min_length, max(MAX_LENGTH, min_length)))


def item_probabilities() -> np.ndarray:
    ranks = np.arange(1, ITEMS + 1, dtype=np.float64)
    weights = 1.0 / (ranks + ZIPF_OFFSET) ** ZIPF_EXPONENT
    return weights / weights.sum()


def time_gaps(rng: np.random.Generator, count: int) -> np.ndarray:
    """Seconds between consecutive events of one user.

    55% within a rating session (0-63 s, the exact buckets), 35% minutes to a
    day, 10% a day to a year (both in the log-spaced buckets).
    """
    kind = rng.random(count)
    exact = rng.integers(0, 64, size=count)
    short = np.exp(rng.uniform(np.log(64), np.log(86_400), size=count))
    long = np.exp(rng.uniform(np.log(86_400), np.log(31_536_000), size=count))
    return np.where(kind < 0.55, exact, np.where(kind < 0.90, short, long)).astype(np.int64)


def generate(users: int, seed: int, min_length: int = 20) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Return (user, item, rating, timestamp) columns in file order."""
    if users < 1 or min_length < 3:
        raise ValueError("generate: need users >= 1 and min_length >= 3")
    rng = np.random.default_rng(seed)
    lengths = history_lengths(rng, users, min_length)
    probs = item_probabilities()
    # a random popularity order, so item id does not encode popularity
    item_of_rank = rng.permutation(ITEMS) + 1
    user_col, item_col, ts_col = [], [], []
    for u, length in enumerate(lengths, start=1):
        # a user rates each item at most once, like ML-1M
        picks = rng.choice(ITEMS, size=int(length), replace=False, p=probs)
        ts = T0 + int(rng.integers(0, 86_400 * 365)) + np.cumsum(time_gaps(rng, int(length)))
        order = rng.permutation(int(length))
        user_col.append(np.full(int(length), u, dtype=np.int64))
        item_col.append(item_of_rank[picks][order])
        ts_col.append(ts[order])
    user = np.concatenate(user_col)
    item = np.concatenate(item_col)
    ts = np.concatenate(ts_col)
    # cover the whole catalog: give each item absent from the log one line of
    # a random user whose history does not hold it yet
    missing = np.setdiff1d(np.arange(1, ITEMS + 1), item)
    if missing.size:
        extra_users = rng.integers(1, users + 1, size=missing.size)
        extra_ts = T0 + rng.integers(0, 86_400 * 365 * 3, size=missing.size)
        user = np.concatenate([user, extra_users])
        item = np.concatenate([item, missing])
        ts = np.concatenate([ts, extra_ts])
        grouped = np.argsort(user, kind="stable")
        user, item, ts = user[grouped], item[grouped], ts[grouped]
    rating = rng.integers(1, 6, size=user.size)
    return user, item, rating, ts


def write_movielens(path, user, item, rating, ts) -> int:
    """Write the columns as `user::item::rating::timestamp` lines; returns the line count."""
    lines = "\n".join(
        f"{u}::{i}::{r}::{t}" for u, i, r, t in zip(user.tolist(), item.tolist(), rating.tolist(), ts.tolist())
    )
    with open(path, "w", newline="\n") as fh:
        fh.write(lines + "\n")
    return int(user.size)
