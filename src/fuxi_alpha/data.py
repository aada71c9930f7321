"""Dataset ingestion, chronological sequences, splits, batching, and a synthetic
generator with planted temporal structure."""

from __future__ import annotations

import csv as _csv
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .model import SequenceBatch

FORMATS = ("movielens_dat", "csv")


class DataError(ValueError):
    """Malformed input data or an empty/degenerate dataset."""


@dataclass(eq=False)
class InteractionLog:
    """An interaction log as three aligned int64 columns, one entry per event."""

    user: np.ndarray
    item: np.ndarray
    timestamp: np.ndarray

    def __post_init__(self):
        self.user = np.asarray(self.user, dtype=np.int64)
        self.item = np.asarray(self.item, dtype=np.int64)
        self.timestamp = np.asarray(self.timestamp, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.user)


@dataclass
class UserSequence:
    user: int
    items: np.ndarray       # int64, chronological
    timestamps: np.ndarray  # int64, non-decreasing
    raw_length: int         # interaction count before truncation

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class EvalInstance:
    """One ranking task: a context and the ground-truth next item."""

    user: int
    items: np.ndarray
    timestamps: np.ndarray
    target: int


@dataclass
class SplitStats:
    users: int
    items: int
    interactions: int
    mean_length: float
    dropped_users: int


@dataclass
class DatasetSplit:
    train: list[UserSequence]
    validation: list[EvalInstance]
    test: list[EvalInstance]
    item_remap: dict[int, int] | None
    stats: SplitStats

    @property
    def vocab(self) -> int:
        # embedding rows: the padding row plus one per item
        return self.stats.items + 1


# parsing ----------------------------------------------------------------------


def _parse_movielens_line(line: str, ln: int) -> tuple[int, int, int]:
    parts = line.split("::")
    if len(parts) != 4:
        raise DataError(f"line {ln}: expected 4 '::'-separated fields, got {len(parts)}")
    try:
        user, item = int(parts[0]), int(parts[1])
        float(parts[2])  # the rating is checked, not kept
        ts = int(parts[3])
    except ValueError as e:
        raise DataError(f"line {ln}: {e}") from None
    return user, item, ts


def parse_interactions(path: str | Path, format: str) -> tuple[InteractionLog, dict[int, int]]:
    """Read an interaction log and densely remap ids; 0 stays reserved for padding.

    The file must be UTF-8 text. Returns the remapped events in file order
    plus the original-item-id -> dense-id table. Ratings are checked but not
    kept.
    """
    if not Path(path).is_file():
        raise DataError(f"dataset file not found: {str(path)!r}")
    if format not in FORMATS:
        raise DataError(f"unknown format {format!r}; expected one of {FORMATS}")

    users: list[int] = []
    items: list[int] = []
    stamps: list[int] = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            if format == "movielens_dat":
                for ln, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    user, item, ts = _parse_movielens_line(line, ln)
                    users.append(user)
                    items.append(item)
                    stamps.append(ts)
            else:
                reader = _csv.reader(fh)
                header = next(reader, None)
                if header is None:
                    raise DataError("empty file")
                cols = [c.strip().lower() for c in header]
                if cols[:3] != ["user", "item", "timestamp"]:
                    raise DataError(f"line 1: expected header user,item,timestamp[,rating], got {header}")
                has_rating = len(cols) > 3 and cols[3] == "rating"
                for ln, row in enumerate(reader, start=2):
                    if not row:
                        continue
                    if len(row) < 3:
                        raise DataError(f"line {ln}: expected at least 3 fields, got {len(row)}")
                    try:
                        user, item, ts = int(row[0]), int(row[1]), int(row[2])
                        if has_rating and len(row) > 3 and row[3] != "":
                            float(row[3])
                    except ValueError as e:
                        raise DataError(f"line {ln}: {e}") from None
                    users.append(user)
                    items.append(item)
                    stamps.append(ts)
    except UnicodeDecodeError as e:
        raise DataError(f"{path} is not UTF-8 text: {e}") from None

    if not users:
        raise DataError(f"no events parsed from {path}")
    try:
        raw = InteractionLog(users, items, stamps)
    except OverflowError:
        raise DataError(f"{path}: an id or timestamp does not fit in 64 bits") from None
    if (raw.timestamp < 0).any():
        raise DataError("negative timestamp encountered")

    item_ids, item_col = np.unique(raw.item, return_inverse=True)
    user_col = np.unique(raw.user, return_inverse=True)[1]
    item_remap = dict(zip(item_ids.tolist(), range(1, len(item_ids) + 1)))
    return InteractionLog(user_col + 1, item_col + 1, raw.timestamp), item_remap


# sequence construction -----------------------------------------------------------


def build_sequences(log: InteractionLog, n: int) -> list[UserSequence]:
    """Per-user chronological sequences in ascending user order; ties keep file
    order; at most the last n events of each user are kept."""
    if n < 1:
        raise ValueError(f"build_sequences: n must be >= 1, got {n}")
    if len(log) == 0:
        raise DataError("build_sequences: no events")
    order = np.lexsort((log.timestamp, log.user))  # a stable sort: ties keep file order
    user, items, ts = log.user[order], log.item[order], log.timestamp[order]
    ends = np.append(np.flatnonzero(user[1:] != user[:-1]) + 1, len(user)).tolist()
    kept = [(s, max(s, e - n), e) for s, e in zip([0] + ends[:-1], ends)]
    return [UserSequence(int(user[s]), items[k:e], ts[k:e], raw_length=e - s) for s, k, e in kept]


def split_leave_last(
    sequences: Sequence[UserSequence],
    item_remap: dict[int, int] | None = None,
) -> DatasetSplit:
    """Last item becomes the test target, second-to-last the validation target.

    Users with fewer than 3 interactions cannot populate all three partitions
    and are dropped (counted in the stats).
    """
    train, val, test = [], [], []
    dropped = 0
    interactions = 0
    for seq in sequences:
        interactions += seq.raw_length
        if len(seq) < 3:
            dropped += 1
            continue
        train.append(
            UserSequence(seq.user, seq.items[:-2], seq.timestamps[:-2], raw_length=seq.raw_length)
        )
        val.append(EvalInstance(seq.user, seq.items[:-2], seq.timestamps[:-2], int(seq.items[-2])))
        test.append(EvalInstance(seq.user, seq.items[:-1], seq.timestamps[:-1], int(seq.items[-1])))
    if not train:
        raise DataError("split_leave_last: no users with >= 3 interactions")
    catalogue = item_remap if item_remap is not None else np.unique(np.concatenate([seq.items for seq in sequences]))
    stats = SplitStats(
        users=len(train),
        items=len(catalogue),
        interactions=interactions,
        mean_length=interactions / len(sequences),
        dropped_users=dropped,
    )
    return DatasetSplit(train=train, validation=val, test=test, item_remap=item_remap, stats=stats)


# synthetic data -------------------------------------------------------------------


@dataclass
class GapRule:
    """Planted dynamics: the next item depends on the current item and the
    class of the most recent observed time gap."""

    gap_ranges: list[tuple[int, int]]
    next_dist: Callable[[int, int], np.ndarray]  # (current item, gap class) -> probs over items 1..I

    @property
    def classes(self) -> int:
        return len(self.gap_ranges)


def uniform_gap_rule(items: int, short=(1, 10), long=(1000, 2000)) -> GapRule:
    probs = np.full(items, 1.0 / items)
    return GapRule(gap_ranges=[short, long], next_dist=lambda cur, cls: probs)


def two_class_gap_rule(
    items: int, item_a: int = 1, item_b: int = 2, prob: float = 0.9,
    short=(1, 10), long=(1000, 2000),
) -> GapRule:
    """Short recent gap favors item_a, long favors item_b, with probability `prob`."""

    def dist(cur: int, cls: int) -> np.ndarray:
        target = item_a if cls == 0 else item_b
        p = np.full(items, (1.0 - prob) / (items - 1))
        p[target - 1] = prob
        return p

    return GapRule(gap_ranges=[short, long], next_dist=dist)


def shifted_two_class_gap_rule(
    items: int, prob: float = 0.9, short=(1, 10), long=(1000, 2000),
) -> GapRule:
    """Next item is a function of both the current item and the recent gap class,
    so neither channel alone can recover the rule."""

    def dist(cur: int, cls: int) -> np.ndarray:
        target = 1 + (2 * cur + cls) % items
        p = np.full(items, (1.0 - prob) / items)
        p[target - 1] += prob
        return p

    return GapRule(gap_ranges=[short, long], next_dist=dist)


# data.synthetic.rule name -> rule for a catalogue of `items` with the rule's probability
GAP_RULES: dict[str, Callable[[int, float], GapRule]] = {
    "uniform": lambda items, prob: uniform_gap_rule(items),
    "two_class": lambda items, prob: two_class_gap_rule(items, prob=prob),
    "shifted_two_class": lambda items, prob: shifted_two_class_gap_rule(items, prob=prob),
}


@dataclass
class SyntheticSpec:
    users: int
    items: int
    length: int
    seed: int
    gap_rule: GapRule


def synthesize_dataset(spec: SyntheticSpec) -> InteractionLog:
    """Deterministic event log whose next-item law follows the planted gap rule;
    users 1..users in order, `length` chronological events each."""
    if spec.users < 1 or spec.items < 2 or spec.length < 2:
        raise DataError("synthesize_dataset: degenerate spec (need users >= 1, items >= 2, length >= 2)")
    rng = np.random.default_rng(spec.seed)
    rule = spec.gap_rule
    items: list[int] = []
    stamps: list[int] = []
    for _ in range(spec.users):
        t = int(rng.integers(0, 1_000_000))
        current = int(rng.integers(1, spec.items + 1))
        prev_cls = int(rng.integers(rule.classes))
        items.append(current)
        stamps.append(t)
        for _ in range(spec.length - 1):
            current = 1 + int(rng.choice(spec.items, p=rule.next_dist(current, prev_cls)))
            prev_cls = int(rng.integers(rule.classes))
            lo, hi = rule.gap_ranges[prev_cls]
            t += int(rng.integers(lo, hi + 1))
            items.append(current)
            stamps.append(t)
    return InteractionLog(np.repeat(np.arange(1, spec.users + 1), spec.length), items, stamps)


# batching ---------------------------------------------------------------------------


def batch_iterator(
    partition: Sequence[UserSequence],
    batch_size: int,
    n: int,
    shuffle_seed: int,
) -> Iterator[SequenceBatch]:
    """Every sequence exactly once per epoch, padded to width n, seeded order."""
    if batch_size < 1:
        raise ValueError("batch_iterator: batch_size must be >= 1")
    if not partition:
        raise DataError("batch_iterator: empty partition")
    order = np.random.default_rng(shuffle_seed).permutation(len(partition))
    for start in range(0, len(order), batch_size):
        chunk = [partition[i] for i in order[start : start + batch_size]]
        yield SequenceBatch.from_sequences([s.items for s in chunk], [s.timestamps for s in chunk], n)


def split_manifest(split: DatasetSplit) -> dict:
    """JSON-ready summary of a split, including the id remap table."""
    return {
        "stats": asdict(split.stats),
        "partitions": {
            "train": len(split.train),
            "validation": len(split.validation),
            "test": len(split.test),
        },
        "item_remap": {str(k): v for k, v in (split.item_remap or {}).items()},
    }
