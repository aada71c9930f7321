"""Dataset ingestion, chronological sequences, splits, batching, and a synthetic
generator with planted temporal structure."""

from __future__ import annotations

import csv as _csv
import re
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

# movielens_dat is parsed in blocks of whole lines, an eighth of the file but
# 64 KiB to 1 MiB: a block's scratch arrays take about 13 bytes per byte, so
# under 2x the file on a small file and about 14 MB on a large one
_BLOCK_BYTES = (1 << 16, 1 << 20)
_MAX_DIGITS = 18        # 10**18 - 1 < 2**63: fields of up to 18 digits convert exactly in int64
_FIELDS = ("user", "item", "rating", "timestamp")
_DIGITS = re.compile("[0-9]+")
_RATING = re.compile(r"[0-9]+(?:\.[0-9]+)?")


def _int64(digits: str) -> int | None:
    """The value of a string of ASCII digits, or None if it is 2**63 or more."""
    digits = digits.lstrip("0") or "0"
    value = int(digits) if len(digits) <= 19 else 2**63
    return value if value < 2**63 else None


def _field_error(name: str, field: str) -> str | None:
    """Why one field of a `movielens_dat` line is malformed, or None if it is not."""
    if name == "rating":
        return None if _RATING.fullmatch(field) else f"rating {field!r} is not digits with at most one inner '.'"
    if not _DIGITS.fullmatch(field):
        return f"{name} {field!r} is not ASCII decimal digits"
    return None if _int64(field) is not None else f"{name} {field} does not fit in 64 bits"


def _line_error(line: bytes) -> str:
    """Why one non-empty `movielens_dat` line, without its terminator, is malformed."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as e:
        return f"not UTF-8 text: {e}"
    if "\r" in text:
        return "a '\\r' that is not followed by '\\n' does not end a line"
    fields = text.split("::")
    if len(fields) != 4:
        return f"expected 4 '::'-separated fields, got {len(fields)}"
    errors = (_field_error(name, field) for name, field in zip(_FIELDS, fields))
    return next(filter(None, errors), "not a user::item::rating::timestamp line")


def _column(b: np.ndarray, start: np.ndarray, stop: np.ndarray, name: str):
    """Check the fields b[start:stop] of one column; return their values (None
    for ratings, which are not kept) and a mask of the malformed fields.

    The last w <= 18 bytes of every field are gathered into one [w, F] array;
    the rare longer field is checked and converted on its own.
    """
    length = stop - start
    w = int(min(length.max(initial=1), _MAX_DIGITS))
    offsets = np.arange(-w, 0)[:, None]
    inside = offsets >= -length
    at = stop + offsets
    d = b[np.maximum(at, 0, out=at)]
    rating = name == "rating"
    if rating:
        point = (d == ord(".")) & inside
    d -= ord("0")  # uint8 wraps: a non-digit byte reads > 9
    d *= inside  # bytes left of a field read as leading zeros
    nondigit = d > 9
    if rating:
        leading = point[np.clip(w - length, 0, w - 1), np.arange(len(length))]
        bad = (nondigit & ~point).any(0) | (point.sum(0) > 1) | leading | point[-1]
        values = None
    else:
        bad = nondigit.any(0)
        values = np.zeros(len(length), np.int64)
        for digit in d:  # Horner's rule over the digit positions
            values *= 10
            values += digit
    bad |= length < 1
    for k in np.flatnonzero(length > w):
        text = b[start[k] : stop[k]].tobytes().decode("latin-1")
        bad[k] = _field_error(name, text) is not None
        if not (rating or bad[k]):
            values[k] = _int64(text)
    return values, bad


def _parse_block(b: np.ndarray) -> tuple[tuple[np.ndarray, ...], int | None]:
    r"""Parse whole `movielens_dat` lines, each ending in b"\n": the user, item
    and timestamp columns of the non-empty lines, and the offset of the first
    malformed line (None if there is none)."""
    colon = b == ord(":")
    ends = b == ord("\n")
    ends[:-1] |= colon[:-1] & colon[1:]  # a field ends at "\n" or at the first colon of "::"
    term = np.flatnonzero(ends)
    line_end = np.flatnonzero(b[term] == ord("\n"))  # which field ends are line ends
    lf = term[line_end]
    start = np.concatenate(([0], lf[:-1] + 1))
    stop = lf - (b[lf - 1] == ord("\r"))  # b[-1] is b"\n", so an empty first line has no "\r"
    seps = np.diff(line_end, prepend=-1) - 1  # ":::" counts as two
    nonempty = stop > start
    bad = nonempty & (seps != 3)
    ok = nonempty & (seps == 3)
    s1, s2, s3 = (term[line_end[ok] - k] for k in (3, 2, 1))
    user, bad_user = _column(b, start[ok], s1, "user")
    item, bad_item = _column(b, s1 + 2, s2, "item")
    _, bad_rating = _column(b, s2 + 2, s3, "rating")
    ts, bad_ts = _column(b, s3 + 2, stop[ok], "timestamp")
    bad[ok] = bad_user | bad_item | bad_rating | bad_ts
    return (user, item, ts), int(start[bad.argmax()]) if bad.any() else None


def _parse_movielens(data: bytes) -> InteractionLog:
    """Parse a whole `movielens_dat` file, block by block of whole lines."""
    buf = np.frombuffer(data, np.uint8)
    out = [np.empty(data.count(b"\n") + 1, np.int64) for _ in range(3)]  # one array each, so none pins the others
    block_bytes = min(max(len(data) // 8, _BLOCK_BYTES[0]), _BLOCK_BYTES[1])
    rows = pos = 0
    while pos < len(data):
        end = data.find(b"\n", pos + block_bytes) + 1 or len(data)
        block = buf[pos:end]
        if block[-1] != ord("\n"):
            # the last line has no terminator; "\r\n" is stripped like any
            # other, so a lone "\r" of its own stays in the line and fails it
            block = np.append(block, np.frombuffer(b"\r\n", np.uint8))
        cols, bad = _parse_block(block)
        if bad is not None:
            at = pos + bad
            nl = data.find(b"\n", at)
            line = data[at:] if nl < 0 else data[at:nl].removesuffix(b"\r")
            ln = data.count(b"\n", 0, at) + 1
            raise DataError(f"line {ln}: {_line_error(line)}")
        for col, values in zip(out, cols):
            col[rows : rows + len(values)] = values
        rows += len(values)
        pos = end
    return InteractionLog(*(col[:rows] for col in out))


def _parse_csv(path: str | Path) -> InteractionLog:
    users: list[int] = []
    items: list[int] = []
    stamps: list[int] = []
    with open(path, newline="", encoding="utf-8") as fh:
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
            if ts < 0:
                raise DataError(f"line {ln}: negative timestamp {ts}")
            if not (-(2**63) <= user < 2**63 and -(2**63) <= item < 2**63 and ts < 2**63):
                raise DataError(f"line {ln}: an id or timestamp does not fit in 64 bits")
            users.append(user)
            items.append(item)
            stamps.append(ts)
    return InteractionLog(users, items, stamps)


def parse_interactions(path: str | Path, format: str) -> tuple[InteractionLog, dict[int, int]]:
    r"""Read an interaction log and densely remap ids; 0 stays reserved for padding.

    Returns the remapped events in file order plus the original-item-id ->
    dense-id table. Ratings are checked but not kept. Every malformed line is
    a `DataError` "line N: ..." naming the first such line.

    `movielens_dat` is read as bytes and parsed with array operations. Each
    line is `U::I::R::T`, ending in "\n" or "\r\n" (the last line may have no
    terminator); empty lines are skipped but counted. U, I and T are ASCII
    decimal digits below 2**63, leading zeros allowed; R is digits with at most
    one '.' between digits. Nothing else is accepted: no whitespace around a
    field or on an otherwise empty line, no sign, no '_' separator, no
    non-ASCII digit, no rating such as "nan", "1e3", ".5" or "5.", no lone "\r"
    line end. A file that passes is ASCII and so UTF-8; a rejected line that is
    not UTF-8 is reported as such.

    `csv` is UTF-8 text read with the csv module: a `user,item,timestamp[,rating]`
    header, then rows whose fields Python's `int` (and `float`, for a rating)
    accepts, with a timestamp in [0, 2**63) and ids that fit in int64.
    """
    if not Path(path).is_file():
        raise DataError(f"dataset file not found: {str(path)!r}")
    if format not in FORMATS:
        raise DataError(f"unknown format {format!r}; expected one of {FORMATS}")
    if format == "movielens_dat":
        raw = _parse_movielens(Path(path).read_bytes())
    else:
        try:
            raw = _parse_csv(path)
        except UnicodeDecodeError as e:
            raise DataError(f"{path} is not UTF-8 text: {e}") from None
    if not len(raw):
        raise DataError(f"no events parsed from {path}")

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
