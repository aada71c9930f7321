import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from fuxi_alpha.data import (
    DataError,
    InteractionLog,
    SyntheticSpec,
    batch_iterator,
    build_sequences,
    parse_interactions,
    split_leave_last,
    split_manifest,
    synthesize_dataset,
    two_class_gap_rule,
    uniform_gap_rule,
)

SAMPLE = Path(__file__).parent / "data" / "sample.dat"

ML1M_PATH = os.environ.get("FUXI_ML1M", "data/ml-1m/ratings.dat")


def _log(rows):
    """InteractionLog from (user, item, timestamp) rows in file order."""
    return InteractionLog(*np.array(rows, dtype=np.int64).reshape(-1, 3).T)


def _same_log(a, b):
    return all(np.array_equal(x, y) for x, y in ((a.user, b.user), (a.item, b.item), (a.timestamp, b.timestamp)))


def test_parse_movielens_sample_file():
    log, remap = parse_interactions(SAMPLE, "movielens_dat")
    assert len(log) == 8
    # original ids remap densely onto [1, |I|], 0 reserved for padding
    assert sorted(remap.values()) == list(range(1, 8))
    assert log.user[0] == 1  # user 1 sorts first
    assert log.item[0] == remap[1193]
    assert log.timestamp[0] == 978300760
    assert min(remap.values()) == 1
    assert all(col.dtype == np.int64 for col in (log.user, log.item, log.timestamp))


def test_parse_is_idempotent():
    a, ra = parse_interactions(SAMPLE, "movielens_dat")
    b, rb = parse_interactions(SAMPLE, "movielens_dat")
    assert _same_log(a, b) and ra == rb


def test_parse_rejects_malformed_line(tmp_path):
    p = tmp_path / "bad.dat"
    p.write_text("1::2::3::4\n5::6::7\n")
    with pytest.raises(DataError) as exc:
        parse_interactions(p, "movielens_dat")
    assert "line 2" in str(exc.value)


def test_parse_rejects_empty_file(tmp_path):
    p = tmp_path / "empty.dat"
    p.write_text("")
    with pytest.raises(DataError):
        parse_interactions(p, "movielens_dat")


def test_parse_csv_format(tmp_path):
    p = tmp_path / "log.csv"
    p.write_text("user,item,timestamp,rating\n9,100,50,4.5\n9,200,60\n7,100,10\n")
    log, remap = parse_interactions(p, "csv")
    assert len(log) == 3
    assert list(log.user) == [2, 2, 1]  # user 7 sorts before user 9
    assert set(remap.keys()) == {100, 200}


@pytest.mark.parametrize(
    "format, text, message",
    [
        ("csv", "user,item,timestamp,rating\n1,10,5,4.5\n1,20,6,good\n", "line 3"),
        ("movielens_dat", "1::10::4::5\n1::20::x::6\n", "line 2"),
        ("movielens_dat", f"1::10::4::5\n{2**63}::20::4::6\n", "64 bits"),
    ],
)
def test_parse_checks_fields_it_does_not_keep(tmp_path, format, text, message):
    p = tmp_path / "log.txt"
    p.write_text(text)
    with pytest.raises(DataError, match=message):
        parse_interactions(p, format)


def test_parse_unknown_format():
    with pytest.raises(DataError):
        parse_interactions(SAMPLE, "parquet")


@pytest.mark.skipif(not Path(ML1M_PATH).exists(), reason="MovieLens-1M not present")
def test_movielens_1m_ingest_statistics():
    log, remap = parse_interactions(ML1M_PATH, "movielens_dat")
    assert len(log) == 1_000_209
    assert len(remap) == 3_706
    seqs = build_sequences(log, n=10**9)
    assert len(seqs) == 6_040
    mean_len = sum(s.raw_length for s in seqs) / len(seqs)
    assert abs(mean_len - 165.60) < 0.01


def test_build_sequences_sorts_by_timestamp():
    seqs = build_sequences(_log([(1, 3, 50), (1, 1, 10), (1, 2, 30)]), n=10)
    assert list(seqs[0].items) == [1, 2, 3]
    assert list(seqs[0].timestamps) == [10, 30, 50]


def test_build_sequences_stable_on_timestamp_ties():
    seqs = build_sequences(_log([(1, 7, 10), (1, 8, 10), (1, 9, 10)]), n=10)
    assert list(seqs[0].items) == [7, 8, 9]  # file order preserved


def test_build_sequences_truncates_to_most_recent():
    log = _log([(1, i + 1, 10 * i) for i in range(9)])  # n + 5 with n = 4
    seqs = build_sequences(log, n=4)
    assert list(seqs[0].items) == [6, 7, 8, 9]
    assert seqs[0].raw_length == 9


@pytest.mark.parametrize("n", [0, -3])
def test_build_sequences_rejects_nonpositive_n(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        build_sequences(_log([(1, 1, 1), (1, 2, 2)]), n=n)


def _shuffled_rows(seed, users=30):
    """(user, item, timestamp) rows of users with non-contiguous ids and many
    timestamp ties, the lines of every user in shuffled order and the users
    interleaved, as ML-1M and perfbench's generator do not store logs
    chronologically."""
    rng = np.random.default_rng(seed)
    rows = []
    for user in rng.choice(10_000, size=users, replace=False) + 1:
        length = int(rng.integers(1, 25))
        ts = 1_000 + np.cumsum(rng.integers(0, 3, size=length))  # gaps of 0 make ties
        items = rng.choice(500, size=length, replace=False) + 1
        rows += [(int(user), int(i), int(t)) for i, t in zip(items, ts)]
    return [rows[i] for i in rng.permutation(len(rows))]


def _reference_sequences(log, n):
    """The per-user dict and `sorted` loop: (user, items, timestamps, raw_length)."""
    by_user = {}
    for user, item, ts in zip(log.user.tolist(), log.item.tolist(), log.timestamp.tolist()):
        by_user.setdefault(user, []).append((ts, item))
    out = []
    for user in sorted(by_user):
        rows = sorted(by_user[user], key=lambda row: row[0])  # stable: ties keep file order
        out.append((user, [i for _, i in rows][-n:], [t for t, _ in rows][-n:], len(rows)))
    return out


def _as_tuples(seqs):
    return [(s.user, s.items.tolist(), s.timestamps.tolist(), s.raw_length) for s in seqs]


def test_build_sequences_matches_the_per_user_loop():
    log = _log(_shuffled_rows(seed=7))
    for n in (1, 3, 10**9):
        assert _as_tuples(build_sequences(log, n)) == _reference_sequences(log, n)


def test_build_sequences_orders_non_contiguous_users():
    log = _log([(40, 1, 5), (7, 2, 3), (40, 3, 1), (1000, 4, 9), (7, 5, 3)])
    seqs = build_sequences(log, n=1)
    assert [(s.user, s.raw_length, s.items.tolist()) for s in seqs] == [(7, 2, [5]), (40, 2, [1]), (1000, 1, [4])]


def test_csv_and_movielens_logs_of_the_same_events_agree(tmp_path):
    rows = _shuffled_rows(seed=5)
    dat, csv = tmp_path / "log.dat", tmp_path / "log.csv"
    dat.write_text("".join(f"{u}::{i}::{1 + (u + i) % 5}::{t}\n" for u, i, t in rows))
    csv.write_text("user,item,timestamp,rating\n" + "".join(f"{u},{i},{t},4.5\n" for u, i, t in rows))
    (a, remap), (b, remap_b) = parse_interactions(dat, "movielens_dat"), parse_interactions(csv, "csv")
    assert len(a) == len(rows) and _same_log(a, b) and remap == remap_b
    # chronological per user, ties in file order
    assert _as_tuples(build_sequences(a, 8)) == _reference_sequences(a, 8)
    split, split_b = (split_leave_last(build_sequences(log, 8), remap) for log in (a, b))
    assert split_manifest(split) == split_manifest(split_b)
    for part in ("train", "validation", "test"):
        for x, y in zip(getattr(split, part), getattr(split_b, part), strict=True):
            assert all(np.array_equal(vars(x)[key], vars(y)[key]) for key in vars(x))


def test_split_leave_last_rule():
    log = _log([(1, item, t) for item, t in [(5, 1), (6, 2), (7, 3), (8, 4)]])
    split = split_leave_last(build_sequences(log, n=10))
    assert list(split.train[0].items) == [5, 6]
    assert list(split.validation[0].items) == [5, 6] and split.validation[0].target == 7
    assert list(split.test[0].items) == [5, 6, 7] and split.test[0].target == 8


def test_split_drops_short_users_and_counts_them():
    log = _log([
        (1, 1, 1),
        (1, 2, 2),  # only 2 interactions: dropped
        (2, 1, 1),
        (2, 2, 2),
        (2, 3, 3),
    ])
    split = split_leave_last(build_sequences(log, n=10))
    assert split.stats.dropped_users == 1
    assert split.stats.users == 1


def test_split_rejects_all_short():
    with pytest.raises(DataError):
        split_leave_last(build_sequences(_log([(1, 1, 1), (1, 2, 2)]), n=10))


def test_split_partitions_100_user_synthetic_exhaustively():
    spec = SyntheticSpec(users=100, items=12, length=8, seed=3, gap_rule=uniform_gap_rule(12))
    seqs = build_sequences(synthesize_dataset(spec), n=20)
    split = split_leave_last(seqs)
    assert len(split.train) == len(split.validation) == len(split.test) == 100
    for seq, tr, va, te in zip(seqs, split.train, split.validation, split.test):
        assert list(tr.items) == list(seq.items[:-2])
        assert va.target == seq.items[-2] and list(va.items) == list(seq.items[:-2])
        assert te.target == seq.items[-1] and list(te.items) == list(seq.items[:-1])
        # the two held-out targets never appear as training targets
        assert len(tr.items) + 2 == len(seq.items)


def test_synthetic_deterministic_for_seed():
    spec = SyntheticSpec(users=5, items=6, length=10, seed=42, gap_rule=uniform_gap_rule(6))
    a, b = synthesize_dataset(spec), synthesize_dataset(spec)
    assert len(a) == 5 * 10 and _same_log(a, b)
    assert list(a.user) == [u for u in range(1, 6) for _ in range(10)]


def test_synthetic_rejects_degenerate_spec():
    with pytest.raises(DataError):
        synthesize_dataset(SyntheticSpec(users=0, items=5, length=5, seed=0, gap_rule=uniform_gap_rule(5)))


def _observable_draws(log):
    """(gap class, next item) pairs recoverable from the emitted log."""
    for user in np.unique(log.user):
        ts, items = log.timestamp[log.user == user], log.item[log.user == user]
        for i in range(1, len(items) - 1):
            gap = ts[i] - ts[i - 1]
            cls = 0 if gap <= 10 else 1
            yield cls, int(items[i + 1])


def test_synthetic_uniform_rule_yields_uniform_next_items():
    items = 8
    spec = SyntheticSpec(users=60, items=items, length=40, seed=1, gap_rule=uniform_gap_rule(items))
    counts = Counter(item for _, item in _observable_draws(synthesize_dataset(spec)))
    total = sum(counts.values())
    for item in range(1, items + 1):
        assert abs(counts[item] / total - 1.0 / items) < 0.05


def test_synthetic_two_class_rule_frequencies():
    items = 10
    rule = two_class_gap_rule(items, item_a=3, item_b=7, prob=0.9)
    spec = SyntheticSpec(users=60, items=items, length=40, seed=2, gap_rule=rule)
    per_class = {0: Counter(), 1: Counter()}
    for cls, item in _observable_draws(synthesize_dataset(spec)):
        per_class[cls][item] += 1
    for cls, favored in ((0, 3), (1, 7)):
        total = sum(per_class[cls].values())
        assert total >= 1000
        assert abs(per_class[cls][favored] / total - 0.9) < 0.05


def test_batch_iterator_sizes_and_multiset():
    spec = SyntheticSpec(users=10, items=5, length=6, seed=0, gap_rule=uniform_gap_rule(5))
    seqs = build_sequences(synthesize_dataset(spec), n=6)
    batches = list(batch_iterator(seqs, batch_size=4, n=6, shuffle_seed=9))
    assert [b.size for b in batches] == [4, 4, 2]
    seen = Counter()
    for b in batches:
        for row in range(b.size):
            length = int(b.valid_len[row])
            seen[tuple(b.items[row, :length])] += 1
    expected = Counter(tuple(s.items) for s in seqs)
    assert seen == expected


def test_batch_iterator_deterministic_order():
    spec = SyntheticSpec(users=12, items=5, length=5, seed=0, gap_rule=uniform_gap_rule(5))
    seqs = build_sequences(synthesize_dataset(spec), n=5)
    a = [b.items.copy() for b in batch_iterator(seqs, 5, 5, shuffle_seed=4)]
    b = [b.items.copy() for b in batch_iterator(seqs, 5, 5, shuffle_seed=4)]
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_batch_iterator_rejects_bad_args():
    spec = SyntheticSpec(users=3, items=5, length=5, seed=0, gap_rule=uniform_gap_rule(5))
    seqs = build_sequences(synthesize_dataset(spec), n=5)
    with pytest.raises(ValueError):
        list(batch_iterator(seqs, 0, 5, 0))
    with pytest.raises(DataError):
        list(batch_iterator([], 2, 5, 0))


def test_remapped_ids_contiguous():
    log, remap = parse_interactions(SAMPLE, "movielens_dat")
    ids = set(log.item.tolist())
    assert ids == set(range(1, len(remap) + 1))
    assert 0 not in ids
