import io
import os
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import reference_movielens_line, reference_parse_movielens

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
    for text in (b"", b"\n\n\r\n\n"):  # no lines, or empty lines only
        p.write_bytes(text)
        with pytest.raises(DataError, match="no events"):
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
        ("csv", "user,item,timestamp\n1,10,5\n1,20,-6\n", "line 3: negative timestamp"),
        ("csv", f"user,item,timestamp\n1,10,5\n1,{2**63},6\n", "line 3: .*64 bits"),
        ("movielens_dat", "1::10::4::5\n1::20::x::6\n", "line 2"),
        ("movielens_dat", f"1::10::4::5\n{2**63}::20::4::6\n", "64 bits"),
    ],
)
def test_parse_checks_fields_it_does_not_keep(tmp_path, format, text, message):
    p = tmp_path / "log.txt"
    p.write_text(text)
    with pytest.raises(DataError, match=message):
        parse_interactions(p, format)


# movielens_dat grammar: the array parse against the loop transcription in conftest


def _outcome(parse, path):
    try:
        return parse(path)
    except DataError as e:
        return e


def _line_of(outcome) -> int | None:
    m = re.match(r"line (\d+): ", str(outcome)) if isinstance(outcome, DataError) else None
    return int(m.group(1)) if m else None


_LINE = re.compile(rb"([0-9]+)::([0-9]+)::[0-9]+(?:\.[0-9]+)?::([0-9]+)")


def _below_2_63(digits: bytes) -> bool:
    digits = digits.lstrip(b"0")
    return len(digits) <= 19 and int(digits or b"0") < 2**63


def _first_bad_line(data: bytes) -> int | None:
    """The first non-empty line outside the grammar, counting lines as the
    new parser does: "\n" or "\r\n" ends a line, the last needs no terminator."""
    *ended, last = data.split(b"\n")
    lines = [line.removesuffix(b"\r") for line in ended] + ([last] if last else [])
    for ln, line in enumerate(lines, start=1):
        m = _LINE.fullmatch(line)
        if line and not (m and all(_below_2_63(g) for g in m.groups())):
            return ln
    return None


def _old_parser_accepts_line(data: bytes, ln: int) -> bool:
    """Whether the loop transcription, which splits lines on a lone "\r" too, takes line ln."""
    line = list(io.StringIO(data.decode("utf-8"), newline=""))[ln - 1].strip()
    try:
        if line:
            reference_movielens_line(line, ln)
    except DataError:
        return False
    return True


def _check_against_reference(path: Path) -> str:
    """Parse path both ways and check one of the allowed relations; return its name."""
    data = path.read_bytes()
    old, new = _outcome(reference_parse_movielens, path), _outcome(lambda p: parse_interactions(p, "movielens_dat"), path)
    if not isinstance(new, DataError):
        assert _first_bad_line(data) is None
        assert not isinstance(old, DataError), old
        assert _same_log(old[0], new[0]) and old[1] == new[1]
        return "same columns"
    ln = _line_of(new)
    assert ln is not None and ln == _first_bad_line(data), (new, _first_bad_line(data))
    if ln == _line_of(old):
        return "same line"
    # the old parser took line ln and failed later, or without a line, or not at all
    assert _old_parser_accepts_line(data, ln)
    assert _line_of(old) is None or _line_of(old) > ln
    if "64 bits" in str(new):
        return "overflow at its line"
    return "narrowed form"


def _gen_lines(rng, count: int) -> list[str]:
    """Lines shaped like the generated benchmark logs, some ratings with a decimal."""
    users = np.sort(rng.integers(1, 50, size=count))
    items = rng.integers(1, 4000, size=count)
    ratings = rng.choice(["1", "2", "3", "4", "5", "3.5", "0.5"], size=count)
    stamps = 956_703_932 + rng.integers(0, 10**8, size=count)
    return [f"{u}::{i}::{r}::{t}" for u, i, r, t in zip(users, items, ratings, stamps)]


def _with_field(line: str, k: int, value: str) -> str:
    fields = line.split("::")
    fields[k] = value
    return "::".join(fields)


def _random_field(rng, line: str, edit) -> str:
    k = int(rng.choice([0, 1, 3]))
    return _with_field(line, k, edit(line.split("::")[k]))


# an edit takes (rng, line) and returns the text that replaces it (one or more lines)
LINE_EDITS = {
    "crlf": lambda rng, line: line + "\r",
    "empty_line_before": lambda rng, line: "\n" + line,
    "empty_crlf_line_before": lambda rng, line: "\r\n" + line,
    "leading_zeros": lambda rng, line: _random_field(rng, line, lambda f: "000" + f),
    "largest_int64": lambda rng, line: _random_field(rng, line, lambda f: str(2**63 - 1)),
    "int64_overflow": lambda rng, line: _random_field(rng, line, lambda f: str(2**63)),
    "huge_number": lambda rng, line: _random_field(rng, line, lambda f: "9" * 40),
    "long_leading_zeros": lambda rng, line: _random_field(rng, line, lambda f: "0" * 30 + f),
    "long_rating": lambda rng, line: _with_field(line, 2, "3." + "0" * 30),
    "missing_field": lambda rng, line: line.rsplit("::", 1)[0],
    "extra_field": lambda rng, line: line + "::5",
    "empty_field": lambda rng, line: _with_field(line, 1, ""),
    "triple_colon": lambda rng, line: line.replace("::", ":::", 1),
    "single_colon": lambda rng, line: line.replace("::", ":", 1),
    "space_around_field": lambda rng, line: _random_field(rng, line, lambda f: rng.choice([" ", "\t"]) + f + " "),
    "whitespace_line": lambda rng, line: " \t\n" + line,
    "sign": lambda rng, line: _random_field(rng, line, lambda f: rng.choice(["+", "-"]) + f),
    "underscore": lambda rng, line: _with_field(line, 3, line.split("::")[3][:3] + "_" + line.split("::")[3][3:]),
    "non_ascii_digit": lambda rng, line: _random_field(rng, line, lambda f: f[:-1] + rng.choice(["٣", "３"])),
    "rating_float_form": lambda rng, line: _with_field(line, 2, rng.choice(["nan", "inf", "1e3", ".5", "5.", "3.0.1"])),
    "lone_cr": lambda rng, line: line + "\r" + line,
    "junk": lambda rng, line: _random_field(rng, line, lambda f: "x"),
}


def _edited_log(rng, count: int, edits: int) -> str:
    lines = _gen_lines(rng, count)
    for _ in range(edits):
        at = int(rng.integers(count))
        lines[at] = LINE_EDITS[rng.choice(list(LINE_EDITS))](rng, lines[at])
    head = "\n" * int(rng.integers(0, 2))
    tail = rng.choice(["", "\n", "\r\n", "\n\n"])
    return head + "\n".join(lines) + tail


def test_array_parse_agrees_with_the_loop_transcription(tmp_path):
    rng = np.random.default_rng(14)
    path = tmp_path / "log.dat"
    seen = Counter()
    # small logs with up to three edits, then logs of several parse blocks with one
    for count, edits, files in ((40, 0, 10), (40, 1, 200), (40, 3, 100), (12_000, 1, 6)):
        for _ in range(files):
            path.write_bytes(_edited_log(rng, count, edits).encode("utf-8"))
            seen[_check_against_reference(path)] += 1
    assert set(seen) == {"same columns", "same line", "overflow at its line", "narrowed form"}, seen


@pytest.mark.parametrize(
    "text",
    [
        "1::10::4::5\r\n2::20::3::6\r\n",
        "\n\n1::10::4::5\n\n\n2::20::3::6\n\n",
        "1::10::4::5\n2::20::3::6",
        "1::10::4::5\r\n2::20::3::6",
        "0001::010::4.50::0005\n",
        f"{2**63 - 1}::{2**63 - 1}::4::{2**63 - 1}\n",
        "1::10::" + "0" * 40 + "4::" + "0" * 40 + "5\n",
    ],
    ids=["crlf", "empty_lines", "no_final_newline", "crlf_no_final_newline", "leading_zeros", "largest_int64", "long_fields"],
)
def test_movielens_forms_that_parse(tmp_path, text):
    path = tmp_path / "log.dat"
    path.write_bytes(text.encode())
    assert _check_against_reference(path) == "same columns"


@pytest.mark.parametrize(
    "line, relation, message",
    [
        (f"{2**63}::20::4::6", "overflow at its line", f"user {2**63} does not fit in 64 bits"),
        ("1::20::4::" + "9" * 40, "overflow at its line", "timestamp " + "9" * 40 + " does not fit in 64 bits"),
        ("1::::4::5", "same line", "item '' is not ASCII decimal digits"),
        ("::20::4::6", "same line", "user '' is not ASCII decimal digits"),
        ("1::20::4::", "same line", "timestamp '' is not ASCII decimal digits"),
        ("1:::20::4", "same line", "expected 4 '::'-separated fields, got 3"),
        ("1::20::4::6::7", "same line", "expected 4 '::'-separated fields, got 5"),
        ("1::20::4", "same line", "expected 4 '::'-separated fields, got 3"),
        (" 1::20::4::6", "narrowed form", "user ' 1' is not ASCII decimal digits"),
        ("1::20 ::4::6", "narrowed form", "item '20 ' is not"),
        ("1::20::4::6\t", "narrowed form", "timestamp '6\\t' is not"),
        ("   ", "narrowed form", "expected 4 '::'-separated fields, got 1"),
        ("+1::20::4::6", "narrowed form", "user '+1' is not"),
        ("1::-20::4::6", "narrowed form", "item '-20' is not"),
        ("1::20::4::-6", "narrowed form", "timestamp '-6' is not"),
        ("1::20::+4::6", "narrowed form", "rating '+4' is not digits with at most one inner '.'"),
        ("1::20::4::1_000", "narrowed form", "timestamp '1_000' is not"),
        ("1::2\u0660::4::6", "narrowed form", "item '2\u0660' is not"),
        ("1::20::nan::6", "narrowed form", "rating 'nan' is not"),
        ("1::20::1e3::6", "narrowed form", "rating '1e3' is not"),
        ("1::20::.5::6", "narrowed form", "rating '.5' is not"),
        ("1::20::5.::6", "narrowed form", "rating '5.' is not"),
        ("1::20::4::6\r1::30::4::7", "narrowed form", "a '\\r' that is not followed by '\\n' does not end a line"),
    ],
    ids=[
        "int64_overflow", "huge_timestamp", "empty_field", "empty_first_field", "empty_last_field",
        "triple_colon_three_separators", "five_fields", "three_fields",
        "space_before", "space_after", "tab_after", "whitespace_line", "plus_sign", "minus_id", "negative_timestamp",
        "signed_rating", "underscore", "non_ascii_digit", "rating_nan", "rating_exponent", "rating_no_integer_part",
        "rating_no_fraction", "lone_cr",
    ],
)
def test_movielens_forms_that_fail_name_their_line(tmp_path, line, relation, message):
    path = tmp_path / "log.dat"
    path.write_bytes(f"1::10::4::5\n\n{line}\n3::30::4::7\n".encode())
    assert _check_against_reference(path) == relation
    with pytest.raises(DataError, match="^" + re.escape(f"line 3: {message}")):
        parse_interactions(path, "movielens_dat")


def test_field_longer_than_python_int_parsing_allows_is_an_overflow(tmp_path):
    path = tmp_path / "log.dat"
    path.write_bytes(b"1::10::4::5\n1::20::4::" + b"9" * 5000 + b"\n")
    assert _check_against_reference(path) == "same line"  # the loop fails on Python's int digit limit
    with pytest.raises(DataError, match="^line 2: timestamp 9+ does not fit in 64 bits"):
        parse_interactions(path, "movielens_dat")


def test_lone_cr_at_the_end_of_the_file_fails(tmp_path):
    path = tmp_path / "log.dat"
    path.write_bytes(b"1::10::4::5\n1::20::4::6\r")
    assert _check_against_reference(path) == "narrowed form"


def test_line_that_is_not_utf8_is_named(tmp_path):
    with pytest.raises(DataError, match="^line 3: not UTF-8 text"):
        parse_interactions(Path(__file__).parent / "data" / "not_utf8.dat", "movielens_dat")


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
