"""Tests of the input generator and of BENCHMARK.json against the code."""

import json
from pathlib import Path

import numpy as np

import gen
from layers import metric_units
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def test_same_seed_gives_byte_identical_file(tmp_path):
    a, b, c = tmp_path / "a.dat", tmp_path / "b.dat", tmp_path / "c.dat"
    gen.write_movielens(a, *gen.generate(40, seed=7))
    gen.write_movielens(b, *gen.generate(40, seed=7))
    gen.write_movielens(c, *gen.generate(40, seed=8))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_log_has_the_ml1m_shape():
    user, item, rating, ts = gen.generate(600, seed=1)
    lengths = np.bincount(user)[1:]
    assert lengths.min() >= 20 and 80 <= np.median(lengths) <= 110
    assert np.array_equal(np.unique(item), np.arange(1, gen.ITEMS + 1))  # whole catalog
    counts = np.sort(np.bincount(item)[1:])[::-1]
    assert counts[0] > 20 * counts[len(counts) // 2]  # popularity is heavy-headed
    assert set(np.unique(rating)) <= {1, 2, 3, 4, 5}
    gaps = np.concatenate([np.diff(np.sort(ts[user == u])) for u in range(1, 601)])
    assert (gaps < 64).mean() > 0.3 and (gaps >= 64).mean() > 0.3  # exact and log-spaced buckets
    long_user, *_ = gen.generate(20, seed=1, min_length=800)
    assert np.bincount(long_user)[1:].min() >= 800


def test_seeds_change_the_content_not_the_lengths():
    a = gen.history_lengths(np.random.default_rng(1), 600, 20)
    b = gen.history_lengths(np.random.default_rng(2), 600, 20)
    assert not np.array_equal(a, b) and np.array_equal(np.sort(a), np.sort(b))


def test_lines_parse_as_movielens(tmp_path):
    import fuxi_alpha as F

    path = tmp_path / "r.dat"
    lines = gen.write_movielens(path, *gen.generate(30, seed=2))
    events, remap = F.parse_interactions(path, "movielens_dat")
    assert len(events) == lines and len(remap) == gen.ITEMS


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units()
