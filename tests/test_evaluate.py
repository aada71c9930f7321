import dataclasses
import importlib

import numpy as np
import pytest
from conftest import random_params, tiny_config

from fuxi_alpha.data import EvalInstance
from fuxi_alpha.evaluate import compute_metrics, evaluate, metrics_records, rank_of_target
from fuxi_alpha import model as M
from fuxi_alpha.model import init_params

E = importlib.import_module("fuxi_alpha.evaluate")  # the package exports the function under the module's name


def test_rank_unique_max_is_one():
    assert rank_of_target(np.array([0.1, 0.9, 0.3]), target=1) == 1


def test_rank_counting_oracle():
    assert rank_of_target(np.array([5.0, 4.0, 3.0, 2.0]), target=2) == 3


def test_rank_tie_counts_against_target():
    assert rank_of_target(np.array([3.0, 3.0]), target=0) == 2
    assert rank_of_target(np.array([3.0, 3.0]), target=1) == 2


def test_rank_respects_exclusions():
    # excluding the better-scored item promotes the target
    assert rank_of_target(np.array([5.0, 4.0, 3.0]), target=2, excluded=[0]) == 2
    with pytest.raises(ValueError):
        rank_of_target(np.array([1.0, 2.0]), target=1, excluded=[1])
    with pytest.raises(ValueError):
        rank_of_target(np.array([1.0, 2.0]), target=5)


@pytest.mark.parametrize("target, excluded, bad", [(-1, (), -1), (4, (), 4), (1, [-1], -1), (1, [4], 4)],
                         ids=["negative_target", "large_target", "negative_excluded", "large_excluded"])
def test_rank_rejects_ids_outside_the_row(target, excluded, bad):
    # a negative id would index from the end of the row
    with pytest.raises(ValueError, match=rf"id {bad} is outside \[0, 4\)"):
        rank_of_target(np.array([0.0, 4.0, 1.0, 5.0]), target, excluded=excluded)


def test_metrics_all_rank_one():
    rep = compute_metrics([1, 1, 1], ks=[10])
    assert rep.hr[10] == 1.0 and rep.ndcg[10] == 1.0 and rep.mrr == 1.0


def test_metrics_rank_three_closed_form():
    rep = compute_metrics([3], ks=[10])
    assert abs(rep.ndcg[10] - 0.5) < 1e-12  # 1/log2(4)
    assert abs(rep.mrr - 1.0 / 3.0) < 1e-12
    assert rep.hr[10] == 1.0


def test_metrics_rank_beyond_cutoff():
    rep = compute_metrics([11], ks=[10])
    assert rep.hr[10] == 0.0 and rep.ndcg[10] == 0.0
    assert abs(rep.mrr - 1.0 / 11.0) < 1e-12


def test_metrics_reject_empty_and_bad_ranks():
    with pytest.raises(ValueError):
        compute_metrics([], ks=[10])
    with pytest.raises(ValueError):
        compute_metrics([0, 2], ks=[10])
    with pytest.raises(ValueError, match="k must be >= 1"):
        compute_metrics([1, 2], ks=[10, 0])


def test_metrics_monotone_in_k_and_mrr_bound():
    rng = np.random.default_rng(0)
    for _ in range(20):
        ranks = rng.integers(1, 50, size=30)
        rep = compute_metrics(ranks, ks=[1, 5, 10, 20, 50])
        ks = sorted(rep.hr)
        for a, b in zip(ks, ks[1:]):
            assert rep.hr[a] <= rep.hr[b]
            assert rep.ndcg[a] <= rep.ndcg[b]
        for k in ks:
            assert rep.ndcg[k] <= rep.hr[k] + 1e-12
            assert rep.mrr >= rep.hr[k] / k - 1e-12


def test_evaluate_matches_hand_computed_report():
    # no blocks: the last position's hidden state is E[last item] + p[pos]
    cfg = tiny_config(vocab=5, d=3, layers=0, n=4)
    params = init_params(cfg, "full", seed=0)
    rng = np.random.default_rng(4)
    params.item_emb.data[1:] = rng.normal(size=(4, 3))
    params.pos_emb.data[:] = rng.normal(size=(4, 3))
    instances = [
        EvalInstance(1, np.array([2, 3]), np.array([1, 2]), target=4),
        EvalInstance(2, np.array([1]), np.array([5]), target=2),
        EvalInstance(3, np.array([4, 1, 3]), np.array([1, 2, 3]), target=1),
    ]
    report = evaluate(params, instances, ks=[1, 2], cfg=cfg)

    # independent rank computation by explicit counting
    expected_ranks = []
    for inst in instances:
        h = params.item_emb.data[inst.items[-1]] + params.pos_emb.data[len(inst.items) - 1]
        scores = params.item_emb.data @ h
        rank = sum(
            1 for j in range(1, 5) if scores[j] >= scores[inst.target]
        )
        expected_ranks.append(rank)
    expected = compute_metrics(expected_ranks, ks=[1, 2])
    assert report.hr == expected.hr
    assert report.ndcg == expected.ndcg
    assert report.mrr == expected.mrr
    np.testing.assert_array_equal(report.ranks, expected_ranks)


def test_evaluate_deterministic_on_frozen_params():
    cfg = tiny_config(vocab=9, n=6)
    params = random_params(cfg, seed=5)
    rng = np.random.default_rng(6)
    instances = []
    for u in range(12):
        length = int(rng.integers(1, 5))
        items = rng.integers(1, 9, size=length)
        ts = np.cumsum(rng.integers(1, 9, size=length))
        instances.append(EvalInstance(u, items, ts, target=int(rng.integers(1, 9))))
    a = evaluate(params, instances, ks=[10], cfg=cfg)
    b = evaluate(params, instances, ks=[10], cfg=cfg)
    np.testing.assert_array_equal(a.ranks, b.ranks)
    assert a.hr == b.hr and a.mrr == b.mrr


def test_evaluate_rejects_empty_and_excluded_target():
    cfg = tiny_config()
    params = random_params(cfg)
    with pytest.raises(ValueError):
        evaluate(params, [], ks=[10], cfg=cfg)
    inst = EvalInstance(1, np.array([1]), np.array([1]), target=2)
    with pytest.raises(ValueError):
        evaluate(params, [inst], ks=[10], cfg=cfg, excluded=[2])
    empty = EvalInstance(42, np.array([], dtype=np.int64), np.array([], dtype=np.int64), target=2)
    with pytest.raises(ValueError, match="user 42"):
        evaluate(params, [inst, empty], ks=[10], cfg=cfg)
    for batch_size in (0, -3):
        with pytest.raises(ValueError, match="batch_size"):
            evaluate(params, [inst], ks=[10], cfg=cfg, batch_size=batch_size)


@pytest.mark.parametrize("target, excluded, bad, lo", [(-1, (), -1, 1), (7, (), 7, 1), (2, [-1], -1, 0), (2, [7], 7, 0)],
                         ids=["negative_target", "large_target", "negative_excluded", "large_excluded"])
def test_evaluate_rejects_ids_outside_the_catalog(target, excluded, bad, lo):
    # targets lie in [1, vocab) and excluded ids in [0, vocab); a negative id
    # would rank or exclude an item counted from the end of the catalog
    cfg = tiny_config()
    assert cfg.vocab == 7
    inst = EvalInstance(1, np.array([1]), np.array([1]), target=target)
    with pytest.raises(ValueError, match=rf"id {bad} is outside \[{lo}, 7\)"):
        evaluate(random_params(cfg), [inst], ks=[10], cfg=cfg, excluded=excluded)


def test_evaluate_truncates_long_contexts_to_recent_window():
    cfg = tiny_config(vocab=9, n=4)
    params = random_params(cfg, seed=7)
    rng = np.random.default_rng(8)
    items = rng.integers(1, 9, size=10)
    ts = np.cumsum(rng.integers(1, 20, size=10))
    long_inst = EvalInstance(1, items, ts, target=3)
    short_inst = EvalInstance(1, items[-4:], ts[-4:], target=3)
    a = evaluate(params, [long_inst], ks=[5], cfg=cfg)
    b = evaluate(params, [short_inst], ks=[5], cfg=cfg)
    np.testing.assert_array_equal(a.ranks, b.ranks)


def test_metrics_records_layout():
    rep = compute_metrics([1, 3], ks=[1, 10])
    rows = metrics_records(rep, "full", 4)
    assert ("full", 4, 1, "hr", rep.hr[1]) in rows
    assert ("full", 4, 10, "ndcg", rep.ndcg[10]) in rows
    assert rows[-1][3] == "mrr"


def _heavy_tailed_instances(cfg, count: int, seed: int) -> list[EvalInstance]:
    """Histories of 1 to n + 3 events, most of them short, in shuffled order."""
    rng = np.random.default_rng(seed)
    lengths = np.minimum(cfg.n + 3, 1 + (rng.pareto(1.0, size=count) * 2).astype(int))
    instances = []
    for u, length in enumerate(rng.permutation(lengths)):
        items = rng.integers(1, cfg.vocab, size=length)
        ts = np.cumsum(rng.integers(1, 30, size=length))
        instances.append(EvalInstance(u, items, ts, target=int(rng.integers(1, cfg.vocab))))
    return instances


def test_evaluate_chunks_by_length_and_reports_ranks_in_input_order():
    cfg = tiny_config(vocab=11, n=12, heads=2, d_h=2)
    params = random_params(cfg, seed=13)
    instances = _heavy_tailed_instances(cfg, 40, seed=14)
    report = evaluate(params, instances, ks=[5], cfg=cfg, batch_size=7)
    alone = [int(evaluate(params, [inst], ks=[5], cfg=cfg).ranks[0]) for inst in instances]
    np.testing.assert_array_equal(report.ranks, alone)


def test_evaluate_chunk_widths_do_not_decrease(monkeypatch):
    cfg = tiny_config(vocab=11, n=12)
    params = random_params(cfg, seed=15)
    instances = _heavy_tailed_instances(cfg, 40, seed=16)
    widths = []
    build = M.build_attn_context

    def spy(batch, cfg):
        widths.append(batch.items.shape[1])
        return build(batch, cfg)

    monkeypatch.setattr(M, "build_attn_context", spy)
    evaluate(params, instances, ks=[5], cfg=cfg, batch_size=6)
    assert len(widths) == 7
    assert widths == sorted(widths) and widths[0] < widths[-1] == cfg.n


def test_evaluate_checks_targets_before_any_forward_pass(monkeypatch):
    # only the longest history, ranked in the last of 7 chunks, has the excluded target
    cfg = tiny_config(vocab=11, n=12)
    params = random_params(cfg, seed=17)
    instances = [dataclasses.replace(inst, target=1) for inst in _heavy_tailed_instances(cfg, 40, seed=18)]
    longest = max(range(len(instances)), key=lambda i: len(instances[i].items))
    instances[longest] = dataclasses.replace(instances[longest], target=2)
    calls = []
    forward_hidden = E.forward_hidden

    def spy(*args, **kwargs):
        calls.append(args[0].size)
        return forward_hidden(*args, **kwargs)

    monkeypatch.setattr(E, "forward_hidden", spy)
    with pytest.raises(ValueError, match="excluded"):
        evaluate(params, instances, ks=[5], cfg=cfg, batch_size=6, excluded=[2])
    assert calls == []
