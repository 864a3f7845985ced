"""Acceptance suite: one test per release criterion, at the stated tolerance.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
the captured output on failure) in addition to asserting, so a full run
doubles as the acceptance report.
"""

import random
import time

import numpy as np
import pytest

from conceptq.aggregate import ObjectiveWeights, gradient
from conceptq.baseline import baseline_rank
from conceptq.evaluation import (
    GroundTruth,
    fixture_f1,
    holdout_experiment,
    intpro_baseline,
    precision_at_k,
    ratio_at_k,
    recall_at_k,
)
from conceptq.expansion import (
    ExpansionModel,
    PairwiseConstraint,
)
from conceptq.pipeline import PipelineConfig
from conceptq.query import membership as query_membership
from conceptq.taxonomy import ingest

from helpers import (
    finite_difference,
    g_penalty,
    names_of,
    optimize,
    oracle_rel_naive_bayes,
    oracle_rel_noisy_or,
    planted_instance,
    random_rows,
    random_taxonomy,
    relevance,
)

F1_PAIR = ["top university", "american university"]


def report(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance criterion {number} [{label}]: {status}{suffix}")
    assert ok, f"criterion {number} ({label}) failed{suffix}"


def test_criterion_1_taxonomy_invariants():
    started = time.perf_counter()
    rng = random.Random(101)
    for _ in range(1000):
        rows = random_rows(rng, max_concepts=6, max_entities=8, max_edges=50)
        t = ingest(rows)

        # marginal sums recomputed from scratch
        t.check_marginals()
        assert t.grand_total == sum(count for _, _, count in rows)

        # entity/concept round trip
        for c in t.concept_names:
            for e in t.entities_of(c):
                assert c in t.concepts_of(e)
        for e in t.entity_names:
            for c in t.concepts_of(e):
                assert e in t.entities_of(c)

        # permutation idempotence
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert ingest(shuffled) == t

    elapsed = time.perf_counter() - started
    report(1, "taxonomy invariants", elapsed < 5.0, f"1000 streams in {elapsed:.2f}s")


def test_criterion_2_baseline_matches_eigen_oracle():
    started = time.perf_counter()
    rng = random.Random(202)
    checked = 0
    attempts = 0
    while checked < 200:
        attempts += 1
        assert attempts < 5000, "instance generator rejected too many candidates"
        n_concepts = rng.randint(2, 4)
        n_entities = rng.randint(2, 12 - n_concepts)
        rows = [
            (f"c{i}", f"e{rng.randrange(n_entities)}", 1)
            for i in range(n_concepts)
            for _ in range(rng.randint(1, n_entities))
        ]
        t = ingest(rows)
        concepts = sorted(t.concept_names)
        candidates = sorted({e for c in concepts for e in t.entities_of(c)})
        if len(candidates) < 2:
            continue

        membership = np.zeros((len(concepts), len(candidates)))
        for i, c in enumerate(concepts):
            for e in t.entities_of(c):
                membership[i, candidates.index(e)] = 1.0
        eigvals, eigvecs = np.linalg.eigh(membership.T @ membership)
        # degenerate spectra and near-tied eigenvector entries make the
        # limit ordering ill-defined; the oracle only exists away from them
        if eigvals[-1] <= 0 or eigvals[-2] / eigvals[-1] > 0.8:
            continue
        principal = eigvecs[:, -1]
        principal = principal if principal.sum() >= 0 else -principal
        principal = principal / principal.max()
        gaps = np.diff(np.sort(principal))
        if np.any(gaps < 1e-7):
            continue

        rb = baseline_rank(t, query_membership(t, concepts))
        oracle_order = sorted(
            candidates, key=lambda e: (-principal[candidates.index(e)], e)
        )
        assert rb.ordering == oracle_order
        weights = dict(zip(names_of(t, rb.ids), rb.weights.tolist()))
        for e in candidates:
            assert weights[e] == pytest.approx(
                principal[candidates.index(e)], abs=1e-6
            )
        checked += 1

    elapsed = time.perf_counter() - started
    report(2, "baseline eigen-oracle", elapsed < 10.0, f"200 instances in {elapsed:.2f}s")


def test_criterion_3_expansion_formula_oracle():
    f1 = fixture_f1()

    # frozen fixture values
    assert g_penalty(f1, "ivy league", F1_PAIR, 0.5) == pytest.approx(0.0625, rel=1e-12)
    assert g_penalty(f1, "famous university", F1_PAIR, 0.5) == pytest.approx(0.65, rel=1e-12)
    got_no = relevance(
        f1, "ivy league", ["a", "b"], F1_PAIR,
        ExpansionModel(kind="noisy_or", leak=0.0, delta=0.5),
    )
    assert got_no == pytest.approx(528 / 49, rel=1e-12)  # ~10.776
    got_nb = relevance(
        f1, "ivy league", ["a", "b"], F1_PAIR,
        ExpansionModel(kind="naive_bayes", gamma=0.5, delta=0.5),
    )
    assert got_nb == pytest.approx(50 / 63, rel=1e-12)  # ~0.7937

    # random fixtures against the brute-force oracle
    rng = random.Random(303)
    checked = 0
    while checked < 100:
        t = random_taxonomy(rng, max_concepts=5, max_entities=8, max_edges=20)
        concepts = sorted(t.concept_names)
        short = concepts[: rng.randint(1, min(3, len(concepts)))]
        pool = sorted({e for c in short for e in t.entities_of(c)})
        if not pool:
            continue
        seeds = rng.sample(pool, rng.randint(1, len(pool)))
        target = rng.choice(concepts)
        gamma = rng.uniform(0.05, 1.0)
        leak = rng.uniform(0.0, 0.9)
        delta = rng.uniform(0.05, 0.95)
        got = relevance(
            t, target, seeds, short, ExpansionModel(kind="noisy_or", leak=leak, delta=delta)
        )
        want = oracle_rel_noisy_or(t, target, seeds, short, leak, delta)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
        got = relevance(
            t, target, seeds, short,
            ExpansionModel(kind="naive_bayes", gamma=gamma, delta=delta),
        )
        want = oracle_rel_naive_bayes(t, target, seeds, short, gamma, delta)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
        checked += 1

    report(3, "expansion formula oracle", True, "fixture values + 100 random fixtures")


def test_criterion_4_gradient_matches_finite_differences():
    started = time.perf_counter()
    rng = random.Random(404)
    h = 1e-5
    for _ in range(100):
        names = [f"e{i}" for i in range(rng.randint(3, 10))]
        scores = {e: rng.gauss(0, 1.5) for e in names}
        r_b = rng.sample(names, rng.randint(2, len(names)))
        r_c = rng.sample(names, rng.randint(0, len(names)))
        if len(r_c) == 1:
            r_c = []
        r_p = []
        if len(names) >= 3 and rng.random() < 0.8:
            size = rng.randint(2, min(5, len(names)))
            members = rng.sample(names, size)
            cut = rng.randint(1, size - 1)
            r_p = [PairwiseConstraint(frozenset(members[:cut]), frozenset(members[cut:]))]
        alpha = rng.uniform(0, 0.6)
        beta = rng.uniform(0, 1.0 - alpha)
        w = ObjectiveWeights(alpha=alpha, beta=beta)

        grad = gradient(scores, r_b, r_c, r_p, w)
        for e in names:
            fd = finite_difference(scores, r_b, r_c, r_p, w, e, h)
            rel_err = abs(grad[e] - fd) / max(1e-6, abs(fd), abs(grad[e]))
            assert rel_err < 1e-4, (e, grad[e], fd)

    elapsed = time.perf_counter() - started
    report(4, "gradient vs finite differences", elapsed < 10.0, f"100 instances in {elapsed:.2f}s")


def test_criterion_5_optimizer_sanity():
    started = time.perf_counter()

    # (a) alpha = beta = 0 reproduces the baseline ordering exactly
    r_b = ["m", "a", "z", "k", "b"]
    _, ordering = optimize(r_b, [], [], weights=ObjectiveWeights(alpha=0.0, beta=0.0))
    assert ordering == r_b
    elapsed_a = time.perf_counter() - started
    report(5, "optimizer 5a baseline reproduction", elapsed_a < 5.0, f"{elapsed_a:.2f}s")

    # (b) fully consistent instance reaches the consensus (Kendall tau 1.0)
    started_b = time.perf_counter()
    consensus = [f"e{i}" for i in range(6)]
    r_p = [
        PairwiseConstraint(frozenset(consensus[:2]), frozenset(consensus[2:4])),
        PairwiseConstraint(frozenset(consensus[2:4]), frozenset(consensus[4:])),
    ]
    _, ordering = optimize(consensus, list(consensus), r_p)
    assert ordering == consensus
    elapsed_b = time.perf_counter() - started_b
    report(5, "optimizer 5b consensus tau=1.0", elapsed_b < 5.0, f"{elapsed_b:.2f}s")

    # (c) a dominating pairwise constraint overturns the baseline pair
    started_c = time.perf_counter()
    _, ordering = optimize(
        ["a", "b"],
        [],
        [PairwiseConstraint(frozenset({"b"}), frozenset({"a"}))],
        weights=ObjectiveWeights(alpha=0.0, beta=0.98),
    )
    assert ordering == ["b", "a"]
    elapsed_c = time.perf_counter() - started_c
    report(5, "optimizer 5c constraint dominates", elapsed_c < 5.0, f"{elapsed_c:.2f}s")


def test_criterion_6_holdout_recovery():
    started = time.perf_counter()
    recalls = []
    intpro_recalls = []
    for seed in range(10):
        inst = planted_instance(n_answers=10, n_modifiers=3, seed=seed)
        t = inst.build()
        rep = holdout_experiment(t, inst.query, 0.5, rng_seed=seed, k=10, config=PipelineConfig())
        recalls.append(rep.per_query[0].metrics["recall@10"])

        # Int-Pro over the same reduced taxonomy cannot return removed
        # entities: they are gone from every query concept's entity list
        removed = set(rep.per_query[0].extras["removed"])
        short = [f"{m} {inst.head}" for m in inst.modifiers]
        reduced = ingest(
            rec for rec in t.records()
            if not (rec.concept in set(short) and rec.entity in removed)
        )
        truth = GroundTruth(query=inst.query, answers=frozenset(removed))
        intpro = intpro_baseline(reduced, short, 10)
        assert not (set(intpro) & removed)
        intpro_recalls.append(recall_at_k(intpro, truth, 10))

    mean_recall = sum(recalls) / len(recalls)
    mean_intpro = sum(intpro_recalls) / len(intpro_recalls)
    elapsed = time.perf_counter() - started
    ok = mean_recall >= 0.9 and mean_recall > mean_intpro and elapsed < 30.0
    report(
        6,
        "hold-out recovery",
        ok,
        f"recall@10 {mean_recall:.2f} vs int-pro {mean_intpro:.2f} in {elapsed:.1f}s",
    )


def test_criterion_7_ratio_beats_intpro():
    ratios = []
    intpro_ratios = []
    for seed in range(10):
        inst = planted_instance(n_answers=10, n_modifiers=3, seed=seed)
        t = inst.build()
        rep = holdout_experiment(t, inst.query, 0.5, rng_seed=seed, k=10, config=PipelineConfig())
        ratios.append(rep.per_query[0].metrics["ratio@10"])

        removed = set(rep.per_query[0].extras["removed"])
        short = [f"{m} {inst.head}" for m in inst.modifiers]
        reduced = ingest(
            rec for rec in t.records()
            if not (rec.concept in set(short) and rec.entity in removed)
        )
        reduced_intersection = set(rep.per_query[0].extras["reduced_intersection"])
        intpro_ratios.append(
            ratio_at_k(intpro_baseline(reduced, short, 10), reduced_intersection)
        )

    mean_ratio = sum(ratios) / len(ratios)
    mean_intpro = sum(intpro_ratios) / len(intpro_ratios)
    ok = mean_ratio > mean_intpro and mean_intpro == 0.0
    report(7, "ratio@10 beats int-pro", ok, f"{mean_ratio:.2f} vs {mean_intpro:.2f}")


def test_criterion_8_metric_unit_values():
    truth = GroundTruth(query="q", answers=frozenset({"a", "c"}))

    # precision@k
    assert precision_at_k(["a", "b", "c"], truth, 2) == 0.5
    sub_truth = GroundTruth(query="q", answers=frozenset({"a", "b", "c", "d"}))
    for k in (1, 2, 3):
        assert precision_at_k(["a", "b", "c"], sub_truth, k) == 1.0
    assert precision_at_k([], truth, 3) == 0.0

    # recall@k
    assert recall_at_k(["a", "b", "c"], truth, 2) == 0.5
    assert recall_at_k(["a", "b", "c"], sub_truth, 3) == pytest.approx(3 / 4)
    assert recall_at_k(["a", "c"], truth, 5) == 1.0
    assert recall_at_k(["x", "y"], truth, 2) == 0.0

    # ratio@k
    assert ratio_at_k(["n1", "n2", "o1"], {"o1", "o2", "o3"}) == 0.5
    assert ratio_at_k(["o1", "o2"], {"o1", "o2", "o3"}) == 0.0
    assert ratio_at_k(["n1", "n2", "n3", "n4", "n5"], set()) == 5.0

    report(8, "metric unit values", True)
