"""Evaluation: rank metrics, the intersection baseline, and hold-out runs.

Metrics follow the usual top-k conventions. With a ranked list of n_r
entities and a ground truth of n_g answers:

    precision@k = |top-k intersect answers| / min(k, n_r)
    recall@k    = |top-k intersect answers| / n_g
    ratio@k     = |{e in top-k : e not in I}| / (|I| + 1)

where I is the entity intersection of the query's short concepts. ratio@k
measures the ability to surface entities the plain intersection could never
return. One scorer, ``_score``, computes all three for a hold-out run and a
truth-file run alike, from the names of the run's top max(k) entities only.

The hold-out experiment removes a fraction of the intersection entities'
edges to the query concepts and checks whether the pipeline recovers them.
The module also hosts the canonical four-concept test taxonomy, f1.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import EngineError
from .pipeline import PipelineConfig, QueryResult, run_query
from .query import decompose, parse
from .taxonomy import (
    CooccurrenceRecord, Taxonomy, check_cutoff, check_names, entity_intersection, ingest, normalize,
)


@dataclass(frozen=True)
class GroundTruth:
    """The accepted answer set for one query, normalized as taxonomy names are."""

    query: str
    answers: frozenset[str]

    def __post_init__(self):
        answers = check_names(self.answers, "ground truth answers")
        object.__setattr__(self, "answers", frozenset(map(normalize, answers)))
        if not self.answers or "" in self.answers:
            raise ValueError(f"ground truth answers must be non-empty names, got {self.answers!r}")


@dataclass
class QueryMetrics:
    """One query's metrics; ``converged`` is its aggregation solve's flag."""

    query: str
    metrics: dict[str, float]
    extras: dict[str, object] = field(default_factory=dict)
    converged: bool = True


@dataclass
class EvalReport:
    """Per-query and macro-averaged metrics plus the effective parameters."""

    per_query: list[QueryMetrics]
    averages: dict[str, float]
    params: dict[str, object]


# -- metrics ----------------------------------------------------------------


def precision_at_k(ranked: Sequence[str], truth: GroundTruth, k: int) -> float:
    """Fraction of the top-k (or of the whole list, if shorter) that is correct."""
    k = check_cutoff(k)
    ranked = check_names(ranked, "ranked entities")
    if not ranked:
        return 0.0
    hits = sum(1 for e in ranked[:k] if e in truth.answers)
    return hits / min(k, len(ranked))


def recall_at_k(ranked: Sequence[str], truth: GroundTruth, k: int) -> float:
    """Fraction of the ground truth found in the top-k."""
    k = check_cutoff(k)
    hits = sum(1 for e in check_names(ranked, "ranked entities")[:k] if e in truth.answers)
    return hits / len(truth.answers)


def ratio_at_k(top_k: Sequence[str], intersection: Iterable[str]) -> float:
    """New-entity yield: results outside the intersection, per intersection size."""
    intersection = set(check_names(intersection, "intersection entities"))
    new = sum(1 for e in check_names(top_k, "top-k entities") if e not in intersection)
    return new / (len(intersection) + 1)


def average_metrics(per_query: Sequence[QueryMetrics]) -> dict[str, float]:
    """Macro average of every metric over the queries; empty for no queries."""
    if not per_query:
        return {}
    return {
        key: sum(qm.metrics[key] for qm in per_query) / len(per_query)
        for key in per_query[0].metrics
    }


def _score(
    result: QueryResult, truth: GroundTruth, intersection: Iterable[str], ks: Sequence[int]
) -> tuple[QueryMetrics, list[str]]:
    """precision, recall and ratio of one run at every cutoff, and the top
    max(ks) names, all they read: precision@k's min(k, n) is the same for the
    cut list at every k <= max(ks)."""
    top = result.scores.names_at(result.order[: max(ks)])
    metrics: dict[str, float] = {}
    for k in ks:
        metrics[f"precision@{k}"] = precision_at_k(top, truth, k)
        metrics[f"recall@{k}"] = recall_at_k(top, truth, k)
        metrics[f"ratio@{k}"] = ratio_at_k(top[:k], intersection)
    return QueryMetrics(truth.query, metrics, converged=result.scores.converged), top


def _report(per_query: list[QueryMetrics], config: PipelineConfig, **params) -> EvalReport:
    """The scored runs with their macro averages and the config's echo."""
    return EvalReport(per_query, average_metrics(per_query), config.echo(**params))


# -- intersection baseline ----------------------------------------------------


def intpro_baseline(
    taxonomy: Taxonomy, short_concepts: Sequence[str], k: int
) -> list[str]:
    """Rank the full intersection by summed co-occurrence with the short
    concepts; spellings that normalize alike are one short concept."""
    k = check_cutoff(k)
    concepts = list(dict.fromkeys(map(normalize, check_names(short_concepts, "short concepts"))))
    shared = entity_intersection(taxonomy, concepts)
    totals = {
        e: sum(taxonomy.count(c, e) for c in concepts) for e in shared
    }
    ranked = sorted(totals, key=lambda e: (-totals[e], e))
    return ranked[:k]


# -- hold-out experiment -------------------------------------------------------


def check_cutoffs(ks: Iterable[int]) -> list[int]:
    """The cutoffs as ints; raises ValueError unless ``ks`` is an iterable of
    at least one and each passes :func:`~conceptq.taxonomy.check_cutoff`."""
    try:
        cutoffs = [check_cutoff(k) for k in ks]
    except (TypeError, ValueError):  # TypeError: ks is not iterable
        cutoffs = []
    if not cutoffs:
        raise ValueError(f"need at least one cutoff k, each an integer >= 1; got {ks!r}")
    return cutoffs


def check_removal_fraction(removal_fraction: float) -> None:
    """Raise ValueError unless the hold-out fraction is in (0, 1)."""
    if not 0.0 < removal_fraction < 1.0:
        raise ValueError(
            "removal_fraction must be in (0, 1); nothing would be removed otherwise"
        )


def holdout_experiment(
    taxonomy: Taxonomy,
    raw_query: str,
    removal_fraction: float,
    rng_seed: int,
    k: int | Sequence[int],
    config: PipelineConfig | None = None,
) -> EvalReport:
    """Remove part of the intersection and test whether the pipeline recovers it.

    A seeded random selection of ceil(fraction * |intersection|) entities
    loses its edges to every query concept (edges to all other concepts are
    kept, so recovery through related concepts stays possible). The full
    pipeline then runs once on the reduced taxonomy and is scored at every
    cutoff in ``k`` (one integer, numpy's too, or a sequence); the removed
    entities are the ground truth. ratio@k is measured against the reduced
    intersection, the one the pipeline actually saw. A removal that leaves a
    query concept with no entity, so that a shorter query would run, raises.
    """
    many = isinstance(k, Iterable) and not isinstance(k, str)
    ks = check_cutoffs(list(k) if many else [k])
    check_removal_fraction(removal_fraction)
    config = config or PipelineConfig()
    query = parse(raw_query, config.head)
    decomposition = decompose(query, taxonomy)
    intersection = entity_intersection(taxonomy, decomposition.short_concepts)
    if len(intersection) < 2:
        raise EngineError(
            f"intersection of {raw_query!r} has {len(intersection)} entities; "
            "too small to remove from"
        )
    n_remove = math.ceil(removal_fraction * len(intersection))
    rng = random.Random(rng_seed)
    removed = frozenset(rng.sample(sorted(intersection), n_remove))

    reduced = taxonomy.without_edges(decomposition.short_concepts, removed)
    emptied = [c for c in decomposition.short_concepts if reduced.concept_id(c) is None]
    if emptied:
        raise EngineError(f"removing {removal_fraction} of the {len(intersection)} entities in the "
                          f"intersection of {raw_query!r} leaves {emptied} with no entity")
    reduced_intersection = intersection - removed
    truth = GroundTruth(query=raw_query, answers=removed)
    scored, top = _score(run_query(reduced, raw_query, config), truth, reduced_intersection, ks)
    scored.extras = {
        "removed": sorted(removed),
        "reduced_intersection": sorted(reduced_intersection),
        "top_k": top,
    }
    return _report([scored], config, k=ks if many else ks[0],
                   removal_fraction=removal_fraction, rng_seed=rng_seed)


# -- batch evaluation ---------------------------------------------------------


def evaluate_queries(
    taxonomy: Taxonomy,
    truths: Sequence[GroundTruth],
    ks: Sequence[int],
    config: PipelineConfig | None = None,
) -> EvalReport:
    """Run each query and score it against its ground truth at every k."""
    ks = check_cutoffs(ks)
    config = config or PipelineConfig()
    per_query: list[QueryMetrics] = []
    for truth in truths:
        result = run_query(taxonomy, truth.query, config)
        intersection = entity_intersection(
            taxonomy, result.decomposition.short_concepts
        )
        per_query.append(_score(result, truth, intersection, ks)[0])
    return _report(per_query, config, k=ks)


# -- fixtures ------------------------------------------------------------------


def fixture_f1_records() -> list[CooccurrenceRecord]:
    """The canonical desk-scale taxonomy used throughout the test suite.

    Four university-flavored concepts over five entities; grand total 21.
    The intersection of "top university" and "american university" is {a, b}.
    """
    data = {
        "top university": {"a": 2, "b": 1, "d": 1},
        "american university": {"a": 1, "b": 2, "c": 1},
        "ivy league": {"a": 3, "b": 3},
        "famous university": {"a": 1, "b": 1, "x": 5},
    }
    return [
        CooccurrenceRecord(concept, entity, count)
        for concept, entities in data.items()
        for entity, count in entities.items()
    ]


def fixture_f1() -> Taxonomy:
    return ingest(fixture_f1_records())

