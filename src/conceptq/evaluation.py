"""Evaluation: rank metrics, the intersection baseline, and hold-out runs.

Metrics follow the usual top-k conventions. With a ranked list of n_r
entities and a ground truth of n_g answers:

    precision@k = |top-k intersect answers| / min(k, n_r)
    recall@k    = |top-k intersect answers| / n_g
    ratio@k     = |{e in top-k : e not in I}| / (|I| + 1)

where I is the entity intersection of the query's short concepts. ratio@k
measures the ability to surface entities the plain intersection could never
return.

The module also hosts the deterministic test fixtures: the canonical
four-concept taxonomy used across the test suite and a planted-structure
generator whose ground truth is known by construction, which powers the
hold-out experiment (remove a fraction of the intersection entities' edges
to the query concepts, then check whether the pipeline recovers them).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import EngineError
from .pipeline import PipelineConfig, run_query
from .query import decompose, parse
from .taxonomy import CooccurrenceRecord, Taxonomy, entity_intersection, ingest

__all__ = [
    "GroundTruth",
    "QueryMetrics",
    "EvalReport",
    "precision_at_k",
    "recall_at_k",
    "ratio_at_k",
    "intpro_baseline",
    "holdout_experiment",
    "evaluate_queries",
    "average_metrics",
    "fixture_f1_records",
    "fixture_f1",
    "PlantedInstance",
    "planted_instance",
]


@dataclass(frozen=True)
class GroundTruth:
    """The accepted answer set for one query."""

    query: str
    answers: frozenset[str]

    def __post_init__(self):
        if not self.answers:
            raise ValueError("ground truth answers must be non-empty")


@dataclass
class QueryMetrics:
    query: str
    metrics: dict[str, float]
    extras: dict[str, object] = field(default_factory=dict)


@dataclass
class EvalReport:
    """Per-query and macro-averaged metrics plus the effective parameters."""

    per_query: list[QueryMetrics]
    averages: dict[str, float]
    params: dict[str, object]


# -- metrics ----------------------------------------------------------------


def precision_at_k(ranked: Sequence[str], truth: GroundTruth, k: int) -> float:
    """Fraction of the top-k (or of the whole list, if shorter) that is correct."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not ranked:
        return 0.0
    hits = sum(1 for e in ranked[:k] if e in truth.answers)
    return hits / min(k, len(ranked))


def recall_at_k(ranked: Sequence[str], truth: GroundTruth, k: int) -> float:
    """Fraction of the ground truth found in the top-k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    hits = sum(1 for e in ranked[:k] if e in truth.answers)
    return hits / len(truth.answers)


def ratio_at_k(top_k: Sequence[str], intersection: Iterable[str]) -> float:
    """New-entity yield: results outside the intersection, per intersection size."""
    intersection = set(intersection)
    new = sum(1 for e in top_k if e not in intersection)
    return new / (len(intersection) + 1)


def _metrics(
    ranked: Sequence[str], truth: GroundTruth, intersection: Iterable[str], ks: Sequence[int]
) -> dict[str, float]:
    """precision, recall and ratio of one ranking at every cutoff."""
    intersection = set(intersection)
    metrics: dict[str, float] = {}
    for k in ks:
        metrics[f"precision@{k}"] = precision_at_k(ranked, truth, k)
        metrics[f"recall@{k}"] = recall_at_k(ranked, truth, k)
        metrics[f"ratio@{k}"] = ratio_at_k(ranked[:k], intersection)
    return metrics


def average_metrics(per_query: Sequence[QueryMetrics]) -> dict[str, float]:
    """Macro average of every metric over the queries; empty for no queries."""
    if not per_query:
        return {}
    return {
        key: sum(qm.metrics[key] for qm in per_query) / len(per_query)
        for key in per_query[0].metrics
    }


# -- intersection baseline ----------------------------------------------------


def intpro_baseline(
    taxonomy: Taxonomy, short_concepts: Sequence[str], k: int
) -> list[str]:
    """Rank the full intersection by summed co-occurrence with the short concepts."""
    if k < 1:
        raise ValueError("k must be >= 1")
    concepts = list(dict.fromkeys(short_concepts))
    shared = entity_intersection(taxonomy, concepts)
    totals = {
        e: sum(taxonomy.count(c, e) for c in concepts) for e in shared
    }
    ranked = sorted(totals, key=lambda e: (-totals[e], e))
    return ranked[:k]


# -- hold-out experiment -------------------------------------------------------


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
    cutoff in ``k`` (one int or a sequence); the removed entities are the
    ground truth. ratio@k is measured against the reduced intersection, the
    one the pipeline actually saw.
    """
    config = config or PipelineConfig()
    ks = [k] if isinstance(k, int) else list(k)
    if not ks:
        raise ValueError("need at least one cutoff k")
    if not 0.0 < removal_fraction < 1.0:
        raise ValueError(
            "removal_fraction must be in (0, 1); nothing would be removed otherwise"
        )
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
    result = run_query(reduced, raw_query, config)
    ranked = result.entities()
    reduced_intersection = intersection - removed
    truth = GroundTruth(query=raw_query, answers=removed)
    per_query = QueryMetrics(
        query=raw_query,
        metrics=_metrics(ranked, truth, reduced_intersection, ks),
        extras={
            "removed": sorted(removed),
            "reduced_intersection": sorted(reduced_intersection),
            "top_k": ranked[: max(ks)],
        },
    )
    return EvalReport(
        per_query=[per_query],
        averages=dict(per_query.metrics),
        params=config.echo(k=k, removal_fraction=removal_fraction, rng_seed=rng_seed),
    )


# -- batch evaluation ---------------------------------------------------------


def evaluate_queries(
    taxonomy: Taxonomy,
    truths: Sequence[GroundTruth],
    ks: Sequence[int],
    config: PipelineConfig | None = None,
) -> EvalReport:
    """Run each query and score it against its ground truth at every k."""
    config = config or PipelineConfig()
    per_query: list[QueryMetrics] = []
    for truth in truths:
        result = run_query(taxonomy, truth.query, config)
        intersection = entity_intersection(
            taxonomy, result.decomposition.short_concepts
        )
        per_query.append(
            QueryMetrics(
                query=truth.query,
                metrics=_metrics(result.entities(), truth, intersection, ks),
            )
        )
    return EvalReport(
        per_query=per_query,
        averages=average_metrics(per_query),
        params=config.echo(k=list(ks)),
    )


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


@dataclass
class PlantedInstance:
    """A generated taxonomy whose correct answers are known by construction."""

    records: tuple[CooccurrenceRecord, ...]
    query: str
    head: str
    modifiers: tuple[str, ...]
    answers: frozenset[str]
    equivalent_concept: str

    def build(self) -> Taxonomy:
        return ingest(self.records)


def planted_instance(
    n_answers: int = 10,
    n_modifiers: int = 3,
    noise_per_concept: int = 2,
    n_junk: int = 4,
    answer_count: int = 10,
    noise_count: int = 1,
    equivalent_count: int = 1000,
    related_count: int = 500,
    n_related: int = 2,
    seed: int = 0,
) -> PlantedInstance:
    """Build a taxonomy with a designated true answer set.

    Structure: ``n_modifiers`` short concepts each contain every answer plus
    their own noise entities; one equivalent concept contains exactly the
    answer set with high counts; ``n_related`` distractor concepts mix the
    answers with junk entities outside the short concepts' union, so they
    pay the out-of-union penalty; one over-general concept is mostly junk
    and scores near the penalty floor; a pure-junk concept adds unrelated
    mass. Counts are lightly jittered by the seeded generator; the
    parameters and seed fully determine the instance.

    The redundant answer support (equivalent plus related concepts) is what
    makes hold-out recovery possible: an answer stripped of its short-concept
    edges is still covered by several high-count concepts, while each noise
    entity sits in a single short concept.
    """
    if n_answers < 2 or n_modifiers < 1:
        raise ValueError("need at least 2 answers and 1 modifier")
    rng = random.Random(seed)
    head = "gadget"
    all_modifiers = ["sleek", "compact", "rugged", "modular", "wireless", "solar"]
    if n_modifiers > len(all_modifiers):
        raise ValueError(f"at most {len(all_modifiers)} modifiers supported")
    modifiers = tuple(all_modifiers[:n_modifiers])
    answers = [f"item{i:02d}" for i in range(n_answers)]
    junk = [f"junk{j:02d}" for j in range(n_junk)]

    records: list[CooccurrenceRecord] = []
    for m_index, modifier in enumerate(modifiers):
        concept = f"{modifier} {head}"
        for entity in answers:
            records.append(
                CooccurrenceRecord(concept, entity, answer_count + rng.randint(0, 2))
            )
        for j in range(noise_per_concept):
            records.append(
                CooccurrenceRecord(concept, f"noise{m_index}{j:02d}", noise_count)
            )

    equivalent = "collector favorite"
    for entity in answers:
        records.append(CooccurrenceRecord(equivalent, entity, equivalent_count))

    related_names = ["popular", "premium", "classic", "vintage"]
    if n_related > len(related_names):
        raise ValueError(f"at most {len(related_names)} related distractors supported")
    for r in range(n_related):
        concept = f"{related_names[r]} {head}"
        for entity in answers:
            records.append(CooccurrenceRecord(concept, entity, related_count))
        for entity in junk:
            records.append(CooccurrenceRecord(concept, entity, 1))

    overgeneral = f"common {head}"
    for entity in answers:
        records.append(CooccurrenceRecord(overgeneral, entity, 1))
    for entity in junk:
        records.append(CooccurrenceRecord(overgeneral, entity, 3))

    for entity in junk:
        records.append(CooccurrenceRecord("assorted item", entity, 1))

    return PlantedInstance(
        records=tuple(records),
        query=" ".join(modifiers + (head,)),
        head=head,
        modifiers=modifiers,
        answers=frozenset(answers),
        equivalent_concept=equivalent,
    )
