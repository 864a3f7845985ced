"""End-to-end query runs: parse, decompose, rank, expand, aggregate."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .aggregate import DEFAULT_ALPHA, DEFAULT_BETA, ObjectiveWeights, ScoreVector
# The position-level solve is called through this module's name ``optimize``:
# perfbench times the aggregation stage by wrapping ``pipeline.optimize`` at
# call time, like ``baseline_rank`` and ``expand``.
from .aggregate import solve as optimize
from .baseline import BaselineRanking, baseline_rank
from .expansion import (
    DEFAULT_CONCEPTS_TOP_K,
    DEFAULT_DELTA,
    DEFAULT_GAMMA,
    DEFAULT_LEAK,
    NOISY_OR,
    ExpansionModel,
    ExpansionResult,
    expand,
)
from .query import Decomposition, LongConceptQuery, MembershipPattern, decompose, membership, parse
from .taxonomy import Taxonomy

PROVENANCE_SEED = "seed"
PROVENANCE_EXPANDED = "expanded"
PROVENANCE_BASELINE = "baseline-only"


@dataclass(frozen=True)
class PipelineConfig:
    """Every tunable of a query run, with the engine defaults."""

    model_kind: str = NOISY_OR
    gamma: float = DEFAULT_GAMMA
    leak: float = DEFAULT_LEAK
    delta: float = DEFAULT_DELTA
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    concepts_top_k: int = DEFAULT_CONCEPTS_TOP_K
    head: Optional[str] = None

    def __post_init__(self):
        # raise on an out-of-range value here, not midway through a run
        self.expansion_model()
        self.weights()
        if self.concepts_top_k < 1:
            raise ValueError("concepts_top_k must be >= 1")

    def expansion_model(self) -> ExpansionModel:
        return ExpansionModel(
            kind=self.model_kind, gamma=self.gamma, leak=self.leak, delta=self.delta
        )

    def weights(self) -> ObjectiveWeights:
        return ObjectiveWeights(alpha=self.alpha, beta=self.beta)

    def echo(self, **extra) -> dict[str, object]:
        """The settings a report echoes, in header order, then ``extra``
        (which may also override a setting's value in place)."""
        return {
            "model": self.model_kind,
            "gamma": self.gamma,
            "lambda": self.leak,
            "delta": self.delta,
            "alpha": self.alpha,
            "beta": self.beta,
            "concepts_top_k": self.concepts_top_k,
            **extra,
        }


@dataclass(frozen=True)
class RankedEntity:
    entity: str
    score: float
    provenance: str


@dataclass
class QueryResult:
    """Full trace of a query run; ``ranking`` is the aggregated ordering."""

    query: LongConceptQuery
    decomposition: Decomposition
    subsets: list[MembershipPattern]
    baseline: BaselineRanking
    expansion: ExpansionResult
    scores: ScoreVector
    ranking: list[RankedEntity]
    config: PipelineConfig = field(default_factory=PipelineConfig)

    def top(self, k: int) -> list[RankedEntity]:
        return self.ranking[:k]

    def entities(self) -> list[str]:
        return [r.entity for r in self.ranking]


def run_query(
    taxonomy: Taxonomy, raw_query: str, config: PipelineConfig | None = None
) -> QueryResult:
    """Answer one long concept query over the taxonomy.

    Provenance marks where each result entity came from: ``seed`` entities
    belonged to an intersection used to seed the expansion, ``expanded``
    entities are new ones surfaced only through expanded concepts, and
    ``baseline-only`` entities sit in the query concepts' entity union
    without being seeds. The stages exchange id arrays; names are looked up
    once, for the universe, and the stages' name views only when read.
    """
    config = config or PipelineConfig()
    query = parse(raw_query, config.head)
    decomposition = decompose(query, taxonomy)
    members = membership(taxonomy, decomposition.short_concepts)
    ranking_b = baseline_rank(taxonomy, members)
    expansion = expand(
        taxonomy, members, config.expansion_model(), top_k=config.concepts_top_k
    )

    # The universe in name order; each stage maps into it by rank. R_c covers
    # E_u, since the query's own concepts are always retained, so it is R_c.
    rank = taxonomy.entity_rank
    universe = expansion.ids[np.argsort(rank[expansion.ids])]
    keys = rank[universe]
    r_b, r_c = (np.searchsorted(keys, rank[ids]) for ids in (ranking_b.ids, expansion.ids))
    tiers = [np.searchsorted(keys, rank[tier]) for tier in expansion.tiers]
    names = [taxonomy.entity_names[e] for e in universe.tolist()]
    scores, order = optimize(names, r_b, r_c, list(zip(tiers, tiers[1:])), config.weights())

    provenance = np.full(len(names), PROVENANCE_EXPANDED, dtype=object)
    provenance[r_b] = PROVENANCE_BASELINE
    provenance[tiers[0]] = PROVENANCE_SEED
    values, provenance = list(scores.scores.values()), provenance.tolist()
    ranking = [RankedEntity(names[i], values[i], provenance[i]) for i in order.tolist()]

    return QueryResult(
        query=query,
        decomposition=decomposition,
        subsets=members.patterns,
        baseline=ranking_b,
        expansion=expansion,
        scores=scores,
        ranking=ranking,
        config=config,
    )
