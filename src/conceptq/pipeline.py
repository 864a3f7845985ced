"""End-to-end query runs: parse, decompose, rank, expand, aggregate."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .aggregate import DEFAULT_ALPHA, DEFAULT_BETA, ObjectiveWeights, ScoreVector, bucket_bounds
# The aggregation's solve is called through this module's name ``optimize``:
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
from .taxonomy import Taxonomy, check_cutoff, normalize

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
        top_k = check_cutoff(self.concepts_top_k, "concepts_top_k")
        object.__setattr__(self, "concepts_top_k", top_k)  # numpy's integers as an int
        if self.head is not None and not (isinstance(self.head, str) and normalize(self.head)):
            raise ValueError(f"head must be a non-empty string, got {self.head!r}")

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


@dataclass(eq=False)
class QueryResult:
    """Full trace of a query run. ``order`` holds the universe's positions
    in ``scores`` by descending score, ties by name, and ``provenance`` each
    position's mark; the aggregated ordering ``ranking`` is built on first
    read, and ``top(k)`` builds k rows."""

    query: LongConceptQuery
    decomposition: Decomposition
    subsets: list[MembershipPattern]  # perfbench reads it
    baseline: BaselineRanking
    expansion: ExpansionResult
    scores: ScoreVector
    order: np.ndarray
    provenance: np.ndarray
    config: PipelineConfig = field(default_factory=PipelineConfig)

    def _rows(self, positions: np.ndarray) -> list[RankedEntity]:
        values, provenance = self.scores.values[positions], self.provenance[positions]
        rows = zip(self.scores.names_at(positions), values.tolist(), provenance.tolist())
        return [RankedEntity(*row) for row in rows]

    @cached_property
    def ranking(self) -> list[RankedEntity]:
        return self._rows(self.order)

    def top(self, k: int) -> list[RankedEntity]:
        return self._rows(self.order[: check_cutoff(k)])

    def entities(self) -> list[str]:
        return self.scores.names_at(self.order)


def run_query(
    taxonomy: Taxonomy, raw_query: str, config: PipelineConfig | None = None
) -> QueryResult:
    """Answer one long concept query over the taxonomy.

    Provenance marks where each result entity came from: ``seed`` entities
    belonged to an intersection used to seed the expansion, ``expanded``
    entities are new ones surfaced only through expanded concepts, and
    ``baseline-only`` entities sit in the query concepts' entity union
    without being seeds. The stages exchange id arrays, and no entity name
    is read until a name view of the result is.
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
    # R_b and R_c are bucket orders: the runs of equal weight and of equal
    # rel(e) are ties.
    rank = taxonomy.entity_rank
    universe = expansion.ids[np.argsort(rank[expansion.ids])]
    keys = rank[universe]
    r_b, r_c = (np.searchsorted(keys, rank[ids]) for ids in (ranking_b.ids, expansion.ids))
    tiers = [np.searchsorted(keys, rank[tier]) for tier in expansion.tiers]
    s, order, steps, converged = optimize(
        len(universe),
        (r_b, bucket_bounds(ranking_b.weights)),
        (r_c, bucket_bounds(expansion.scores)),
        list(zip(tiers, tiers[1:])),
        config.weights(),
    )

    provenance = np.full(len(universe), PROVENANCE_EXPANDED, dtype=object)
    provenance[r_b] = PROVENANCE_BASELINE
    provenance[tiers[0]] = PROVENANCE_SEED

    return QueryResult(
        query=query,
        decomposition=decomposition,
        subsets=members.patterns,
        baseline=ranking_b,
        expansion=expansion,
        scores=ScoreVector(s, steps, converged, taxonomy.entity_names, universe),
        order=order,
        provenance=provenance,
        config=config,
    )
