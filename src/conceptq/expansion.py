"""Instance-based concept expansion, entity reordering, and seed tiers.

Given seed entities (an intersection of the query's short concepts, read off
their membership patterns; see :mod:`conceptq.query`), every concept covering
at least one seed, and every short concept, is scored for how likely it is
to be a related concept of the whole query. Two relevance models are
available, both divided by a penalty g(c) that punishes concepts reaching
outside the query's entity union E_u = union of e(c) over the short concepts:

  naive bayes   rel(c) = P(c) * prod_{e in seeds} (g_ * P(e|c) + (1-g_) * P(e)) / g(c)
  noisy-or      rel(c) = (1 - (1-leak) * prod_{e in seeds} (1 - P(c|e))) / g(c)

  g(c) = (delta + sum_{e in e(c), e not in E_u} (n(e,c)+1))
         / sum_{e in e(c)} (n(e,c)+1)

Entities are then reordered by how much relevant-concept mass covers them:

  rel(e) = sum_c P(e|c) * rel(c)

Scores are computed over the taxonomy's id arrays (see :mod:`conceptq.taxonomy`).
A run reads the rows of its seeds once, and one sort of the concept ids of
those pairs gives the ascending candidates and every pair's slot among them.
E_u holds every seed, so a query's cost scales with the edges of seeds and
E_u, never with the candidate concepts' own rows, and no vector over all
concepts is built:

* noisy-or multiplies the miss factors 1 - P(c|e) of each seed's row into a
  vector over the candidates, seed by seed in name order;
* naive bayes adds log((1-g_) P(e)) of every seed once, plus a correction
  log(1 + g_ P(e|c) / ((1-g_) P(e))) for each pair with n(c, e) > 0; with
  g_ = 1 a concept missing any seed scores exactly 0;
* g(c) = (delta + T(c) - I(c)) / T(c), with T(c) = n(c) + deg(c) and
  I(c) = sum_{e in E_u} (n(e,c)+1), which adds the seeds' pairs through their
  slots and the rest of E_u's pairs by binary search;
* a run's candidates are the concepts of its seeds' rows and the short
  concepts; it retains those scoring above 0 and at least the k-th best
  score (k = top_k, the short concepts counted too), found by a partition
  in O(candidates), and always the short concepts: a tie at the k-th score
  is kept whole, so no name decides what is retained;
* runs pool by summing, so a short concept's rel(c) is its sum over runs;
* rel(e) is one accumulation over the retained concepts' rows.

The pooled concepts are listed by descending score, ties by name, but no
name decides what is retained or the float sum of any rel(e).

Separately, E_u is grouped into tiers by membership pattern size (the size
of the largest subset supporting an entity); each tier should outrank the
next, a constraint "higher tier beats lower tier" that the rank aggregation
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NoCandidateEntitiesError
from .query import Membership
from .taxonomy import Taxonomy, check_cutoff, find_sorted, name_order

DEFAULT_GAMMA = 0.5
DEFAULT_LEAK = 0.1
DEFAULT_DELTA = 0.5
DEFAULT_CONCEPTS_TOP_K = 10

NAIVE_BAYES = "naive_bayes"
NOISY_OR = "noisy_or"


@dataclass(frozen=True)
class ExpansionModel:
    """Relevance model choice and its smoothing constants."""

    kind: str = NOISY_OR
    gamma: float = DEFAULT_GAMMA  # naive bayes mixing weight
    leak: float = DEFAULT_LEAK    # noisy-or leak probability
    delta: float = DEFAULT_DELTA  # penalty numerator floor

    def __post_init__(self):
        if self.kind not in (NAIVE_BAYES, NOISY_OR):
            raise ValueError(f"unknown expansion model kind {self.kind!r}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if not 0.0 <= self.leak < 1.0:
            raise ValueError("leak must be in [0, 1)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")


@dataclass(frozen=True)
class ConceptRelevance:
    """A scored expanded concept."""

    concept: str
    score: float


@dataclass(frozen=True)
class PairwiseConstraint:
    """Every entity of ``higher`` should outrank every entity of ``lower``.

    The aggregation scores it as the two-bucket order [higher, lower]:
    Breslow's stage that chooses all of ``higher``, tied, before ``lower``.
    """

    higher: frozenset[str]
    lower: frozenset[str]

    def __post_init__(self):
        if not self.higher or not self.lower:
            raise ValueError("constraint sides must be non-empty")
        if self.higher & self.lower:
            raise ValueError("constraint sides must be disjoint")


@dataclass(eq=False)
class ExpansionResult:
    """Retained concepts by descending pooled score, and R_c and the tiers
    behind R_p as id arrays.

    ``ids`` and ``scores`` hold R_c, the entities of the retained concepts by
    descending rel(e), ties by name. ``tiers`` groups E_u's ids, in name
    order, by pattern size, largest first; ``tiers[0]`` is the seed set. The
    name views ``r_c``, ``r_p`` (one constraint per consecutive pair of
    tiers) and ``seed_entities`` are built on first read.
    """

    taxonomy: Taxonomy
    concepts: list[ConceptRelevance]  # perfbench reads it
    ids: np.ndarray
    scores: np.ndarray
    tiers: list[np.ndarray]

    def _names(self, ids: np.ndarray) -> list[str]:
        return [self.taxonomy.entity_names[e] for e in ids.tolist()]

    @cached_property
    def r_c(self) -> list[str]:  # perfbench reads it
        return self._names(self.ids)

    @cached_property
    def r_p(self) -> list[PairwiseConstraint]:  # perfbench reads it
        sides = [frozenset(self._names(tier)) for tier in self.tiers]
        return [PairwiseConstraint(higher=hi, lower=lo) for hi, lo in zip(sides, sides[1:])]

    @cached_property
    def seed_entities(self) -> frozenset[str]:  # perfbench reads it
        return frozenset(self._names(self.tiers[0]))


# -- relevance scores ----------------------------------------------------
#
# Seeds are entity ids in name order, so every product and sum runs in the
# same order however the taxonomy assigned its ids.


def _inside(taxonomy: Taxonomy, entities: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Sum of n(c, e) + 1 over the entity ids ``entities``, for each of the
    ascending concept ids ``targets``: I(c) when ``entities`` is E_u."""
    _, concepts, counts = taxonomy.by_entity.rows(entities)
    hit, slot = find_sorted(targets, concepts)
    inside = np.zeros(len(targets), dtype=np.int64)
    np.add.at(inside, slot, counts[hit] + 1)
    return inside


def _penalty(taxonomy: Taxonomy, targets: np.ndarray, inside: np.ndarray, delta: float) -> np.ndarray:
    """g(c) = (delta + T(c) - I(c)) / T(c), with T(c) = n(c) + deg(c) and
    ``inside`` the I(c) of each target."""
    total = taxonomy.n_c[targets] + taxonomy.deg_c[targets]
    return (delta + (total - inside)) / total


def _relevance(
    taxonomy: Taxonomy,
    seeds: np.ndarray,
    pairs: tuple[np.ndarray, np.ndarray, np.ndarray],
    targets: np.ndarray,
    inside: np.ndarray,
    model: ExpansionModel,
) -> np.ndarray:
    """rel(c) of the ascending concept ids ``targets`` against ``seeds``.

    ``pairs`` are the seeds' pairs with a target, as (position in ``seeds``,
    slot in ``targets``, count) in the order the seeds' rows are read, and
    ``inside`` is each target's I(c). Pairs with n(c, e) = 0 contribute a
    factor 1 to the noisy-or miss product and the constant (1 - gamma) P(e)
    to the naive bayes product, which is added once for every target.
    """
    owner, slot, counts = pairs
    if model.kind == NOISY_OR:
        miss = np.ones(len(targets))
        np.multiply.at(miss, slot, 1.0 - counts / taxonomy.n_e[seeds][owner])
        rel = 1.0 - (1.0 - model.leak) * miss
    else:
        n_c = taxonomy.n_c[targets]
        p_e_given_c = counts / n_c[slot]
        # Log domain: the per-seed factors are < 1 and long seed lists underflow.
        log_rel = np.log(n_c / taxonomy.grand_total)
        if model.gamma < 1.0:
            absent = (1.0 - model.gamma) * (taxonomy.n_e[seeds] / taxonomy.grand_total)
            log_rel += np.log(absent).sum()
            np.add.at(log_rel, slot, np.log1p(model.gamma * p_e_given_c / absent[owner]))
            rel = np.exp(log_rel)
        else:  # an absent seed's factor is 0
            np.add.at(log_rel, slot, np.log(p_e_given_c))
            covers_all = np.bincount(slot, minlength=len(targets)) == len(seeds)
            rel = np.where(covers_all, np.exp(log_rel), 0.0)
    return rel / _penalty(taxonomy, targets, inside, model.delta)


def _candidates(
    taxonomy: Taxonomy, seeds: np.ndarray, query_ids: np.ndarray, e_union: np.ndarray,
    model: ExpansionModel,
) -> tuple[np.ndarray, np.ndarray]:
    """The ascending ids of the concepts covering at least one of ``seeds``
    and of the query's own concepts ``query_ids``, and their rel(c): a query
    concept is scored, and counts toward the k-th best, like any other.

    One sort of the seeds' pairs and ``query_ids`` gives the candidates and
    each pair's slot among them. The seeds lie in E_u, so I(c) sums the
    seeds' pairs through those slots, and the pairs of the rest of E_u by
    search.
    """
    owner, concepts, counts = taxonomy.by_entity.rows(seeds)
    candidates, slot = np.unique(np.concatenate((concepts, query_ids)), return_inverse=True)
    slot = slot[: len(concepts)]
    rest = np.ones(len(e_union), dtype=bool)
    rest[np.searchsorted(e_union, seeds)] = False
    inside = _inside(taxonomy, e_union[rest], candidates)
    np.add.at(inside, slot, counts + 1)
    return candidates, _relevance(taxonomy, seeds, (owner, slot, counts), candidates, inside, model)


def _top(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the scores above 0 that are at least the k-th best, so
    a tie at the k-th best score is kept whole; a partition finds it."""
    at = max(len(scores) - k, 0)
    return np.flatnonzero((scores >= np.partition(scores, at)[at]) & (scores > 0))


# -- expansion ------------------------------------------------------------


def _entity_relevance(
    taxonomy: Taxonomy, concepts: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """rel(e) = sum of P(e|c) * rel(c) over the concept ids ``concepts``, with
    rel(c) in ``weights``, each entity's terms added by descending rel(c) and
    then ascending value, so that no concept order changes the float sum: the
    covered entity ids by descending rel(e), ties by name, and their rel(e)."""
    owner, entities, counts = taxonomy.by_concept.rows(concepts)
    terms = counts / taxonomy.n_c[concepts][owner] * weights[owner]
    added = np.lexsort((terms, -weights[owner]))
    covered, slot = np.unique(entities, return_inverse=True)
    scores = np.zeros(len(covered))
    np.add.at(scores, slot[added], terms[added])
    order = name_order(taxonomy.entity_rank, covered, scores)
    return covered[order], scores[order]


# -- orchestration ----------------------------------------------------------


def expand(
    taxonomy: Taxonomy,
    members: Membership,
    model: ExpansionModel,
    top_k: int = DEFAULT_CONCEPTS_TOP_K,
) -> ExpansionResult:
    """Run the whole expansion stage for one query.

    The seed runs are ``members.seed_runs()``: the full intersection when it
    is non-empty, else the intersection of every largest subset whose
    intersection is non-empty, each expanded independently; every seed lies
    in E_u. Each run's candidates include the query's own short concepts,
    read as ``members.concept_ids`` (-1, a concept not in the taxonomy, adds
    nothing). A run retains its candidates scoring above 0 and at least its
    ``top_k``-th best, k counting the short concepts too, and always the
    short concepts, so the expansion ordering covers E_u. The runs are
    pooled by summing and listed by descending score, ties by name.

    The result holds R_c and the tiers as id arrays. An empty E_u raises
    NoCandidateEntitiesError.
    """
    top_k = check_cutoff(top_k, "top_k")
    if not len(members.ids):
        raise NoCandidateEntitiesError("no candidate entities")
    query_ids = members.concept_ids[members.concept_ids >= 0]

    pooled: dict[int, float] = {}
    for pattern in members.seed_runs():
        candidates, scores = _candidates(taxonomy, pattern.ids, query_ids, members.ids, model)
        retained = _top(scores, top_k).tolist()
        retained += np.searchsorted(candidates, query_ids).tolist()
        for i in dict.fromkeys(retained):
            c = int(candidates[i])
            pooled[c] = pooled.get(c, 0.0) + float(scores[i])

    ranked = sorted(pooled, key=lambda c: (-pooled[c], taxonomy.concept_names[c]))
    ids, scores = _entity_relevance(
        taxonomy, np.array(ranked, dtype=np.int64), np.array([pooled[c] for c in ranked])
    )
    # E_u by pattern size (a column popcount), largest first, then by name
    sizes = members.matrix.sum(axis=0)
    order = name_order(taxonomy.entity_rank, members.ids, sizes)
    sizes = sizes[order]
    return ExpansionResult(
        taxonomy=taxonomy,
        concepts=[ConceptRelevance(taxonomy.concept_names[c], pooled[c]) for c in ranked],
        ids=ids,
        scores=scores,
        tiers=np.split(members.ids[order], np.flatnonzero(sizes[1:] != sizes[:-1]) + 1),
    )
