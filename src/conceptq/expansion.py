"""Instance-based concept expansion, entity reordering, and seed tiers.

Given seed entities (an intersection of the query's short concepts, read off
their membership patterns; see :mod:`conceptq.query`), every concept covering
at least one seed is scored for how likely it is to be a related concept of
the whole query. Two relevance models are available, both divided by a
penalty g(c) that punishes concepts reaching outside the query's entity
union E_u = union of e(c) over the short concepts:

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
* the top_k candidates are the ones scoring at least the k-th best score,
  which a partition finds in O(candidates); only those are sorted;
* rel(e) is one accumulation over the retained concepts' rows.

Ties are broken by name, through the taxonomy's precomputed name ranks, so
a tie across the top_k boundary keeps the first names.

Separately, E_u is grouped into tiers by membership pattern size (the size
of the largest subset supporting an entity); each tier should outrank the
next, a constraint "higher tier beats lower tier" that the rank aggregation
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .query import Membership, membership
from .taxonomy import Taxonomy, find_sorted, name_order, normalize

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
    """Every entity of ``higher`` should outrank every entity of ``lower``."""

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
    name views ``r_c``, ``entity_scores``, ``r_p`` (one constraint per
    consecutive pair of tiers) and ``seed_entities`` are built on first read.
    """

    taxonomy: Taxonomy
    concepts: list[ConceptRelevance]
    ids: np.ndarray
    scores: np.ndarray
    tiers: list[np.ndarray]

    def _names(self, ids: np.ndarray) -> list[str]:
        return [self.taxonomy.entity_names[e] for e in ids.tolist()]

    @cached_property
    def r_c(self) -> list[str]:
        return self._names(self.ids)

    @cached_property
    def entity_scores(self) -> dict[str, float]:
        return dict(zip(self.r_c, self.scores.tolist()))

    @cached_property
    def r_p(self) -> list[PairwiseConstraint]:
        sides = [frozenset(self._names(tier)) for tier in self.tiers]
        return [PairwiseConstraint(higher=hi, lower=lo) for hi, lo in zip(sides, sides[1:])]

    @cached_property
    def seed_entities(self) -> frozenset[str]:
        return frozenset(self._names(self.tiers[0]))


# -- relevance scores ----------------------------------------------------
#
# Seeds are entity ids in name order, so every product and sum runs in the
# same order however the taxonomy assigned its ids.


def _known_concept(taxonomy: Taxonomy, concept: str) -> int:
    cid = taxonomy.concept_id(concept)
    if cid is None:
        raise ValueError(f"concept {normalize(concept)!r} not in taxonomy")
    return cid


def _seed_ids(taxonomy: Taxonomy, seeds: Iterable[str]) -> np.ndarray:
    """Entity ids of the seed set, in seed-name order."""
    names = sorted(set(seeds))
    if not names:
        raise ValueError("seed set is empty")
    ids = [taxonomy.entity_id(e) for e in names]
    if None in ids:
        raise ValueError(f"seed {names[ids.index(None)]!r} not in taxonomy")
    return np.array(ids, dtype=np.int64)


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


def _target_relevance(
    taxonomy: Taxonomy,
    seeds: np.ndarray,
    targets: np.ndarray,
    e_union: np.ndarray,
    model: ExpansionModel,
) -> np.ndarray:
    """rel(c) of the ascending concept ids ``targets``, which need not cover a seed."""
    owner, concepts, counts = taxonomy.by_entity.rows(seeds)
    hit, slot = find_sorted(targets, concepts)
    pairs = owner[hit], slot, counts[hit]
    return _relevance(taxonomy, seeds, pairs, targets, _inside(taxonomy, e_union, targets), model)


def _candidates(
    taxonomy: Taxonomy, seeds: np.ndarray, e_union: np.ndarray, model: ExpansionModel
) -> tuple[np.ndarray, np.ndarray]:
    """The ascending ids of every concept covering at least one of ``seeds``,
    and their rel(c).

    One sort of the seeds' pairs gives the candidates and each pair's slot
    among them. I(c) sums the pairs of the seeds in E_u through those slots,
    and the pairs of the rest of E_u by search.
    """
    owner, concepts, counts = taxonomy.by_entity.rows(seeds)
    candidates, slot = np.unique(concepts, return_inverse=True)
    in_union, at = find_sorted(e_union, seeds)
    rest = np.ones(len(e_union), dtype=bool)
    rest[at] = False
    inside = _inside(taxonomy, e_union[rest], candidates)
    mine = in_union[owner]
    np.add.at(inside, slot[mine], counts[mine] + 1)
    return candidates, _relevance(taxonomy, seeds, (owner, slot, counts), candidates, inside, model)


def _top(rank: np.ndarray, ids: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` best of ``ids`` by descending score, ties by
    name ``rank``. A partition finds the k-th best score, and only the ids
    scoring at least that are sorted, so ties across it are kept by name."""
    if len(scores) > k:
        kth = np.partition(scores, len(scores) - k)[len(scores) - k]
        keep = np.flatnonzero(scores >= kth)
        return keep[name_order(rank, ids[keep], scores[keep])[:k]]
    return name_order(rank, ids, scores)


def g_penalty(
    taxonomy: Taxonomy, concept: str, short_concepts: Iterable[str], delta: float
) -> float:
    """Over-generality penalty of ``concept`` against the query's entity union."""
    target = np.array([_known_concept(taxonomy, concept)])
    inside = _inside(taxonomy, membership(taxonomy, short_concepts).ids, target)
    return float(_penalty(taxonomy, target, inside, delta)[0])


def relevance(
    taxonomy: Taxonomy,
    concept: str,
    seeds: Iterable[str],
    short_concepts: Iterable[str],
    model: ExpansionModel,
) -> float:
    """rel(c) of ``concept`` to the seed entities under ``model.kind``,
    penalized against the entity union of ``short_concepts``."""
    target = np.array([_known_concept(taxonomy, concept)])
    e_union = membership(taxonomy, short_concepts).ids
    return float(_target_relevance(taxonomy, _seed_ids(taxonomy, seeds), target, e_union, model)[0])


# -- expansion ------------------------------------------------------------


def _entity_relevance(
    taxonomy: Taxonomy, concepts: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """rel(e) = sum of P(e|c) * rel(c) over the concept ids ``concepts``, in
    that order, with rel(c) in ``weights``: the covered entity ids by
    descending rel(e), ties by name, and their rel(e)."""
    owner, entities, counts = taxonomy.by_concept.rows(concepts)
    covered, slot = np.unique(entities, return_inverse=True)
    scores = np.zeros(len(covered))
    np.add.at(scores, slot, counts / taxonomy.n_c[concepts][owner] * weights[owner])
    order = name_order(taxonomy.entity_rank, covered, scores)
    return covered[order], scores[order]


def entity_relevance(
    taxonomy: Taxonomy, concepts: Sequence[ConceptRelevance]
) -> dict[str, float]:
    """rel(e) = sum over retained concepts of P(e|c) * rel(c), in ranked order."""
    known = [(taxonomy.concept_id(cr.concept), cr.score) for cr in concepts]
    known = [(c, w) for c, w in known if c is not None]  # an unknown concept covers no entity
    ids = np.array([c for c, _ in known], dtype=np.int64)
    ids, scores = _entity_relevance(taxonomy, ids, np.array([w for _, w in known]))
    return dict(zip([taxonomy.entity_names[e] for e in ids.tolist()], scores.tolist()))


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
    intersection is non-empty, each expanded independently. The retained
    concepts are pooled, summing the scores of concepts found by several runs.

    The query's own short concepts are always added to the retained pool
    (they carry the minimal penalty by construction), so the expansion
    ordering covers E_u. The result holds R_c and the tiers as id arrays.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    query_ids = np.array([_known_concept(taxonomy, c) for c in members.concepts], dtype=np.int64)
    run_seeds = [_seed_ids(taxonomy, pattern.entities) for pattern in members.seed_runs()]

    pooled: dict[int, float] = {}
    for seed_ids in run_seeds:
        candidates, scores = _candidates(taxonomy, seed_ids, members.ids, model)
        retained = _top(taxonomy.concept_rank, candidates, scores, top_k).tolist()
        retained += find_sorted(candidates, query_ids)[1].tolist()
        for i in dict.fromkeys(retained):
            c = int(candidates[i])
            pooled[c] = pooled.get(c, 0.0) + float(scores[i])
    # Short concepts that were candidates in no run still get a model score
    # against each run's seeds (the noisy-or leak keeps it meaningful).
    unseen = sorted(set(query_ids.tolist()) - pooled.keys())
    if unseen:
        targets = np.array(unseen, dtype=np.int64)
        total = np.zeros(len(targets))
        for seed_ids in run_seeds:
            total += _target_relevance(taxonomy, seed_ids, targets, members.ids, model)
        pooled.update(zip(unseen, total.tolist()))

    ranked = sorted(pooled, key=lambda c: (-pooled[c], taxonomy.concept_rank[c]))
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
