"""Shared generators and independent oracles for the test suite.

The oracles re-derive expected values straight from raw counts with plain
Python arithmetic, deliberately avoiding the library's code paths.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from conceptq.errors import QueryParseError
from conceptq.expansion import ExpansionModel, relevance
from conceptq.query import Membership
from conceptq.taxonomy import Taxonomy, ingest


def random_rows(rng: random.Random, max_concepts=6, max_entities=8, max_edges=20,
                max_count=5) -> list[tuple[str, str, int]]:
    """Random edge rows over small name pools; duplicates are allowed."""
    n_concepts = rng.randint(1, max_concepts)
    n_entities = rng.randint(1, max_entities)
    n_edges = rng.randint(1, max_edges)
    return [
        (
            f"c{rng.randrange(n_concepts)}",
            f"e{rng.randrange(n_entities)}",
            rng.randint(1, max_count),
        )
        for _ in range(n_edges)
    ]


def random_taxonomy(rng: random.Random, **kwargs) -> Taxonomy:
    return ingest(random_rows(rng, **kwargs))


# -- brute-force relevance oracles -------------------------------------------


def oracle_g(t: Taxonomy, concept: str, e_union: set[str], delta: float) -> float:
    # Integer sums, so the only roundings are the formula's own two.
    outside = 0
    total = 0
    for e, n in t.entities_of(concept).items():
        total += n + 1
        if e not in e_union:
            outside += n + 1
    return (delta + outside) / total


def oracle_e_union(t: Taxonomy, short_concepts) -> set[str]:
    out: set[str] = set()
    for c in short_concepts:
        out |= set(t.entities_of(c))
    return out


def oracle_rel_noisy_or(t: Taxonomy, concept, seeds, short_concepts, leak, delta):
    e_union = oracle_e_union(t, short_concepts)
    prod = 1.0
    for e in seeds:
        n_ce = t.entities_of(concept).get(e, 0)
        n_e = sum(t.concepts_of(e).values())
        p = n_ce / n_e if n_e else 0.0
        prod *= 1.0 - p
    return (1.0 - (1.0 - leak) * prod) / oracle_g(t, concept, e_union, delta)


def oracle_rel_naive_bayes(t: Taxonomy, concept, seeds, short_concepts, gamma, delta):
    e_union = oracle_e_union(t, short_concepts)
    grand = sum(sum(t.entities_of(c).values()) for c in t.concept_names)
    n_c = sum(t.entities_of(concept).values())
    score = n_c / grand
    for e in seeds:
        n_ce = t.entities_of(concept).get(e, 0)
        n_e = sum(t.concepts_of(e).values())
        score *= gamma * (n_ce / n_c) + (1.0 - gamma) * (n_e / grand)
    return score / oracle_g(t, concept, e_union, delta)


# -- expansion selection oracle -----------------------------------------------


def oracle_expand(
    t: Taxonomy, members: Membership, model: ExpansionModel, top_k: int
) -> tuple[list[tuple[str, float]], dict[str, float], list[tuple[frozenset, frozenset]]]:
    """``expand``'s retained (concept, score) pairs, entity scores and
    (higher, lower) constraints, by full sorts.

    Each run's candidates are every concept of its seeds, scored one at a
    time by ``relevance``; all of them are sorted by (-score, name), the
    first ``top_k`` and the query's own concepts are kept, and the runs are
    pooled by summing. Entity scores add
    n(c, e) / n(c) * rel(c) over the ranked concepts in plain floats, and the
    constraints come from the subset lattice's tiers.
    """
    short = list(members.concepts)
    runs = [p.entities for p in members.seed_runs()]
    pooled: dict[str, float] = {}
    for seeds in runs:
        scores = {c: relevance(t, c, seeds, short, model) for e in seeds for c in t.concepts_of(e)}
        ranked = sorted(scores, key=lambda c: (-scores[c], c))
        for c in dict.fromkeys(ranked[:top_k] + [c for c in short if c in scores]):
            pooled[c] = pooled.get(c, 0.0) + scores[c]
    for c in short:
        if c not in pooled:
            total = 0.0
            for seeds in runs:
                total += relevance(t, c, seeds, short, model)
            pooled[c] = total
    concepts = sorted(pooled.items(), key=lambda item: (-item[1], item[0]))

    entity_scores: dict[str, float] = {}
    for c, score in concepts:
        row = t.entities_of(c)
        n_c = sum(row.values())
        for e, n in row.items():
            entity_scores[e] = entity_scores.get(e, 0.0) + n / n_c * score
    ranked_entities = sorted(entity_scores, key=lambda e: (-entity_scores[e], e))

    tiers = [entities for _, entities in oracle_tiers(enumerate_subsets(t, short))]
    return (
        concepts,
        {e: entity_scores[e] for e in ranked_entities},
        list(zip(tiers, tiers[1:])),
    )


# -- subset lattice oracle ------------------------------------------------------

# 2^n subset enumeration; the oracle is only run on small queries.
MAX_SHORT_CONCEPTS = 20


@dataclass(frozen=True)
class SubsetIntersection:
    """A subset of the query's short concepts and its shared entities."""

    subset: frozenset[str]
    entities: frozenset[str]
    size: int


def enumerate_subsets(
    taxonomy: Taxonomy, short_concepts: Sequence[str]
) -> list[SubsetIntersection]:
    """All non-empty entity intersections over subsets of the short concepts.

    The full set is evaluated first; then every proper non-empty subset.
    Only subsets whose intersection is non-empty are returned, ordered by
    subset size descending with ties in lexicographic member order.
    """
    concepts = list(dict.fromkeys(short_concepts))
    n = len(concepts)
    if n < 1:
        raise ValueError("short concept set is empty")
    if n > MAX_SHORT_CONCEPTS:
        raise QueryParseError(
            f"{n} short concepts exceed the enumeration limit of {MAX_SHORT_CONCEPTS}"
        )

    entity_sets = {c: frozenset(taxonomy.entities_of(c)) for c in concepts}

    def intersect(members: tuple[str, ...]) -> frozenset[str]:
        out = entity_sets[members[0]]
        for c in members[1:]:
            out = out & entity_sets[c]
            if not out:
                break
        return out

    results: list[SubsetIntersection] = []
    full = intersect(tuple(concepts))
    if full:
        results.append(
            SubsetIntersection(subset=frozenset(concepts), entities=full, size=n)
        )
    for size in range(n - 1, 0, -1):
        for members in sorted(combinations(sorted(concepts), size)):
            shared = intersect(members)
            if shared:
                results.append(
                    SubsetIntersection(
                        subset=frozenset(members), entities=shared, size=size
                    )
                )
    return results


def oracle_seed_runs(subsets: Sequence[SubsetIntersection], n: int) -> list[frozenset[str]]:
    """Seed sets of the lattice: the full intersection alone when it is
    non-empty, else every maximal-size non-empty intersection in lattice order."""
    full = [si for si in subsets if si.size == n]
    if full:
        return [full[0].entities]
    best = max(si.size for si in subsets)
    return [si.entities for si in subsets if si.size == best]


def tier_rows(t: Taxonomy, members: Membership, tiers) -> list[tuple[int, list[str]]]:
    """(pattern size, entity names) of each of ``expand``'s id tiers; the
    size is the popcount of the tier's membership columns, which must agree."""
    rows = []
    for tier in tiers:
        sizes = set(members.matrix[:, np.searchsorted(members.ids, tier)].sum(axis=0).tolist())
        assert len(sizes) == 1
        rows.append((int(sizes.pop()), [t.entity_names[e] for e in tier.tolist()]))
    return rows


def oracle_tiers(subsets: Sequence[SubsetIntersection]) -> list[tuple[int, frozenset[str]]]:
    """(size, entities) tiers: each entity in the tier of the largest subset
    whose intersection holds it, largest first."""
    best_size: dict[str, int] = {}
    for si in subsets:
        for entity in si.entities:
            best_size[entity] = max(best_size.get(entity, 0), si.size)
    sizes = sorted(set(best_size.values()), reverse=True)
    return [
        (size, frozenset(e for e, s in best_size.items() if s == size)) for size in sizes
    ]
