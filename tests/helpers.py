"""Shared generators and independent oracles for the test suite.

The oracles re-derive expected values straight from raw counts with plain
Python arithmetic, deliberately avoiding the library's code paths.
"""

from __future__ import annotations

import random

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
    grand = sum(sum(t.entities_of(c).values()) for c in t.concepts)
    n_c = sum(t.entities_of(concept).values())
    score = n_c / grand
    for e in seeds:
        n_ce = t.entities_of(concept).get(e, 0)
        n_e = sum(t.concepts_of(e).values())
        score *= gamma * (n_ce / n_c) + (1.0 - gamma) * (n_e / grand)
    return score / oracle_g(t, concept, e_union, delta)
