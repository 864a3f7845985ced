"""Shared generators and independent oracles for the test suite.

The oracles re-derive expected values straight from raw counts with plain
Python arithmetic, deliberately avoiding the library's code paths; the
name-keyed ``optimize`` and ``objective`` wrap the engine's own solve.
"""

from __future__ import annotations

import math
import os
import random
import threading
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from conceptq import expansion, taxonomy
from conceptq.aggregate import (
    ObjectiveWeights, ScoreVector, _buckets, _evaluate_at, _positions, solve,
)
from conceptq.errors import DataFormatError, QueryParseError
from conceptq.expansion import ConceptRelevance, ExpansionModel, PairwiseConstraint
from conceptq.query import Membership
from conceptq.taxonomy import CooccurrenceRecord, Taxonomy, find_sorted, ingest, normalize


@contextmanager
def piped(data: bytes) -> Iterator[str]:
    """The path ``/dev/fd/N`` of a pipe's read end, which a thread fills
    with ``data``: unlike a regular file, it can be read only once. The
    thread stops once ``data`` is written or the read end is closed."""
    read_fd, write_fd = os.pipe()

    def write():
        with suppress(BrokenPipeError), open(write_fd, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        yield f"/dev/fd/{read_fd}"
    finally:
        os.close(read_fd)
        writer.join(timeout=60)
    assert not writer.is_alive()


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


def disjoint_concept_taxonomy() -> Taxonomy:
    """The short concepts of "red fast cult blue car": red and fast share mini,
    fast and cult share slingshot, and red and cult share nothing, so the
    seed runs are {mini} and {slingshot}. Blue car shares no entity with the
    others: it is in no largest subset and covers no seed of either run."""
    return ingest(
        [
            ("red car", "mini", 2), ("red car", "beetle", 1),
            ("fast car", "mini", 1), ("fast car", "slingshot", 2), ("fast car", "veyron", 3),
            ("cult car", "slingshot", 1), ("cult car", "delorean", 2),
            ("blue car", "smart", 2), ("blue car", "prius", 1),
            ("small car", "mini", 1), ("small car", "smart", 3), ("small car", "kei", 2),
        ]
    )


# -- planted instances -------------------------------------------------------


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
    seed: int = 0,
) -> PlantedInstance:
    """Build a taxonomy with a designated true answer set.

    Structure: ``n_modifiers`` short concepts each contain every answer
    (count 10, jittered by the seeded generator) plus their own noise
    entities (count 1); one equivalent concept contains exactly the answer
    set with count 1000; two related distractors, "popular" and "premium",
    mix the answers (count 500) with four junk entities outside the short
    concepts' union, so they pay the out-of-union penalty; one over-general
    concept is mostly junk and scores near the penalty floor; a pure-junk
    concept adds unrelated mass. The parameters and seed fully determine the
    instance.

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
    junk = [f"junk{j:02d}" for j in range(4)]

    records: list[CooccurrenceRecord] = []
    for m_index, modifier in enumerate(modifiers):
        concept = f"{modifier} {head}"
        for entity in answers:
            records.append(CooccurrenceRecord(concept, entity, 10 + rng.randint(0, 2)))
        for j in range(noise_per_concept):
            records.append(CooccurrenceRecord(concept, f"noise{m_index}{j:02d}", 1))

    equivalent = "collector favorite"
    for entity in answers:
        records.append(CooccurrenceRecord(equivalent, entity, 1000))

    for related in ("popular", "premium"):
        concept = f"{related} {head}"
        for entity in answers:
            records.append(CooccurrenceRecord(concept, entity, 500))
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


# -- line-by-line loader oracle ----------------------------------------------


def reference_load(path) -> Taxonomy:
    """``load`` as a plain loop over the file's lines: each line that is
    neither blank nor a ``#`` comment is split, checked and added on its own.
    """
    builder = taxonomy._Builder("line")
    with open(path, encoding="utf-8-sig") as fh:
        for line_num, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped[0] == "#":
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 3:
                raise DataFormatError(
                    f"line {line_num}: expected 3 tab-separated fields, got {len(fields)}",
                    row=line_num,
                )
            concept, entity, raw_count = fields
            try:
                count = int(raw_count.strip())
            except ValueError:
                raise DataFormatError(
                    f"line {line_num}: count must be an integer, got {raw_count!r}",
                    row=line_num,
                ) from None
            builder.add(line_num, concept, entity, count)
    return builder.build()


# -- name-keyed calls into the expansion's id-level code --------------------


def names_of(t: Taxonomy, ids) -> list[str]:
    """The entity names of the id array ``ids``, in its order."""
    return [t.entity_names[e] for e in ids.tolist()]


def e_union_ids(t: Taxonomy, short_concepts) -> np.ndarray:
    """The ascending entity ids of the entity union of ``short_concepts``."""
    return np.array(sorted(map(t.entity_id, oracle_e_union(t, short_concepts))), dtype=np.int64)


def known_concept(t: Taxonomy, concept: str) -> np.ndarray:
    """The id of ``concept`` as a one-element target array; ValueError if
    the taxonomy does not hold it."""
    cid = t.concept_id(concept)
    if cid is None:
        raise ValueError(f"concept {normalize(concept)!r} not in taxonomy")
    return np.array([cid])


def seed_ids(t: Taxonomy, seeds) -> np.ndarray:
    """Entity ids of the seed set, in seed-name order; ValueError if it is
    empty or names an entity the taxonomy does not hold."""
    names = sorted(set(seeds))
    if not names:
        raise ValueError("seed set is empty")
    ids = [t.entity_id(e) for e in names]
    if None in ids:
        raise ValueError(f"seed {names[ids.index(None)]!r} not in taxonomy")
    return np.array(ids, dtype=np.int64)


def g_penalty(t: Taxonomy, concept: str, short_concepts, delta: float) -> float:
    """g(c) of one concept against the entity union of ``short_concepts``,
    by the same ``_inside`` and ``_penalty`` that ``expand`` calls."""
    target = known_concept(t, concept)
    inside = expansion._inside(t, e_union_ids(t, short_concepts), target)
    return float(expansion._penalty(t, target, inside, delta)[0])


def relevance(t: Taxonomy, concept: str, seeds, short_concepts, model: ExpansionModel) -> float:
    """rel(c) of one concept to the seed entities under ``model.kind``,
    penalized against the entity union of ``short_concepts``, by the same
    ``_inside`` and ``_relevance`` that ``expand`` calls."""
    target = known_concept(t, concept)
    seeds = seed_ids(t, seeds)
    owner, concepts, counts = t.by_entity.rows(seeds)
    hit, slot = find_sorted(target, concepts)
    inside = expansion._inside(t, e_union_ids(t, short_concepts), target)
    pairs = owner[hit], slot, counts[hit]
    return float(expansion._relevance(t, seeds, pairs, target, inside, model)[0])


def entity_relevance(t: Taxonomy, concepts: Sequence[ConceptRelevance]) -> dict[str, float]:
    """rel(e) over the scored ``concepts`` by ``expand``'s own
    ``_entity_relevance``, keyed by name in its order."""
    ids = np.array([t.concept_id(cr.concept) for cr in concepts], dtype=np.int64)
    ids, scores = expansion._entity_relevance(t, ids, np.array([cr.score for cr in concepts]))
    return dict(zip([t.entity_names[e] for e in ids.tolist()], scores.tolist()))


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


def checked_relevance(
    t: Taxonomy, concept: str, seeds, short_concepts, model: ExpansionModel
) -> float:
    """``relevance``, whose float operations and so whose ties are the
    engine's, checked against the brute-force formula to 1e-12."""
    got = relevance(t, concept, seeds, short_concepts, model)
    if model.kind == "noisy_or":
        want = oracle_rel_noisy_or(t, concept, seeds, short_concepts, model.leak, model.delta)
    else:
        want = oracle_rel_naive_bayes(t, concept, seeds, short_concepts, model.gamma, model.delta)
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-300), (concept, got, want)
    return got


# -- expansion selection oracle -----------------------------------------------


def oracle_expand(
    t: Taxonomy, short_concepts: Sequence[str], model: ExpansionModel, top_k: int
) -> tuple[list[tuple[str, float]], dict[str, float], list[tuple[frozenset, frozenset]]]:
    """``expand``'s retained (concept, score) pairs, entity scores and
    (higher, lower) constraints for the short concepts, named as the
    taxonomy names them, by full sorts.

    The seed runs come from the subset lattice. Each run's candidates are
    every concept of its seeds and the query's own concepts, scored one at a
    time by ``checked_relevance``; all of them are sorted by score, those
    scoring above 0 and at least the ``top_k``-th best are kept with the
    query's own concepts, and the runs are pooled by summing. Each entity's
    score adds its terms n(c, e) / n(c) * rel(c) in plain floats by
    descending rel(c), equal rel(c) by ascending term, and the constraints
    come from the lattice's tiers.
    """
    short = list(dict.fromkeys(short_concepts))
    lattice = enumerate_subsets(t, short)
    runs = oracle_seed_runs(lattice, len(short))
    pooled: dict[str, float] = {}
    for seeds in runs:
        candidates = {c for e in seeds for c in t.concepts_of(e)}
        scores = {c: checked_relevance(t, c, seeds, short, model) for c in candidates | set(short)}
        best = sorted(scores.values(), reverse=True)
        kth = best[min(top_k, len(best)) - 1]
        kept = [c for c in scores if scores[c] > 0 and scores[c] >= kth]
        for c in dict.fromkeys(kept + short):
            pooled[c] = pooled.get(c, 0.0) + scores[c]
    concepts = sorted(pooled.items(), key=lambda item: (-item[1], item[0]))

    terms: dict[str, list[tuple[float, float]]] = {}
    for c, score in concepts:
        row = t.entities_of(c)
        n_c = sum(row.values())
        for e, n in row.items():
            terms.setdefault(e, []).append((-score, n / n_c * score))
    # one addition at a time: sum() compensates its rounding on Python 3.12
    entity_scores = {e: 0.0 for e in terms}
    for e, parts in terms.items():
        for _, term in sorted(parts):
            entity_scores[e] += term
    ranked_entities = sorted(entity_scores, key=lambda e: (-entity_scores[e], e))

    tiers = [entities for _, entities in oracle_tiers(lattice)]
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


# -- name-keyed calls into the aggregation's position-level code -------------
#
# An ordering is a sequence whose items are a name or a group (any iterable
# but a string) of names tied with each other.


def positions_of(r_b, r_c, r_p):
    """The name-ordered universe and the orderings and constraints as
    position arrays there, as ``optimize`` builds them."""
    r_b, r_c = _buckets(r_b), _buckets(r_c)
    names = sorted({*r_b[0], *r_c[0], *(e for c in r_p for e in c.higher | c.lower)})
    return names, _positions(names, r_b, r_c, r_p)


def optimize(r_b, r_c, r_p, weights: ObjectiveWeights | None = None):
    """``solve`` over names: the scores of the name-ordered universe and the
    names by descending score, ties by name."""
    if not r_b and not r_c:
        raise ValueError("need at least one non-empty ordering")
    names, positions = positions_of(r_b, r_c, r_p)
    s, order, steps, converged = solve(len(names), *positions, weights or ObjectiveWeights())
    scores = ScoreVector(s, steps, converged, names, np.arange(len(names)))
    return scores, [names[i] for i in order.tolist()]


def objective(scores, r_b, r_c, r_p, weights: ObjectiveWeights | None = None) -> float:
    """The weighted likelihood at ``scores``, whose gradient is ``gradient``."""
    return _evaluate_at(scores, r_b, r_c, r_p, weights)[0]


def finite_difference(scores, r_b, r_c, r_p, weights, entity, h=1e-5):
    """The central difference of ``objective`` along ``entity``'s score."""
    up = dict(scores)
    down = dict(scores)
    up[entity] += h
    down[entity] -= h
    return (
        objective(up, r_b, r_c, r_p, weights)
        - objective(down, r_b, r_c, r_p, weights)
    ) / (2 * h)


# -- entity-level aggregation oracle ----------------------------------------


def _oracle_terms(r_b, r_c, r_p, weights, names):
    """F(s) = lin . s + sum_t c_t log sum_{e in S_t} e^{s_e} + prior, as
    (lin, [(c_t, positions of S_t)]) over ``names``. An ordering's items are
    names or groups of tied names; each group but the last is one Breslow
    stage of its ordering, and a constraint is the one stage of the
    two-bucket order [higher, lower]."""
    index = {e: i for i, e in enumerate(names)}
    lin = np.zeros(len(names))
    terms = []
    for ordering, w in ((r_b, weights.baseline), (r_c, weights.alpha)):
        groups = [[item] if isinstance(item, str) else list(item) for item in ordering]
        for k, group in enumerate(groups[:-1]):
            for e in group:
                lin[index[e]] += w
            risk = [index[e] for later in groups[k:] for e in later]
            terms.append((-w * len(group), risk))
    for con in r_p:
        higher = [index[e] for e in con.higher]
        lin[higher] += weights.beta
        terms.append((-weights.beta * len(higher), higher + [index[e] for e in con.lower]))
    return lin, terms


def oracle_classes(r_b, r_c, r_p, weights):
    """The aggregation's classes over names, grouped in a dict: an entity's
    key is its tuple of buckets in the orderings that count (weight > 0 and
    two buckets or more; a constraint is [higher, lower]), one past the last
    bucket for an entity outside one. Returns the name-ordered universe, the
    counted orderings' weights, the distinct keys in ascending order and
    each entity's class, an index into them."""
    def groups(ordering):
        return [{item} if isinstance(item, str) else set(item) for item in ordering]

    orderings = [(groups(r_b), weights.baseline), (groups(r_c), weights.alpha)]
    orderings += [([con.higher, con.lower], weights.beta) for con in r_p]
    counted = [(buckets, w) for buckets, w in orderings if w > 0 and len(buckets) >= 2]
    names = sorted(
        {e for buckets, _ in orderings[:2] for bucket in buckets for e in bucket}
        | {e for con in r_p for e in con.higher | con.lower}
    )
    members: dict[tuple[int, ...], list[str]] = {}
    for e in names:
        key = tuple(
            next((k for k, bucket in enumerate(buckets) if e in bucket), len(buckets))
            for buckets, _ in counted
        )
        members.setdefault(key, []).append(e)
    keys = sorted(members)
    class_of = {e: i for i, key in enumerate(keys) for e in members[key]}
    return names, [w for _, w in counted], keys, [class_of[e] for e in names]


def oracle_map_scores(r_b, r_c, r_p, weights, a=0.01, b=0.01) -> dict[str, float]:
    """The maximizer of the aggregation posterior over single entities,
    re-centred to mean zero, with no two entities merged: Newton steps on
    the dense Hessian, summed term by term, halved while they lower F, from
    s = 0 until a full step moves no score by 1e-10. F is strictly concave,
    so the maximizer is unique."""
    names = sorted(
        {e for ordering in (r_b, r_c) for item in ordering
         for e in ([item] if isinstance(item, str) else item)}
        | {e for con in r_p for e in con.higher | con.lower}
    )
    lin, terms = _oracle_terms(r_b, r_c, r_p, weights, names)

    def posterior(s):
        value = float(lin @ s + np.sum(a * s - b * np.exp(s)))
        grad = lin + a - b * np.exp(s)
        hessian = -np.diag(b * np.exp(s))
        for c, members in terms:
            top = max(s[members])
            expo = np.exp(s[members] - top)
            value += c * (top + math.log(expo.sum()))
            p = expo / expo.sum()
            grad[members] += c * p
            hessian[np.ix_(members, members)] += c * (np.diag(p) - np.outer(p, p))
        return value, grad, hessian

    s = np.zeros(len(names))
    f, g, h = posterior(s)
    for _ in range(500):
        d = np.linalg.solve(-h, g)
        t = 1.0
        # a gain below F's rounding cannot be seen, and a full step is taken
        while g @ d > 1e-12 * (1.0 + abs(f)) and posterior(s + t * d)[0] < f:
            t /= 2
        s = s + t * d
        f, g, h = posterior(s)
        if t == 1.0 and np.max(np.abs(d)) < 1e-10:
            return dict(zip(names, (s - s.mean()).tolist()))
    raise AssertionError("oracle did not converge")


# -- whole-query oracle -----------------------------------------------------------


def oracle_parse(t: Taxonomy, raw_query: str, head: str | None = None) -> list[str]:
    """The query's short concepts that the taxonomy holds, in modifier
    order, each once: "modifier head" for each modifier, the head being
    the last word unless ``head`` names a multi-word one."""
    words = normalize(raw_query).split()
    head_words = normalize(head).split() if head else words[-1:]
    assert 0 < len(head_words) < len(words) and words[-len(head_words):] == head_words
    head = " ".join(head_words)
    known = set(t.concept_names)
    short = [f"{m} {head}" for m in words[: -len(head_words)]]
    return list(dict.fromkeys(c for c in short if c in known))


def oracle_baseline(t: Taxonomy, short_concepts: Sequence[str]) -> dict[str, float]:
    """Baseline weights of E_u, by descending weight then name: A^T times the
    projection of the all-ones vector onto the top eigenspace of A A^T, from
    a dense eigen-solve over a name-indexed A, max-normalized and rounded to
    12 decimals as the baseline module does."""
    entities = sorted(oracle_e_union(t, short_concepts))
    a = np.array([[float(e in t.entities_of(c)) for e in entities] for c in short_concepts])
    eigvals, eigvecs = np.linalg.eigh(a @ a.T)
    top = eigvecs[:, eigvals >= eigvals[-1] * (1.0 - 1e-9)]
    w = a.T @ (top @ top.sum(axis=0))
    w = np.round(w / w.max(), 12) + 0.0
    weights = dict(zip(entities, w.tolist()))
    return {e: weights[e] for e in sorted(entities, key=lambda e: (-weights[e], e))}


def tied(names: Sequence[str], values: Sequence[float], tol: float = 0.0) -> list[list[str]]:
    """The names, ordered by descending ``values``, as groups of tied names:
    a run of values each within ``tol`` of the previous one is one group."""
    groups: list[list[str]] = []
    for i, (name, value) in enumerate(zip(names, values)):
        if i and abs(values[i - 1] - value) <= tol:
            groups[-1].append(name)
        else:
            groups.append([name])
    return groups


def oracle_run_query(
    t: Taxonomy, raw_query: str, config
) -> tuple[dict[str, float], dict[str, str], list[tuple[str, float]]]:
    """``run_query``'s scores and provenance by entity name, and its retained
    (concept, score) pairs, from the stage oracles over names and plain
    dicts; it calls none of the engine's stages.

    R_b groups baseline weights that agree within 1e-9, since the dense
    eigen-solve may differ from the engine's in the last bits. R_c groups
    equal rel(e), which ``oracle_expand`` sums in the engine's term order
    from rel(c) with the engine's float ties (``checked_relevance``)."""
    short = oracle_parse(t, raw_query, config.head)
    model, top_k = config.expansion_model(), config.concepts_top_k
    concepts, rel_e, tier_pairs = oracle_expand(t, short, model, top_k)
    r_p = [PairwiseConstraint(hi, lo) for hi, lo in tier_pairs]
    weights = oracle_baseline(t, short)
    r_b = tied(list(weights), list(weights.values()), 1e-9)
    r_c = tied(list(rel_e), list(rel_e.values()))
    scores = oracle_map_scores(r_b, r_c, r_p, config.weights())

    union = oracle_e_union(t, short)
    seeds = frozenset().union(*oracle_seed_runs(enumerate_subsets(t, short), len(short)))
    provenance = {
        e: "seed" if e in seeds else "baseline-only" if e in union else "expanded"
        for e in scores
    }
    return scores, provenance, concepts
