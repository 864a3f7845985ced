"""Query parsing, decomposition into short concepts, and membership patterns.

A long concept query names one head noun qualified by several modifiers
("top american private university"). The engine rewrites it into short
concepts, one per modifier ("top university", "american university",
"private university"), and reads which of them contain each entity of their
union E_u: one k x |E_u| membership matrix per query.

The distinct columns of that matrix are the entities' membership patterns.
An entity's pattern is the largest subset of the short concepts whose
intersection holds it, so the patterns of largest size are the largest
subsets with a non-empty intersection (the full set when its intersection
is not empty), and the entities with exactly such a pattern are that
subset's intersection.
These are the closed itemsets of formal concept analysis; finding them needs
one pass over E_u instead of all 2^k subsets.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import QueryParseError, UnanswerableQueryError
from .taxonomy import Taxonomy, normalize

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LongConceptQuery:
    raw: str
    head: str
    modifiers: tuple[str, ...]


@dataclass(frozen=True)
class Decomposition:
    """Short concepts resolved in the taxonomy, plus modifiers that were not."""

    short_concepts: tuple[str, ...]
    unresolved: tuple[str, ...]


@dataclass(frozen=True)
class MembershipPattern:
    """A subset of the query's short concepts and the entities of E_u whose
    membership pattern is exactly that subset; ``size`` is its popcount."""

    subset: frozenset[str]
    entities: frozenset[str]
    size: int


@dataclass(frozen=True, eq=False)
class Membership:
    """The k x |E_u| membership matrix of a query's short concepts.

    ``matrix[i, j]`` is 1.0 when ``concepts[i]`` contains the entity with id
    ``ids[j]``; the columns are E_u in ascending id order, and a concept
    missing from the taxonomy has a zero row. ``patterns`` lists each
    distinct column once, by size descending and then by sorted member
    names, which is the order of the subset lattice.
    """

    concepts: tuple[str, ...]
    ids: np.ndarray
    matrix: np.ndarray
    patterns: list[MembershipPattern]

    def seed_runs(self) -> list[MembershipPattern]:
        """The patterns of largest size: the full intersection when it is not
        empty, else the intersections of the largest subsets whose
        intersection is not empty."""
        return [p for p in self.patterns if p.size == self.patterns[0].size]


def parse(raw: str, head_override: str | None = None) -> LongConceptQuery:
    """Split a raw query into head and modifiers.

    The head is the last whitespace token unless ``head_override`` gives a
    multi-word head, which must literally terminate the query string.
    """
    norm = normalize(raw)
    tokens = norm.split()
    if len(tokens) < 2:
        raise QueryParseError(
            f"query {raw!r} needs a head and at least one modifier"
        )
    if head_override is not None:
        head = normalize(head_override)
        if not head:
            raise QueryParseError("head override is empty")
        if norm == head or not norm.endswith(" " + head):
            raise QueryParseError(
                f"head override {head_override!r} must be a proper suffix of the query"
            )
        modifiers = tuple(norm[: -len(head)].split())
    else:
        head = tokens[-1]
        modifiers = tuple(tokens[:-1])
    if not modifiers:
        raise QueryParseError(f"query {raw!r} has no modifiers")
    return LongConceptQuery(raw=raw, head=head, modifiers=modifiers)


def decompose(query: LongConceptQuery, taxonomy: Taxonomy) -> Decomposition:
    """Resolve each "modifier + head" short concept against the taxonomy.

    Modifiers whose short concept is absent are dropped with a warning; if
    none resolves the query cannot be answered over this taxonomy.
    """
    resolved: dict[str, None] = {}
    unresolved: list[str] = []
    for modifier in query.modifiers:
        short = f"{modifier} {query.head}"
        if taxonomy.has_concept(short):
            resolved.setdefault(short, None)
        else:
            unresolved.append(modifier)
    if not resolved:
        raise UnanswerableQueryError(
            f"query {query.raw!r} is not answerable over this taxonomy: "
            "no modifier resolves to a known short concept"
        )
    if unresolved:
        logger.warning(
            "query %r: dropping unresolved modifiers %s", query.raw, unresolved
        )
    return Decomposition(
        short_concepts=tuple(resolved), unresolved=tuple(unresolved)
    )


def membership(taxonomy: Taxonomy, short_concepts: Iterable[str]) -> Membership:
    """Read the short concepts' rows once into their membership matrix and
    group E_u by membership pattern."""
    concepts = tuple(dict.fromkeys(short_concepts))
    if not concepts:
        raise ValueError("short concept set is empty")
    cids = [taxonomy.concept_id(c) for c in concepts]
    known = np.array([i for i, cid in enumerate(cids) if cid is not None], dtype=np.int64)
    owner, entities, _ = taxonomy.by_concept.rows(np.array([cids[i] for i in known], dtype=np.int64))
    ids, column = np.unique(entities, return_inverse=True)
    matrix = np.zeros((len(concepts), len(ids)))
    matrix[known[owner], column] = 1.0

    # Sorting the columns makes equal patterns adjacent; each run of equal
    # columns is one pattern.
    bits = matrix.astype(bool)
    order = np.lexsort(bits)
    bits = bits[:, order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (bits[:, 1:] != bits[:, :-1]).any(axis=0)
    starts = np.flatnonzero(first).tolist()
    names = [taxonomy.entity_names[e] for e in ids[order].tolist()]
    runs = []
    for lo, hi in zip(starts, starts[1:] + [len(order)]):
        members = tuple(sorted(concepts[i] for i in np.flatnonzero(bits[:, lo]).tolist()))
        runs.append((members, frozenset(names[lo:hi])))
    runs.sort(key=lambda run: (-len(run[0]), run[0]))
    patterns = [MembershipPattern(frozenset(m), entities, len(m)) for m, entities in runs]
    return Membership(concepts, ids, matrix, patterns)
