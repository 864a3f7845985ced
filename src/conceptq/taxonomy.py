"""Concept-entity co-occurrence store backing all probability estimates.

The source data is a bipartite multiset of isA facts: a concept string, an
entity string, and how many times the pair was observed together. Ingestion
normalizes each distinct raw name once, interns concepts and entities to
dense ids in first-seen order, merges duplicate pairs, and keeps:

* ``n(c, e)`` -- pair counts, as read-only CSR arrays in both orientations
  (concept -> entity ids + counts, entity -> concept ids + counts), each row
  sorted by id
* ``n(c)``    -- ``n_c``, total count of concept c over its entities
* ``n(e)``    -- ``n_e``, total count of entity e over its concepts
* ``deg(c)``  -- ``deg_c``, the number of distinct entities of concept c
* ``N``       -- ``grand_total``, the sum over all pairs

The per-id vectors are int64 and read-only. Conditional probabilities are
plain ratios, ``P(c|e) = n(c,e) / n(e)`` and ``P(e|c) = n(c,e) / n(c)``;
priors are ``P(c) = n(c) / N`` and ``P(e) = n(e) / N``. Hot paths work on the
ids and arrays directly; the name-keyed lookups below normalize their
arguments and return zero counts or empty mappings for unknown names.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import DataFormatError, EngineError

# Counts are summed in int64; the total of all rows must stay below this.
_COUNT_LIMIT = 2**63


def normalize(text: str) -> str:
    """Lowercase ``text`` and collapse runs of whitespace to single spaces."""
    return " ".join(text.split()).lower()


@dataclass(frozen=True)
class CooccurrenceRecord:
    """One ingestion row: a concept-entity pair with a positive count."""

    concept: str
    entity: str
    count: int


def _frozen(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class Csr:
    """Compressed rows: row ``i`` holds ``ids[ptr[i]:ptr[i+1]]`` (ascending)
    and their pair counts ``counts[ptr[i]:ptr[i+1]]``."""

    ptr: np.ndarray
    ids: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_pairs(cls, n_rows: int, rows: np.ndarray, cols: np.ndarray, counts: np.ndarray) -> Csr:
        """Rows of merged pairs; ``rows`` must be sorted, ``cols`` ascending within a row."""
        ptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n_rows), out=ptr[1:])
        return cls(_frozen(ptr), _frozen(cols.astype(np.int32, copy=False)), _frozen(counts))

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.ptr[i], self.ptr[i + 1]
        return self.ids[lo:hi], self.counts[lo:hi]

    def rows(self, which: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows ``which``, concatenated in that order, as
        (position in ``which`` of each pair, column ids, counts)."""
        starts = self.ptr[which]
        lengths = self.ptr[which + 1] - starts
        owner = np.repeat(np.arange(len(which)), lengths)
        pos = np.arange(int(lengths.sum())) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        return owner, self.ids[pos], self.counts[pos]

    def row_sums(self) -> np.ndarray:
        sums = np.zeros(len(self.counts) + 1, dtype=np.int64)
        np.cumsum(self.counts, out=sums[1:])
        return sums[self.ptr[1:]] - sums[self.ptr[:-1]]

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(row id, column id) of every stored pair, in storage order."""
        return np.repeat(np.arange(len(self.ptr) - 1), np.diff(self.ptr)), self.ids


class _NameVector(Mapping):
    """Read-only ``name -> int`` view of an id-indexed vector."""

    def __init__(self, ids: Mapping[str, int], values: np.ndarray):
        self._ids = ids
        self._values = values

    def __getitem__(self, name: str) -> int:
        return int(self._values[self._ids[name]])

    def __iter__(self) -> Iterator[str]:
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)


class Taxonomy:
    """Immutable bipartite index of concept-entity co-occurrence counts.

    Instances are built by :func:`ingest`, :func:`load` or
    :meth:`without_edges` and never mutated afterwards, so all lookups are
    safe for unrestricted concurrent use. Dense ids follow first-seen stream
    order; they are an indexing convenience -- equality between taxonomies
    compares counts by name only.
    """

    def __init__(self, concept_ids: dict[str, int], entity_ids: dict[str, int],
                 rows: np.ndarray, cols: np.ndarray, counts: np.ndarray,
                 by_entity: Csr | None = None):
        """Index merged pairs sorted by (concept id, entity id). The id maps
        list every name once, in id order, and every name must have a pair.
        ``by_entity``, if given, is the same pairs' entity orientation.
        Use :func:`ingest` or :func:`load`."""
        self.concept_names = list(concept_ids)
        self.entity_names = list(entity_ids)
        self._concept_ids = concept_ids
        self._entity_ids = entity_ids
        self.concept_ids = MappingProxyType(concept_ids)
        self.entity_ids = MappingProxyType(entity_ids)
        counts = counts.astype(np.int64, copy=False)
        self.by_concept = Csr.from_pairs(len(concept_ids), rows, cols, counts)
        if by_entity is None:
            by_col = np.argsort(cols, kind="stable")
            by_entity = Csr.from_pairs(len(entity_ids), cols[by_col], rows[by_col], counts[by_col])
        self.by_entity = by_entity
        self.n_c = _frozen(self.by_concept.row_sums())
        self.n_e = _frozen(self.by_entity.row_sums())
        self.deg_c = _frozen(np.diff(self.by_concept.ptr))
        self.grand_total = int(self.n_c.sum())
        self.concept_totals = _NameVector(self.concept_ids, self.n_c)
        self.entity_totals = _NameVector(self.entity_ids, self.n_e)

    # -- ids and name order ----------------------------------------------

    def concept_id(self, concept: str) -> int | None:
        return self._concept_ids.get(normalize(concept))

    def entity_id(self, entity: str) -> int | None:
        return self._entity_ids.get(normalize(entity))

    @cached_property
    def concept_rank(self) -> np.ndarray:
        """Sort key of each concept id that follows name order, for tie-breaks."""
        return _name_ranks(self.concept_names)

    @cached_property
    def entity_rank(self) -> np.ndarray:
        """Sort key of each entity id that follows name order, for tie-breaks."""
        return _name_ranks(self.entity_names)

    # -- lookups ----------------------------------------------------------

    @property
    def concepts(self):
        return self._concept_ids.keys()

    @property
    def entities(self):
        return self._entity_ids.keys()

    @property
    def n_edges(self) -> int:
        return len(self.by_concept.ids)

    def has_concept(self, concept: str) -> bool:
        return self.concept_id(concept) is not None

    def has_entity(self, entity: str) -> bool:
        return self.entity_id(entity) is not None

    def entities_of(self, concept: str) -> Mapping[str, int]:
        """Entities of ``concept`` with their counts; empty if unknown."""
        return _named_row(self.by_concept, self.concept_id(concept), self.entity_names)

    def concepts_of(self, entity: str) -> Mapping[str, int]:
        """Concepts of ``entity`` with their counts; empty if unknown."""
        return _named_row(self.by_entity, self.entity_id(entity), self.concept_names)

    def count(self, concept: str, entity: str) -> int:
        """n(c, e); 0 when the pair was never observed."""
        c, e = self.concept_id(concept), self.entity_id(entity)
        if c is None or e is None:
            return 0
        ids, counts = self.by_concept.row(c)
        i = int(np.searchsorted(ids, e))
        return int(counts[i]) if i < len(ids) and ids[i] == e else 0

    def records(self) -> Iterator[CooccurrenceRecord]:
        """Merged records, by concept id and then entity id."""
        rows, cols = self.by_concept.pairs()
        for c, e, n in zip(rows.tolist(), cols.tolist(), self.by_concept.counts.tolist()):
            yield CooccurrenceRecord(self.concept_names[c], self.entity_names[e], n)

    def without_edges(self, concepts: Iterable[str], entities: Iterable[str]) -> Taxonomy:
        """A copy without the pairs joining any of ``concepts`` to any of
        ``entities``; concepts and entities left with no pair are dropped."""
        drop_c = np.zeros(len(self.concept_names), dtype=bool)
        drop_e = np.zeros(len(self.entity_names), dtype=bool)
        drop_c[[i for i in map(self.concept_id, concepts) if i is not None]] = True
        drop_e[[i for i in map(self.entity_id, entities) if i is not None]] = True
        rows, cols = self.by_concept.pairs()
        keep = ~(drop_c[rows] & drop_e[cols])
        rows, cols, counts = rows[keep], cols[keep], self.by_concept.counts[keep]
        concept_ids, new_c, kept_c = _compact(self.concept_names, self._concept_ids, rows)
        entity_ids, new_e, kept_e = _compact(self.entity_names, self._entity_ids, cols)
        # The renumbering keeps id order, so the entity orientation's kept
        # pairs are still sorted and need no argsort.
        e_rows, e_cols = self.by_entity.pairs()
        keep = ~(drop_e[e_rows] & drop_c[e_cols])
        by_entity = Csr.from_pairs(len(entity_ids), new_e[e_rows[keep]], new_c[e_cols[keep]],
                                   self.by_entity.counts[keep])
        reduced = Taxonomy(concept_ids, entity_ids, new_c[rows], new_e[cols], counts, by_entity)
        # A subset of the name ranks still sorts by name.
        reduced.concept_rank = _frozen(self.concept_rank[kept_c])
        reduced.entity_rank = _frozen(self.entity_rank[kept_e])
        return reduced

    # -- integrity ---------------------------------------------------------

    def check_marginals(self) -> None:
        """Re-derive all marginals from the pair counts and compare exactly."""
        if not np.array_equal(self.by_concept.row_sums(), self.n_c):
            raise EngineError("concept totals disagree with pair counts")
        column_sums = np.zeros(len(self.entity_names), dtype=np.int64)
        np.add.at(column_sums, self.by_concept.ids, self.by_concept.counts)
        if not (np.array_equal(self.by_entity.row_sums(), self.n_e)
                and np.array_equal(column_sums, self.n_e)):
            raise EngineError("entity totals disagree with pair counts")
        grand = int(self.by_concept.counts.sum())
        if grand != self.grand_total or grand != int(self.by_entity.counts.sum()):
            raise EngineError("grand total disagrees with pair counts")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Taxonomy):
            return NotImplemented
        return set(self.records()) == set(other.records())

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"Taxonomy({len(self.concept_names)} concepts, "
            f"{len(self.entity_names)} entities, {self.n_edges} edges, "
            f"total {self.grand_total})"
        )


def _name_ranks(names: list[str]) -> np.ndarray:
    ranks = np.empty(len(names), dtype=np.int64)
    ranks[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    return _frozen(ranks)


def name_order(rank: np.ndarray, ids: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Positions of ``ids`` by descending score, ties by name ``rank``
    (``Taxonomy.concept_rank`` or ``Taxonomy.entity_rank``)."""
    return np.lexsort((rank[ids], -scores))


def _named_row(csr: Csr, i: int | None, names: list[str]) -> Mapping[str, int]:
    if i is None:
        return MappingProxyType({})
    ids, counts = csr.row(i)
    return MappingProxyType(dict(zip([names[j] for j in ids.tolist()], counts.tolist())))


def _compact(
    names: list[str], ids: dict[str, int], refs: np.ndarray
) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
    """Drop the names no id in ``refs`` refers to and renumber in the same
    order: the new ``name -> id`` map, each old id's new id and the old ids
    kept. When every name is kept the map is shared, not copied."""
    used = np.zeros(len(names), dtype=bool)
    used[refs] = True
    kept = np.flatnonzero(used)
    if len(kept) < len(names):
        ids = {names[old]: new for new, old in enumerate(kept.tolist())}
    return ids, np.cumsum(used) - 1, kept


def entity_union(taxonomy: Taxonomy, concepts: Iterable[str]) -> frozenset[str]:
    """Union of the entity sets of ``concepts``."""
    out: set[str] = set()
    for c in concepts:
        out.update(taxonomy.entities_of(c))
    return frozenset(out)


def entity_intersection(taxonomy: Taxonomy, concepts: Iterable[str]) -> frozenset[str]:
    """Entities shared by every concept in ``concepts``; empty for no concepts."""
    concepts = list(concepts)
    if not concepts:
        return frozenset()
    out = set(taxonomy.entities_of(concepts[0]))
    for c in concepts[1:]:
        out &= set(taxonomy.entities_of(c))
        if not out:
            break
    return frozenset(out)


class _Builder:
    """The one validating ingestion path: checks each row, interns its names
    and collects ``(concept id, entity id, count)`` triples for a Taxonomy.

    Each distinct raw name is normalized once. ``unit`` ("row" or "line")
    names the 1-based position in error messages.
    """

    def __init__(self, unit: str):
        self.unit = unit
        self.concepts: dict[str, int] = {}
        self.entities: dict[str, int] = {}
        # Raw spellings that are not already normalized, mapped to their id.
        self._raw_concepts: dict[str, int] = {}
        self._raw_entities: dict[str, int] = {}
        self._c = array("i")
        self._e = array("i")
        self._n = array("q")

    def _fail(self, num: int, message: str):
        raise DataFormatError(f"{self.unit} {num}: {message}", row=num)

    def add(self, num: int, concept: str, entity: str, count) -> None:
        if isinstance(count, bool) or not isinstance(count, int):
            self._fail(num, f"count must be an integer, got {count!r}")
        if count < 1:
            self._fail(num, f"count must be >= 1, got {count}")
        if count >= _COUNT_LIMIT:
            self._fail(num, f"count must be < 2**63, got {count}")
        cid = self.concepts.get(concept)
        if cid is None:
            cid = _intern(concept, self.concepts, self._raw_concepts)
        eid = self.entities.get(entity)
        if eid is None:
            eid = _intern(entity, self.entities, self._raw_entities)
        if cid < 0 or eid < 0:
            self._fail(num, "empty concept or entity name")
        self._c.append(cid)
        self._e.append(eid)
        self._n.append(count)

    def build(self) -> Taxonomy:
        if sum(self._n) >= _COUNT_LIMIT:
            raise DataFormatError("counts total 2**63 or more; totals must fit in 64 bits")
        # Intermediate arrays are dropped as soon as possible: load's peak
        # memory is set here.
        n_e = max(1, len(self.entities))
        keys = np.frombuffer(self._c, dtype=np.int32).astype(np.int64) * n_e
        keys += np.frombuffer(self._e, dtype=np.int32)
        self._c = self._e = None
        order = np.argsort(keys)
        keys = keys[order]
        counts = np.frombuffer(self._n, dtype=np.int64)[order]
        self._n = order = None
        first = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        counts = np.add.reduceat(counts, np.flatnonzero(first)) if len(keys) else counts
        keys = keys[first]
        rows = (keys // n_e).astype(np.int32)
        cols = (keys % n_e).astype(np.int32)
        keys = first = None
        return Taxonomy(self.concepts, self.entities, rows, cols, counts)


def _intern(raw: str, ids: dict[str, int], raw_ids: dict[str, int]) -> int:
    """Id of ``raw``'s normalized form, added if new; -1 for an empty name."""
    i = raw_ids.get(raw)
    if i is None:
        name = normalize(raw)
        if not name:
            return -1
        i = ids.setdefault(name, len(ids))
        if name != raw:
            raw_ids[raw] = i
    return i


def ingest(records: Iterable) -> Taxonomy:
    """Build a Taxonomy from a stream of rows, merging duplicate pairs.

    Rows may be :class:`CooccurrenceRecord` instances or plain
    ``(concept, entity, count)`` triples. Strings are normalized; a malformed
    row (missing field, empty name, non-integer or non-positive count) aborts
    ingestion with its 1-based row number.
    """
    builder = _Builder("row")
    for row_num, row in enumerate(records, start=1):
        if isinstance(row, CooccurrenceRecord):
            concept, entity, count = row.concept, row.entity, row.count
        else:
            try:
                concept, entity, count = row
            except (TypeError, ValueError):
                raise DataFormatError(
                    f"row {row_num}: expected (concept, entity, count)", row=row_num
                ) from None
        if not isinstance(concept, str) or not isinstance(entity, str):
            raise DataFormatError(
                f"row {row_num}: concept and entity must be strings", row=row_num
            )
        builder.add(row_num, concept, entity, count)
    return builder.build()


def data_lines(path) -> Iterator[tuple[int, str]]:
    """Each line of a UTF-8 text file that is neither blank nor a ``#``
    comment, without its newline and with its 1-based line number. A leading
    byte-order mark is not part of the first line."""
    with open(path, encoding="utf-8-sig") as fh:
        for line_num, line in enumerate(fh, start=1):
            stripped = line.strip()
            if stripped and stripped[0] != "#":
                yield line_num, line.rstrip("\n")


def load(path) -> Taxonomy:
    """Read a taxonomy file: ``concept<TAB>entity<TAB>count`` per line.

    Lines starting with ``#`` and blank lines are skipped. There is no
    quoting; a TAB inside a name is unsupported. Malformed lines raise
    :class:`DataFormatError` naming the 1-based physical line number. The
    file is streamed: no per-line record objects are kept.
    """
    builder = _Builder("line")
    for line_num, line in data_lines(path):
        fields = line.split("\t")
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
