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
ids and arrays directly, and a marginal is read by id, as
``n_c[concept_id(c)]``. The name-keyed lookups below normalize their
arguments and return None, zero counts or empty mappings for unknown names.

A taxonomy is never mutated, so the hold-out cut (``without_edges``) reads
only the cut rows and shares with its parent every read-only array, name
list, id map and name rank that the cut leaves as it was.
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

    def _spans(self, which: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(position in ``which``, storage position) of every pair of the
        rows ``which``, concatenated in that order."""
        starts = self.ptr[which]
        lengths = self.ptr[which + 1] - starts
        owner = np.repeat(np.arange(len(which)), lengths)
        pos = np.arange(int(lengths.sum())) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        return owner, pos

    def rows(self, which: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows ``which``, concatenated in that order, as
        (position in ``which`` of each pair, column ids, counts)."""
        owner, pos = self._spans(which)
        return owner, self.ids[pos], self.counts[pos]

    def find(self, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Storage positions of the pairs joining one of ``rows`` to one of
        ``cols``, ascending, and the row of each. Both id arrays must be
        ascending and ``cols`` non-empty; only the ``rows`` are read."""
        owner, pos = self._spans(rows)
        hit, _ = find_sorted(cols, self.ids[pos])
        return pos[hit], rows[owner[hit]]

    def without(self, positions: np.ndarray) -> Csr:
        """These rows without the pairs at the ascending storage ``positions``."""
        return Csr(_frozen(self.ptr - np.searchsorted(positions, self.ptr)),
                   _frozen(np.delete(self.ids, positions)),
                   _frozen(np.delete(self.counts, positions)))

    def drop(self, rows: np.ndarray, cols: np.ndarray) -> Csr:
        """Without the empty ``rows`` and with the ids after each dropped
        column in ``cols`` moved down to close the gap (both ascending)."""
        ids = (self.ids - np.searchsorted(cols, self.ids)).astype(np.int32)
        return Csr(_frozen(np.delete(self.ptr, rows)), _frozen(ids), self.counts)

    def row_sums(self) -> np.ndarray:
        sums = np.zeros(len(self.counts) + 1, dtype=np.int64)
        np.cumsum(self.counts, out=sums[1:])
        return sums[self.ptr[1:]] - sums[self.ptr[:-1]]

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(row id, column id) of every stored pair, in storage order."""
        return np.repeat(np.arange(len(self.ptr) - 1), np.diff(self.ptr)), self.ids


class Taxonomy:
    """Immutable bipartite index of concept-entity co-occurrence counts.

    Instances are built by :func:`ingest`, :func:`load` or
    :meth:`without_edges` and never mutated afterwards, so all lookups are
    safe for unrestricted concurrent use. That is also why a cut shares its
    parent's read-only arrays, name lists and id maps wherever they did not
    change. Dense ids follow first-seen stream order; they are an indexing
    convenience -- equality between taxonomies compares counts by name only.
    """

    def __init__(self, concept_names: list[str], entity_names: list[str],
                 concept_ids: dict[str, int], entity_ids: dict[str, int],
                 by_concept: Csr, by_entity: Csr,
                 n_c: np.ndarray, n_e: np.ndarray, grand_total: int):
        """Wrap prebuilt parts without copying them: the names in id order,
        their id maps, both orientations of the same pairs and the read-only
        marginals. Every name must have a pair, and no part may be mutated
        afterwards. Use :func:`ingest`, :func:`load` or :meth:`without_edges`."""
        self.concept_names = concept_names
        self.entity_names = entity_names
        self._concept_ids = concept_ids
        self._entity_ids = entity_ids
        self.by_concept = by_concept
        self.by_entity = by_entity
        self.n_c = n_c
        self.n_e = n_e
        self.deg_c = _frozen(np.diff(by_concept.ptr))
        self.grand_total = grand_total

    @classmethod
    def from_pairs(cls, concept_ids: dict[str, int], entity_ids: dict[str, int],
                   rows: np.ndarray, cols: np.ndarray, counts: np.ndarray) -> Taxonomy:
        """Index merged pairs sorted by (concept id, entity id). The id maps
        list every name once, in id order, and every name must have a pair."""
        counts = counts.astype(np.int64, copy=False)
        by_concept = Csr.from_pairs(len(concept_ids), rows, cols, counts)
        by_col = np.argsort(cols, kind="stable")
        by_entity = Csr.from_pairs(len(entity_ids), cols[by_col], rows[by_col], counts[by_col])
        n_c = _frozen(by_concept.row_sums())
        return cls(list(concept_ids), list(entity_ids), concept_ids, entity_ids,
                   by_concept, by_entity, n_c, _frozen(by_entity.row_sums()), int(n_c.sum()))

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
        """A taxonomy without the pairs joining any of ``concepts`` to any of
        ``entities``; concepts and entities left with no pair are dropped.

        Only the cut rows are read: the cut pairs are deleted from both
        orientations and subtracted from the marginals. The name lists, id
        maps and name ranks are shared with this taxonomy unless a name loses
        its last pair; a cut that removes nothing returns this taxonomy."""
        cut_c = _known_ids(map(self.concept_id, concepts))
        cut_e = _known_ids(map(self.entity_id, entities))
        if not (len(cut_c) and len(cut_e)):
            return self
        at_c, of_c = self.by_concept.find(cut_c, cut_e)
        if not len(at_c):
            return self
        at_e, of_e = self.by_entity.find(cut_e, cut_c)
        removed = self.by_concept.counts[at_c]
        n_c, n_e = self.n_c.copy(), self.n_e.copy()
        np.subtract.at(n_c, of_c, removed)
        np.subtract.at(n_e, of_e, self.by_entity.counts[at_e])
        by_concept, by_entity = self.by_concept.without(at_c), self.by_entity.without(at_e)
        c_names, c_ids, c_rank = self.concept_names, self._concept_ids, self.concept_rank
        e_names, e_ids, e_rank = self.entity_names, self._entity_ids, self.entity_rank
        # Counts are positive, so a zero total is an emptied row.
        gone_c, gone_e = cut_c[n_c[cut_c] == 0], cut_e[n_e[cut_e] == 0]
        if len(gone_c) or len(gone_e):
            by_concept, by_entity = by_concept.drop(gone_c, gone_e), by_entity.drop(gone_e, gone_c)
            n_c, n_e = np.delete(n_c, gone_c), np.delete(n_e, gone_e)
            c_names, c_ids, c_rank = _compact(c_names, c_ids, c_rank, gone_c)
            e_names, e_ids, e_rank = _compact(e_names, e_ids, e_rank, gone_e)
        reduced = Taxonomy(c_names, e_names, c_ids, e_ids, by_concept, by_entity,
                           _frozen(n_c), _frozen(n_e), self.grand_total - int(removed.sum()))
        reduced.concept_rank, reduced.entity_rank = c_rank, e_rank
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


def find_sorted(targets: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which of ``ids`` are among the ascending, non-empty ``targets``, and
    the slots there of those that are."""
    slot = np.searchsorted(targets, ids)
    hit = targets[np.minimum(slot, len(targets) - 1)] == ids
    return hit, slot[hit]


def _named_row(csr: Csr, i: int | None, names: list[str]) -> Mapping[str, int]:
    if i is None:
        return MappingProxyType({})
    ids, counts = csr.row(i)
    return MappingProxyType(dict(zip([names[j] for j in ids.tolist()], counts.tolist())))


def _known_ids(ids: Iterable[int | None]) -> np.ndarray:
    """The distinct ids that are not None, ascending."""
    return np.unique(np.array([i for i in ids if i is not None], dtype=np.int64))


def _compact(
    names: list[str], ids: dict[str, int], rank: np.ndarray, dropped: np.ndarray
) -> tuple[list[str], dict[str, int], np.ndarray]:
    """The names, ``name -> id`` map and name ranks without the ascending
    ids ``dropped``, renumbered in the same order. When nothing is dropped
    all three are shared, not copied."""
    if not len(dropped):
        return names, ids, rank
    kept = np.delete(np.arange(len(names)), dropped)
    names = [names[i] for i in kept.tolist()]
    # A subset of the name ranks still sorts by name.
    return names, {name: i for i, name in enumerate(names)}, _frozen(rank[kept])


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
        return Taxonomy.from_pairs(self.concepts, self.entities, rows, cols, counts)


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
