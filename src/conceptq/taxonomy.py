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
list, id map and entity name rank that the cut leaves as it was.

``load`` keeps a snapshot of a regular file beside it, at
``<path>.conceptq.npz`` with symlinks resolved: an ``np.savez`` archive of
both CSR orientations (``ptr``, ``ids``, ``counts``), the entity name ranks,
and each column's names as one UTF-8 blob, every name ended by a newline,
which no normalized name holds. It is keyed by the BLAKE2b digest (SHA-256
on a Python built without ``_blake2``) of the bytes that were parsed,
``_SNAPSHOT_FORMAT`` and ``unicodedata.unidata_version`` (``normalize`` and
``int`` follow the Unicode version), so any change to what ``load`` returns
for a given file must bump ``_SNAPSHOT_FORMAT``. A load whose key matches
builds the taxonomy from the stored arrays after vectorized checks; a
snapshot that is missing, unreadable, keyed otherwise or fails a check is a
miss, and the file is parsed and the snapshot rewritten, never an error. The
write goes through a temporary file in the same directory and is skipped
when that directory cannot be written; deleting a snapshot is always safe.
On the benchmark's large_kb taxonomy (6.6e5 edges) a snapshot is about 1.7x
the size of the file.
"""

from __future__ import annotations

import io
import numbers
import os
import tempfile
import unicodedata
import zipfile
from array import array
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import filterfalse, repeat
from types import MappingProxyType

import numpy as np

from .errors import DataFormatError, EngineError

# The snapshot key's digest: hashlib.blake2b is _blake2's, but hashlib also loads
# OpenSSL (~3.5 MB of RSS), and a Python without _blake2 has no blake2b at all
try:
    from _blake2 import blake2b as _hasher
except ImportError:
    from hashlib import sha256 as _hasher

# Counts are summed in int64; the total of all rows must stay below this.
_COUNT_LIMIT = 2**63

# Characters that load reads per block. A block is parsed with a few C-level
# calls, so it must hold many lines; its strings are short-lived heap memory
# beside the growing row arrays, so it must stay small.
_BLOCK_CHARS = 1 << 14

_SNAPSHOT_FORMAT = 1  # the module docstring says when to bump it
_SNAPSHOT_KEY = f"{_SNAPSHOT_FORMAT} {unicodedata.unidata_version} {{}}"
_SNAPSHOT_ARRAYS = dict(concept_names=np.uint8, entity_names=np.uint8, entity_rank=np.int64,
                        by_concept_ptr=np.int64, by_concept_ids=np.int32, by_concept_counts=np.int64,
                        by_entity_ptr=np.int64, by_entity_ids=np.int32, by_entity_counts=np.int64)


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
        """Rows of merged pairs: ``cols`` and ``counts`` in row order, ``cols``
        ascending within a row. ``rows`` holds the row of each pair and is
        only counted, so it may be in any order."""
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

    def without(self, positions: np.ndarray, rows: np.ndarray) -> Csr:
        """These rows without the pairs at the ascending storage ``positions``,
        which lie in the rows ``rows``. The few cut pairs split the storage
        into slices that are copied as they are, and each row start moves
        down by the pairs cut from the rows before it."""
        starts = [0, *(positions + 1).tolist()]
        ends = [*positions.tolist(), len(self.ids)]

        def kept(values: np.ndarray) -> np.ndarray:
            return _frozen(np.concatenate([values[a:b] for a, b in zip(starts, ends)]))

        cut_before = np.cumsum(np.bincount(rows + 1, minlength=len(self.ptr)))
        return Csr(_frozen(self.ptr - cut_before), kept(self.ids), kept(self.counts))

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
    parent's read-only arrays, name lists, id maps and entity name ranks
    wherever they did not change. Dense ids follow first-seen stream order;
    they are an indexing convenience -- equality compares counts by name.
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
        # The entity rows are counted from the unsorted ``cols``: one gather
        # less where load's memory peaks.
        by_col = np.argsort(cols, kind="stable")
        by_entity = Csr.from_pairs(len(entity_ids), cols, rows[by_col], counts[by_col])
        n_c = _frozen(by_concept.row_sums())
        return cls(list(concept_ids), list(entity_ids), concept_ids, entity_ids,
                   by_concept, by_entity, n_c, _frozen(by_entity.row_sums()), int(n_c.sum()))

    # -- ids and name order ----------------------------------------------

    def concept_id(self, concept: str) -> int | None:
        return self._concept_ids.get(normalize(check_name(concept, "concepts")))

    def entity_id(self, entity: str) -> int | None:
        return self._entity_ids.get(normalize(check_name(entity, "entities")))

    @cached_property
    def entity_rank(self) -> np.ndarray:
        """Sort key of each entity id that follows name order, for tie-breaks."""
        names = self.entity_names
        ranks = np.empty(len(names), dtype=np.int64)
        ranks[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
        return _frozen(ranks)

    # -- lookups ----------------------------------------------------------

    @property
    def n_edges(self) -> int:
        return len(self.by_concept.ids)

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
        maps and entity name ranks are shared unless a name loses its last
        pair; a cut that removes nothing returns this taxonomy."""
        cut_c = _known_ids(map(self.concept_id, check_names(concepts, "concepts")))
        cut_e = _known_ids(map(self.entity_id, check_names(entities, "entities")))
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
        by_concept = self.by_concept.without(at_c, of_c)
        by_entity = self.by_entity.without(at_e, of_e)
        c_names, c_ids = self.concept_names, self._concept_ids
        e_names, e_ids, e_rank = self.entity_names, self._entity_ids, self.entity_rank
        # Counts are positive, so a zero total is an emptied row.
        gone_c, gone_e = cut_c[n_c[cut_c] == 0], cut_e[n_e[cut_e] == 0]
        if len(gone_c) or len(gone_e):
            by_concept, by_entity = by_concept.drop(gone_c, gone_e), by_entity.drop(gone_e, gone_c)
            n_c, n_e = np.delete(n_c, gone_c), np.delete(n_e, gone_e)
            c_names, c_ids = _compact(c_names, c_ids, gone_c)
            e_names, e_ids = _compact(e_names, e_ids, gone_e)
            if len(gone_e):  # a subset of the name ranks still sorts by name
                e_rank = _frozen(np.delete(e_rank, gone_e))
        reduced = Taxonomy(c_names, e_names, c_ids, e_ids, by_concept, by_entity,
                           _frozen(n_c), _frozen(n_e), self.grand_total - int(removed.sum()))
        reduced.entity_rank = e_rank
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


def name_order(rank: np.ndarray, ids: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Positions of the entity ``ids`` by descending score, ties by name
    ``rank`` (``Taxonomy.entity_rank``)."""
    return np.lexsort((rank[ids], -scores))


def check_names(names: Iterable[str], what: str) -> list[str]:
    """``names`` as a list; raises ValueError for a ``str``, which would be
    read as names of one character each, and names an element that is not
    a ``str``."""
    if isinstance(names, str):
        raise ValueError(f"{what} must be a collection of names, got {names!r}")
    return [check_name(name, what) for name in names]


def check_name(name: str, what: str) -> str:
    """``name``; raises ValueError naming it unless it is a ``str``."""
    if not isinstance(name, str):
        raise ValueError(f"{what} must be names, got {name!r}")
    return name


def check_cutoff(k, name: str = "k") -> int:
    """``k`` as an int; raises ValueError unless it is an integer >= 1
    (numpy's too, but neither False nor True)."""
    if not isinstance(k, numbers.Integral) or isinstance(k, bool):
        raise ValueError(f"{name} must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"{name} must be >= 1, got {k}")
    return int(k)


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
    """The distinct ids that are not None, ascending. A Python set dedupes
    the few cut ids; numpy 2's plain ``np.unique`` imports ``numpy.ma``."""
    return np.array(sorted({i for i in ids if i is not None}), dtype=np.int64)


def _compact(names: list[str], ids: dict[str, int], dropped: np.ndarray) -> tuple[list, dict]:
    """The names and ``name -> id`` map without the ascending ids ``dropped``,
    renumbered in the same order; shared, not copied, when none is dropped."""
    if not len(dropped):
        return names, ids
    names = [names[i] for i in np.delete(np.arange(len(names)), dropped).tolist()]
    return names, {name: i for i, name in enumerate(names)}


def entity_union(taxonomy: Taxonomy, concepts: Iterable[str]) -> frozenset[str]:
    """Union of the entity sets of ``concepts``."""
    out: set[str] = set()
    for c in check_names(concepts, "concepts"):
        out.update(taxonomy.entities_of(c))
    return frozenset(out)


def entity_intersection(taxonomy: Taxonomy, concepts: Iterable[str]) -> frozenset[str]:
    """Entities shared by every concept in ``concepts``; empty for no concepts."""
    concepts = check_names(concepts, "concepts")
    if not concepts:
        return frozenset()
    out = set(taxonomy.entities_of(concepts[0]))
    for c in concepts[1:]:
        out &= set(taxonomy.entities_of(c))
        if not out:
            break
    return frozenset(out)


class _Builder:
    """The one validating ingestion path: checks rows, interns their names
    and collects ``(concept id, entity id, count)`` triples for a Taxonomy.

    :meth:`add` checks one row. :meth:`add_block` takes a block of file
    lines with a few C-level calls when every line is a clean row, and
    otherwise adds nothing, so that the block can be replayed through
    :meth:`add`. ``unit`` ("row" or "line") names the 1-based position in
    error messages.
    """

    def __init__(self, unit: str):
        self.unit = unit
        self.concepts = _Names()
        self.entities = _Names()
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
        cid = self.concepts.intern(concept)
        eid = self.entities.intern(entity)
        if cid < 0 or eid < 0:
            self._fail(num, "empty concept or entity name")
        self._c.append(cid)
        self._e.append(eid)
        self._n.append(count)

    def add_block(self, block: str) -> bool:
        """Add the rows of ``block``, lines joined by newlines, if it is
        clean: no ``#``, two tabs on every line, every count an integer in
        [1, 2**63) and no name that normalizes to empty. Return whether it
        was; a block that is not clean adds no row."""
        lines = block.split("\n")
        if "#" in block or set(map(str.count, lines, repeat("\t"))) != {2}:
            return False
        fields = "\t".join(lines).split("\t")
        try:
            counts = np.fromiter(map(int, fields[2::3]), np.int64, len(lines))
        except (ValueError, OverflowError):
            return False
        if counts.min() < 1:
            return False
        # Names are interned before the block is known to be clean. Only a
        # line with an empty name can still fail it; its count makes it
        # neither blank nor a comment, so the line-by-line replay raises on
        # it and the names interned here are never used.
        concepts = self.concepts.intern_all(fields[0::3])
        entities = self.entities.intern_all(fields[1::3])
        if concepts is None or entities is None:
            return False
        self._c.extend(concepts)
        self._e.extend(entities)
        self._n.frombytes(counts.tobytes())
        return True

    def build(self) -> Taxonomy:
        if sum(self._n) >= _COUNT_LIMIT:
            raise DataFormatError("counts total 2**63 or more; totals must fit in 64 bits")
        # Intermediate arrays are dropped as soon as possible: load's peak
        # memory is set here.
        n_e = max(1, len(self.entities.ids))
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
        return Taxonomy.from_pairs(self.concepts.ids, self.entities.ids, rows, cols, counts)


class _Names:
    """One column's names, interned to dense ids in first-seen order of
    their normalized form. Each distinct raw spelling is normalized once."""

    def __init__(self):
        self.ids: dict[str, int] = {}
        # Raw spellings that are not already normalized, mapped to their id.
        self._raw: dict[str, int] = {}

    def intern(self, raw: str) -> int:
        """Id of ``raw``'s normalized form, added if new; -1 for an empty name."""
        i = self.ids.get(raw)
        if i is None:
            i = self._raw.get(raw)
            if i is None:
                name = normalize(raw)
                if not name:
                    return -1
                i = self._add(raw, name)
        return i

    def intern_all(self, raws: list[str]) -> Iterator[int] | None:
        """The ids of ``raws``, interning new names in first-seen order;
        None if a new name normalizes to empty."""
        new = list(dict.fromkeys(filterfalse(self._raw.__contains__,
                                             filterfalse(self.ids.__contains__, raws))))
        names = list(map(normalize, new))
        if "" in names:
            return None
        for raw, name in zip(new, names):
            self._add(raw, name)
        if self._raw:
            return map(self.ids.get, raws, map(self._raw.get, raws))
        return map(self.ids.__getitem__, raws)

    def _add(self, raw: str, name: str) -> int:
        i = self.ids.setdefault(name, len(self.ids))
        if name != raw:
            self._raw[raw] = i
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


class _DigestingFile(io.FileIO):
    """A file read as bytes, every one of which is fed to ``digest``."""

    def __init__(self, path, digest):
        super().__init__(path)
        self.digest = digest

    def read(self, size=-1) -> bytes:
        data = super().read(size)
        self.digest.update(data)
        return data


def _line_blocks(path, digest=None) -> Iterator[tuple[int, str]]:
    """The lines of a UTF-8 text file, read once, a block of whole lines at
    a time: the 1-based number of a block's first line, and its lines joined
    by newlines. Lines end where universal newlines end them, and a leading
    byte-order mark is not part of the first line. A byte that is not UTF-8
    raises :class:`DataFormatError` naming its line before its block is
    yielded. Every byte read is fed to ``digest``, if given."""
    first, pending = 1, []
    raw = io.FileIO(path) if digest is None else _DigestingFile(path, digest)
    # An invalid byte decodes to a lone surrogate, which valid UTF-8 cannot hold
    # and encode() rejects. ``pending`` has no newline, so a read starts in line ``first``.
    with io.TextIOWrapper(raw, encoding="utf-8-sig", errors="surrogateescape") as fh:
        while True:
            text = fh.read(_BLOCK_CHARS)
            if not text:
                break
            if not text.isascii():
                try:
                    text.encode()
                except UnicodeEncodeError as error:
                    line_num = first + text.count("\n", 0, error.start)
                    raise DataFormatError(f"line {line_num}: not valid UTF-8", row=line_num) from None
            cut = text.rfind("\n")
            if cut < 0:
                pending.append(text)
                continue
            pending.append(text[:cut])
            block = "".join(pending)
            pending = [text[cut + 1:]]
            yield first, block
            first += block.count("\n") + 1
    tail = "".join(pending)
    if tail:
        yield first, tail


def _data_lines(first: int, block: str) -> Iterator[tuple[int, str]]:
    """:func:`data_lines` of one block whose first line is line ``first``."""
    for line_num, line in enumerate(block.split("\n"), start=first):
        stripped = line.strip()
        if stripped and stripped[0] != "#":
            yield line_num, line


def data_lines(path) -> Iterator[tuple[int, str]]:
    """Each line of a UTF-8 text file that is neither blank nor a ``#``
    comment, without its newline and with its 1-based line number. A leading
    byte-order mark is not part of the first line, and a line that is not
    valid UTF-8 raises :class:`DataFormatError` with its number before the
    lines of its block are yielded. The file is read once, so it may be a pipe."""
    for first, block in _line_blocks(path):
        yield from _data_lines(first, block)


def load(path) -> Taxonomy:
    """Read a taxonomy file: ``concept<TAB>entity<TAB>count`` per line.

    Lines starting with ``#`` and blank lines are skipped. There is no
    quoting; a TAB inside a name is unsupported. Malformed lines raise
    :class:`DataFormatError` naming the 1-based physical line number.

    The file is read once, in blocks of whole lines. A block of clean rows
    is parsed a column at a time; any other block, with a comment, a blank
    line or a bad line, is read line by line, so the ids, counts and errors
    are those of a line-by-line read, but a byte that is not UTF-8 is
    reported before the rows of its own block are checked.

    An unchanged regular file is not parsed again: the first load writes a
    snapshot beside it, ``<path>.conceptq.npz`` with symlinks resolved (so
    ``/dev/stdin`` read from a file keeps it beside that file), holding both
    CSR orientations, the names and the entity name ranks (about 1.7x the
    size of the file on large_kb), and later loads build the taxonomy from
    it. Its key is the BLAKE2b digest of the file's bytes,
    ``_SNAPSHOT_FORMAT`` and the Unicode version; any change to what
    ``load`` returns for a given file must bump ``_SNAPSHOT_FORMAT``. The
    write is skipped when the directory cannot be written, and deleting the
    snapshot is always safe. It helps a file loaded again in a new process;
    the first load costs more, since it also digests and writes.
    """
    real = os.path.realpath(path) if isinstance(path, (str, bytes, os.PathLike)) else ""
    snapshot = os.fsdecode(real) + ".conceptq.npz" if os.path.isfile(real) else None
    taxonomy = _read_snapshot(path, snapshot) if snapshot else None
    if taxonomy is not None:
        return taxonomy
    digest = _hasher()
    builder = _Builder("line")
    for first, block in _line_blocks(path, digest):
        if builder.add_block(block):
            continue
        for line_num, line in _data_lines(first, block):
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
    taxonomy = builder.build()
    if snapshot:
        _write_snapshot(path, snapshot, _SNAPSHOT_KEY.format(digest.hexdigest()), taxonomy)
    return taxonomy


def _read_snapshot(path, snapshot: str) -> Taxonomy | None:
    """The taxonomy in ``snapshot`` if it is ``path``'s and passes every check."""
    try:
        # NpzFile, not np.load: that returns a .npy file as an array, which
        # no `with` takes, and leaves a file that it opened open if no zip
        with open(snapshot, "rb") as fh, np.lib.npyio.NpzFile(fh, allow_pickle=False) as stored, \
                _DigestingFile(path, _hasher()) as tsv:
            while tsv.read(1 << 20):
                pass
            if stored["key"].tolist() != _SNAPSHOT_KEY.format(tsv.digest.hexdigest()):
                return None
            arrays = {name: _frozen(stored[name]) for name in _SNAPSHOT_ARRAYS}
        if not all(arrays[name].dtype == dtype and arrays[name].ndim == 1
                   for name, dtype in _SNAPSHOT_ARRAYS.items()):
            return None
        c_names, e_names = (arrays[f"{side}_names"].tobytes().decode().split("\n")[:-1]
                            for side in ("concept", "entity"))
        c_ids, e_ids = (dict(zip(names, range(len(names)))) for names in (c_names, e_names))
        by_concept, by_entity = (Csr(*(arrays[f"{side}_{part}"] for part in ("ptr", "ids", "counts")))
                                 for side in ("by_concept", "by_entity"))
        if (len(c_ids), len(e_ids)) != (len(c_names), len(e_names)) or not np.array_equal(
                np.bincount(arrays["entity_rank"], minlength=len(e_names)), np.ones(len(e_names))):
            return None
        # np.bincount raises on a negative id, and one too large lengthens its result
        for csr, names, other in ((by_concept, c_names, by_entity), (by_entity, e_names, by_concept)):
            ptr = csr.ptr
            if not (len(ptr) == len(names) + 1 and ptr[0] == 0
                    and ptr[-1] == len(csr.ids) == len(csr.counts)
                    and (np.diff(ptr) > 0).all() and (csr.counts >= 1).all()
                    and np.array_equal(np.bincount(csr.ids, minlength=len(other.ptr) - 1),
                                       np.diff(other.ptr))):
                return None
    except (OSError, ValueError, TypeError, KeyError, EOFError, zipfile.BadZipFile):
        return None
    n_c = _frozen(by_concept.row_sums())
    taxonomy = Taxonomy(c_names, e_names, c_ids, e_ids, by_concept, by_entity,
                        n_c, _frozen(by_entity.row_sums()), int(n_c.sum()))
    taxonomy.entity_rank = arrays["entity_rank"]
    return taxonomy


def _write_snapshot(path, snapshot: str, key: str, taxonomy: Taxonomy) -> None:
    """Store ``taxonomy`` in ``snapshot`` under ``key``; skipped on any OSError."""
    arrays = {f"{side}_{part}": getattr(getattr(taxonomy, side), part)
              for side in ("by_concept", "by_entity") for part in ("ptr", "ids", "counts")}
    for side, names in (("concept", taxonomy.concept_names), ("entity", taxonomy.entity_names)):
        arrays[f"{side}_names"] = np.frombuffer("".join(f"{n}\n" for n in names).encode(), np.uint8)
    try:
        fd, tmp = tempfile.mkstemp(suffix=os.path.basename(snapshot), dir=os.path.dirname(snapshot))
        try:
            with open(fd, "wb") as fh:
                np.savez(fh, key=np.array(key), entity_rank=taxonomy.entity_rank, **arrays)
            os.chmod(tmp, os.stat(path).st_mode & 0o7777)
            os.replace(tmp, snapshot)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError:
        pass
