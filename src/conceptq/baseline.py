"""Baseline entity ranking from mutually recursive Noisy-Or scores.

An entity is promising when it belongs to informative query concepts; a
query concept is informative when it contains promising entities:

    sigma(e) = 1 - prod_{c in c(e), c in C_q} (1 - sigma(c))
    sigma(c) = 1 - prod_{e in e(c)} (1 - sigma(e))

In log domain, with w = -log(1 - sigma), both products become sums over the
bipartite membership graph between the query's k short concepts and their
entity union: w_e = A^T w_c and w_c = A w_e, with A the binary k x |E_u|
membership matrix. The raw fixed point saturates every sigma at 1, so only
the relative magnitudes of w carry information: the scores are the limit of
the hub/authority recursion rescaled by max w(e) each round, started from
uniform concept weights.

That limit is solved exactly rather than iterated. Started from the all-ones
concept vector, the rescaled recursion converges to A^T v, where v is the
projection of the all-ones vector onto the top eigenspace of the k x k
matrix A A^T. A is the query's :class:`~conceptq.query.Membership` matrix,
read once per query and shared with expansion. When the concept graph is connected that eigenspace
is one Perron vector and A^T v is the principal eigenvector of A^T A; when
it is disconnected, components sharing the largest eigenvalue keep their
share of the start and every other component decays to 0. Eigenvalues
within a relative ``REPEATED_EIGENVALUE_RTOL`` of the largest count as
repeated.

Entity weights are max-normalized and rounded to ``WEIGHT_DECIMALS`` places,
so entities that tie by symmetry tie exactly whatever the order of the short
concepts; the ordering is descending weight with ties by entity name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import NoCandidateEntitiesError
from .query import Membership
from .taxonomy import Taxonomy, name_order

REPEATED_EIGENVALUE_RTOL = 1e-9
WEIGHT_DECIMALS = 12


@dataclass(eq=False)
class BaselineRanking:
    """Fixed-point scores over the candidate entities E_u, held as arrays.

    ``ids`` holds E_u by descending weight w (max 1.0), ties by entity name,
    and ``weights`` each one's w. The name views follow that order and are
    built on first read: ``ordering``, and ``entity_weights`` and
    ``entity_scores``, which map each name to its w and to sigma = 1 - exp(-w).
    ``concept_scores`` holds each short concept's sigma.
    """

    taxonomy: Taxonomy
    ids: np.ndarray
    weights: np.ndarray
    concept_scores: dict[str, float]
    # The fixed point is one direct solve; kept because traces report it.
    iterations_run: ClassVar[int] = 1

    @cached_property
    def ordering(self) -> list[str]:
        return [self.taxonomy.entity_names[e] for e in self.ids.tolist()]

    @cached_property
    def entity_weights(self) -> dict[str, float]:
        return dict(zip(self.ordering, self.weights.tolist()))

    @cached_property
    def entity_scores(self) -> dict[str, float]:
        return dict(zip(self.ordering, (1.0 - np.exp(-self.weights)).tolist()))


def baseline_rank(taxonomy: Taxonomy, members: Membership) -> BaselineRanking:
    """Rank the entity union of the short concepts by their fixed-point scores.

    Candidates are exactly the entities related to at least one short
    concept, the columns of ``members``; anything else scores zero by
    construction and is omitted. A short concept missing from the taxonomy
    contains no entity.
    """
    candidates = members.ids
    if not len(candidates):
        raise NoCandidateEntitiesError("no candidate entities")
    membership = members.matrix

    eigvals, eigvecs = np.linalg.eigh(membership @ membership.T)
    top = eigvecs[:, eigvals >= eigvals[-1] * (1.0 - REPEATED_EIGENVALUE_RTOL)]
    # A^T times the projection of the all-ones start onto the top eigenspace
    w_entities = membership.T @ (top @ top.sum(axis=0))
    # + 0.0 turns the -0.0 of a decayed component into 0.0
    w_entities = np.round(w_entities / w_entities.max(), WEIGHT_DECIMALS) + 0.0
    sigma_c = 1.0 - np.exp(-(membership @ w_entities))
    order = name_order(taxonomy.entity_rank, candidates, w_entities)
    return BaselineRanking(
        taxonomy=taxonomy,
        ids=candidates[order],
        weights=w_entities[order],
        concept_scores=dict(zip(members.concepts, sigma_c.tolist())),
    )
