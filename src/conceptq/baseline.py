"""Baseline entity ranking from mutually recursive Noisy-Or scores.

An entity is promising when it belongs to informative query concepts; a
query concept is informative when it contains promising entities:

    sigma(e) = 1 - prod_{c in c(e), c in C_q} (1 - sigma(c))
    sigma(c) = 1 - prod_{e in e(c)} (1 - sigma(e))

In log domain, with w = -log(1 - sigma), both products become sums over the
bipartite membership graph between the query's short concepts and their
entity union. The raw fixed point saturates every sigma at 1, so only the
relative magnitudes of w carry information; we therefore rescale both weight
vectors by max w(e) each round, which turns the recursion into power
iteration on the membership operator (authority/hub style). The normalized
entity weights converge to the principal eigenvector of A^T A, where A is
the binary concept-by-entity membership matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NoCandidateEntitiesError
from .taxonomy import Taxonomy

DEFAULT_MAX_ITER = 100
DEFAULT_TOL = 1e-9


@dataclass
class BaselineRanking:
    """Converged scores and the induced ordering over candidate entities.

    ``entity_scores`` and ``concept_scores`` hold sigma = 1 - exp(-w) of the
    final normalized weights; ``entity_weights`` keeps w itself (max 1.0) for
    numeric comparisons. The ordering is descending sigma(e) with ties broken
    lexicographically unless a tie seed was given. ``converged`` is False when
    the iteration stopped at ``max_iter`` before meeting its tolerance.
    """

    entity_scores: dict[str, float]
    concept_scores: dict[str, float]
    entity_weights: dict[str, float]
    ordering: list[str]
    iterations_run: int
    converged: bool


def baseline_rank(
    taxonomy: Taxonomy,
    short_concepts: Sequence[str],
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    tie_seed: int | None = None,
    initial_weight: float = math.log(2.0),
) -> BaselineRanking:
    """Rank the entity union of the short concepts by the iterative scores.

    Candidates are exactly the entities related to at least one short
    concept; anything else scores zero by construction and is omitted.
    Iteration stops when the max absolute change of the normalized entity
    weights drops below ``tol`` or after ``max_iter`` rounds.

    ``initial_weight`` is the uniform starting weight of the query concepts
    (log 2, i.e. sigma = 0.5, by default). The per-round rescaling makes the
    converged ordering independent of this choice; the knob exists so tests
    can assert exactly that.
    """
    if not short_concepts:
        raise ValueError("short concept set is empty")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if initial_weight <= 0:
        raise ValueError("initial_weight must be positive")

    concepts = list(dict.fromkeys(short_concepts))
    candidates = sorted({e for c in concepts for e in taxonomy.entities_of(c)})
    if not candidates:
        raise NoCandidateEntitiesError("no candidate entities")
    entity_index = {e: i for i, e in enumerate(candidates)}

    membership = np.zeros((len(concepts), len(candidates)))
    for ci, c in enumerate(concepts):
        for e in taxonomy.entities_of(c):
            membership[ci, entity_index[e]] = 1.0

    w_concepts = np.full(len(concepts), initial_weight)
    w_entities = np.zeros(len(candidates))
    iterations = 0
    converged = False
    for _ in range(max_iter):
        prev = w_entities
        w_entities = membership.T @ w_concepts
        w_concepts = membership @ w_entities
        scale = w_entities.max()
        w_entities = w_entities / scale
        w_concepts = w_concepts / scale
        iterations += 1
        if iterations > 1 and np.max(np.abs(w_entities - prev)) < tol:
            converged = True
            break

    sigma_e = 1.0 - np.exp(-w_entities)
    sigma_c = 1.0 - np.exp(-w_concepts)

    if tie_seed is None:
        order = sorted(range(len(candidates)), key=lambda i: (-w_entities[i], candidates[i]))
    else:
        jitter = np.random.default_rng(tie_seed).permutation(len(candidates))
        order = sorted(range(len(candidates)), key=lambda i: (-w_entities[i], jitter[i]))

    return BaselineRanking(
        entity_scores={e: float(sigma_e[i]) for e, i in entity_index.items()},
        concept_scores={c: float(sigma_c[i]) for i, c in enumerate(concepts)},
        entity_weights={e: float(w_entities[i]) for e, i in entity_index.items()},
        ordering=[candidates[i] for i in order],
        iterations_run=iterations,
        converged=converged,
    )
