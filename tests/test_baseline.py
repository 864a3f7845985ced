import random

import numpy as np
import pytest

from conceptq.baseline import baseline_rank
from conceptq.errors import NoCandidateEntitiesError
from conceptq.query import membership
from conceptq.taxonomy import ingest

from helpers import names_of, random_taxonomy

F1_PAIR = ["top university", "american university"]


def eigen_oracle(taxonomy, concepts):
    """Principal eigenvector of the entity-side membership operator A^T A,
    max-normalized, via a dense symmetric eigen-solver."""
    candidates = sorted({e for c in concepts for e in taxonomy.entities_of(c)})
    a = np.zeros((len(concepts), len(candidates)))
    for i, c in enumerate(concepts):
        for e in taxonomy.entities_of(c):
            a[i, candidates.index(e)] = 1.0
    m = a.T @ a
    eigvals, eigvecs = np.linalg.eigh(m)
    v = eigvecs[:, -1]
    v = v if v.sum() >= 0 else -v
    return candidates, v / v.max(), eigvals


def weights_of(taxonomy, rb):
    """Each entity's baseline weight w, keyed by name in ranking order."""
    return dict(zip(names_of(taxonomy, rb.ids), rb.weights.tolist()))


class TestFixtureF1:
    def test_ordering(self, f1):
        rb = baseline_rank(f1, membership(f1, F1_PAIR))
        assert rb.ordering == ["a", "b", "c", "d"]

    def test_two_concept_members_beat_one_concept_members(self, f1):
        weights = weights_of(f1, baseline_rank(f1, membership(f1, F1_PAIR)))
        assert weights["a"] > weights["c"]
        assert weights["b"] > weights["d"]

    def test_weights_match_hand_derived_eigenvector(self, f1):
        # A^T A = [[2,2,1,1],[2,2,1,1],[1,1,1,0],[1,1,0,1]] over [a,b,c,d]
        # has principal eigenvector (2, 2, 1, 1) with eigenvalue 5.
        rb = baseline_rank(f1, membership(f1, F1_PAIR))
        assert weights_of(f1, rb) == pytest.approx(
            {"a": 1.0, "b": 1.0, "c": 0.5, "d": 0.5}, abs=1e-9
        )

    def test_unrelated_entity_never_a_candidate(self, f1):
        rb = baseline_rank(f1, membership(f1, F1_PAIR))
        assert "x" not in names_of(f1, rb.ids)
        assert "x" not in rb.ordering


class TestDegenerateInputs:
    def test_single_concept_uniform_after_one_iteration(self, f1):
        rb = baseline_rank(f1, membership(f1, ["top university"]))
        assert rb.iterations_run == 1
        assert rb.ordering == ["a", "b", "d"]
        assert set(rb.weights.tolist()) == {1.0}

    def test_unknown_concept_has_no_candidates(self, f1):
        with pytest.raises(NoCandidateEntitiesError):
            baseline_rank(f1, membership(f1, ["no such concept"]))

    def test_parameter_validation(self, f1):
        with pytest.raises(ValueError):
            baseline_rank(f1, membership(f1, []))


class TestProperties:
    @pytest.mark.parametrize(
        "rows,new_edge",
        [
            (
                [
                    ("c1", "a", 1), ("c1", "b", 1), ("c1", "m", 1),
                    ("c2", "a", 1), ("c2", "b", 1), ("c2", "z", 1),
                ],
                ("c2", "m", 1),
            ),
            (
                [
                    ("c1", "a", 2), ("c1", "b", 1),
                    ("c2", "a", 1), ("c2", "m", 1),
                    ("c3", "a", 1), ("c3", "b", 1), ("c3", "z", 1),
                ],
                ("c1", "m", 1),
            ),
        ],
    )
    def test_monotone_in_added_membership(self, rows, new_edge):
        # adding e' to another query concept must not worsen its position
        concepts = sorted({c for c, _, _ in rows})
        t, grown = ingest(rows), ingest(rows + [new_edge])
        before = baseline_rank(t, membership(t, concepts))
        after = baseline_rank(grown, membership(grown, concepts))
        entity = new_edge[1]
        assert after.ordering.index(entity) <= before.ordering.index(entity)


class TestDisconnectedConcepts:
    """Disjoint short concepts: the limit of the rescaled recursion keeps
    the components that share the largest eigenvalue of A A^T and sends
    every other component to exactly 0."""

    @staticmethod
    def disjoint(sizes):
        rows = [(f"c{i}", f"e{i}{j}", 1) for i, size in enumerate(sizes) for j in range(size)]
        return ingest(rows), [f"c{i}" for i in range(len(sizes))]

    def test_equal_components_tie_exactly_in_name_order(self):
        t, concepts = self.disjoint([5, 5])
        for order in (concepts, concepts[::-1]):
            rb = baseline_rank(t, membership(t, order))
            assert set(rb.weights.tolist()) == {1.0}
            assert rb.ordering == sorted(rb.ordering)
            assert len(rb.ordering) == 10

    def test_smaller_component_decays_to_zero(self):
        t, concepts = self.disjoint([5, 6])
        for order in (concepts, concepts[::-1]):
            rb = baseline_rank(t, membership(t, order))
            assert rb.ordering == [f"e1{j}" for j in range(6)] + [f"e0{j}" for j in range(5)]
            assert rb.weights.tolist() == [1.0] * 6 + [0.0] * 5


class TestEigenOracle:
    def test_f1_agrees_with_oracle(self, f1):
        candidates, oracle, _ = eigen_oracle(f1, F1_PAIR)
        rb = baseline_rank(f1, membership(f1, F1_PAIR))
        weights = weights_of(f1, rb)
        for e, expected in zip(candidates, oracle):
            assert weights[e] == pytest.approx(expected, abs=1e-6)

    def test_random_instances_agree_with_oracle(self):
        rng = random.Random(42)
        checked = 0
        while checked < 30:
            t = random_taxonomy(rng, max_concepts=4, max_entities=8, max_edges=16)
            concepts = sorted(t.concept_names)
            candidates, oracle, eigvals = eigen_oracle(t, concepts)
            if len(candidates) < 2:
                continue
            # skip degenerate spectra and (near-)tied eigenvector entries:
            # with them the limit ordering is not uniquely defined, so no
            # oracle exists
            if eigvals[-1] <= 0 or eigvals[-2] / eigvals[-1] > 0.8:
                continue
            if np.any(np.diff(np.sort(oracle)) < 1e-7):
                continue
            rb = baseline_rank(t, membership(t, concepts))
            expected_order = sorted(candidates, key=lambda e: -oracle[candidates.index(e)])
            assert rb.ordering == expected_order
            weights = weights_of(t, rb)
            for e in candidates:
                assert weights[e] == pytest.approx(
                    oracle[candidates.index(e)], abs=1e-6
                )
            checked += 1
