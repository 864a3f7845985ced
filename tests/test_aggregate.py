import math
import random
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conceptq import aggregate
from conceptq.aggregate import (
    SCORE_TOL,
    ObjectiveWeights,
    _classes,
    _maximize,
    _Terms,
    _weighted,
    gradient,
)
from conceptq.expansion import PairwiseConstraint

from helpers import (
    finite_difference, objective, optimize, oracle_classes, oracle_map_scores, positions_of,
)


def listwise(ordering, scores):
    """The ordering's log-likelihood alone: ``objective`` with alpha = beta = 0."""
    return objective(scores, ordering, [], [], ObjectiveWeights(0, 0))


def pairwise(constraints, scores):
    """The constraints' log-likelihood alone: ``objective`` with beta = 1."""
    return objective(scores, [], [], constraints, ObjectiveWeights(0, 1))


def make_constraint(higher, lower):
    return PairwiseConstraint(higher=frozenset(higher), lower=frozenset(lower))


def pair_prob(s_x, s_y):
    """P(x beats y), as exp of the two-entity ordering's log-likelihood."""
    return math.exp(listwise(["x", "y"], {"x": s_x, "y": s_y}))


class TestTwoEntityOrdering:
    def test_equal_scores(self):
        assert pair_prob(0.3, 0.3) == pytest.approx(0.5)

    def test_three_to_one(self):
        assert pair_prob(math.log(3), 0.0) == pytest.approx(0.75)

    def test_extreme_gap_is_stable(self):
        assert pair_prob(0.0, 1000.0) == pytest.approx(0.0, abs=1e-300)
        assert pair_prob(1000.0, 0.0) == pytest.approx(1.0)
        assert listwise(["x", "y"], {"x": 0.0, "y": 1000.0}) == -1000.0


class TestListwiseLogLikelihood:
    def test_single_element_is_zero(self):
        assert listwise(["a"], {"a": 3.0}) == 0.0
        assert listwise([], {}) == 0.0

    def test_two_equal_scores(self):
        ll = listwise(["a", "b"], {"a": 1.0, "b": 1.0})
        assert ll == pytest.approx(math.log(0.5))

    def test_three_elements_hand_evaluated(self):
        scores = {"a": 1.0, "b": 0.0, "c": -1.0}
        # direct term-by-term evaluation, independent of the implementation
        term1 = math.log(math.exp(1) / (math.exp(1) + math.exp(0) + math.exp(-1)))
        term2 = math.log(math.exp(0) / (math.exp(0) + math.exp(-1)))
        got = listwise(["a", "b", "c"], scores)
        assert got == pytest.approx(term1 + term2, rel=1e-12)

    def test_shift_invariance(self):
        scores = {"a": 0.7, "b": -0.2, "c": 1.4}
        base = listwise(["c", "a", "b"], scores)
        shifted = {k: v + 123.0 for k, v in scores.items()}
        assert listwise(["c", "a", "b"], shifted) == pytest.approx(
            base, abs=1e-12
        )

    def test_extreme_scores_stay_finite(self):
        scores = {"a": 800.0, "b": -800.0, "c": 0.0}
        ll = listwise(["b", "a", "c"], scores)
        assert math.isfinite(ll)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            listwise(["a", "a"], {"a": 0.0})

    def test_unknown_entity_rejected(self):
        with pytest.raises(ValueError):
            listwise(["a", "b"], {"a": 0.0})


class TestPairwiseLogLikelihood:
    def test_singleton_sides_reduce_to_pair_prob(self):
        scores = {"a": 0.0, "b": 0.0}
        ll = pairwise([make_constraint({"a"}, {"b"})], scores)
        assert ll == pytest.approx(math.log(0.5))

    def test_counting_case(self):
        scores = {"a": 0.0, "b": 0.0, "c": 0.0}
        ll = pairwise([make_constraint({"a", "b"}, {"c"})], scores)
        # Breslow's stage: a and b, tied, both chosen from the three
        assert ll == pytest.approx(-2.0 * math.log(3.0))

    def test_saturation_from_below(self):
        scores = {"a": 1000.0, "b": 0.0}
        ll = pairwise([make_constraint({"a"}, {"b"})], scores)
        assert -1e-300 < ll <= 0.0

    def test_no_constraints(self):
        assert pairwise([], {"a": 0.0}) == 0.0


class TestObjective:
    def test_degenerate_weights_reduce_to_baseline(self):
        scores = {"a": 0.4, "b": -0.1, "c": 0.2}
        r_b = ["b", "c", "a"]
        w = ObjectiveWeights(alpha=0.0, beta=0.0)
        assert objective(scores, r_b, ["a", "b"], [make_constraint({"a"}, {"b"})], w) == (
            listwise(r_b, scores)
        )

    def test_weighted_sum_matches_direct_evaluation(self):
        scores = {"a": 0.5, "b": 0.0, "c": -0.5}
        r_b = ["a", "b", "c"]
        r_c = ["b", "a", "c"]
        r_p = [make_constraint({"a"}, {"c"})]
        w = ObjectiveWeights(alpha=1 / 3, beta=1 / 3)
        expected = (
            (1 / 3) * listwise(r_b, scores)
            + (1 / 3) * listwise(r_c, scores)
            + (1 / 3) * pairwise(r_p, scores)
        )
        assert objective(scores, r_b, r_c, r_p, w) == pytest.approx(expected, rel=1e-12)

    def test_empty_constraints_contribute_nothing(self):
        # with no constraints the beta term vanishes, so beta only rescales
        # the baseline weight
        scores = {"a": 0.5, "b": 0.0}
        lo = objective(scores, ["a", "b"], [], [], ObjectiveWeights(alpha=0.1, beta=0.0))
        hi = objective(scores, ["a", "b"], [], [], ObjectiveWeights(alpha=0.1, beta=0.8))
        assert hi == pytest.approx(lo / 0.9 * 0.1, rel=1e-12)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            ObjectiveWeights(alpha=-0.1)
        with pytest.raises(ValueError):
            ObjectiveWeights(alpha=0.6, beta=0.6)
        for weights in ({"alpha": math.nan}, {"beta": math.nan}):
            with pytest.raises(ValueError):
                ObjectiveWeights(**weights)


class TestGradient:
    def test_single_constraint_hand_value(self):
        scores = {"a": 0.0, "b": 0.0}
        w = ObjectiveWeights(alpha=0.0, beta=0.9)
        grad = gradient(scores, [], [], [make_constraint({"a"}, {"b"})], w)
        assert grad["a"] == pytest.approx(0.9 / 2)
        assert grad["b"] == pytest.approx(-0.9 / 2)

    @pytest.mark.parametrize("r_b, r_c", [("ab", ["b", "a"]), (["b", "a"], "ab")], ids=["r_b", "r_c"])
    def test_a_string_ordering_is_rejected_not_split_into_characters(self, r_b, r_c):
        with pytest.raises(ValueError, match="collection of names or groups"):
            gradient({"a": 0.0, "b": 0.0}, r_b, r_c, [])

    def test_matches_finite_differences(self):
        rng = random.Random(0)
        names = [f"e{i}" for i in range(8)]
        w = ObjectiveWeights(alpha=0.25, beta=0.35)
        for _ in range(30):
            scores = {e: rng.gauss(0, 1.5) for e in names}
            r_b = rng.sample(names, rng.randint(2, len(names)))
            r_c = rng.sample(names, rng.randint(2, len(names)))
            split = rng.randint(1, 3)
            members = rng.sample(names, split + rng.randint(1, 3))
            r_p = [make_constraint(members[:split], members[split:])]
            grad = gradient(scores, r_b, r_c, r_p, w)
            for e in names:
                fd = finite_difference(scores, r_b, r_c, r_p, w, e)
                assert abs(grad[e] - fd) / max(1e-6, abs(fd), abs(grad[e])) < 1e-4

    def test_gradient_sums_to_zero(self):
        # shift invariance of every component forces a zero-sum gradient
        rng = random.Random(3)
        names = ["a", "b", "c", "d", "e"]
        scores = {e: rng.gauss(0, 1) for e in names}
        r_b = ["a", "b", "c", "d", "e"]
        r_c = ["e", "c", "a"]
        r_p = [make_constraint({"a", "b"}, {"d", "e"})]
        grad = gradient(scores, r_b, r_c, r_p, ObjectiveWeights())
        assert sum(grad.values()) == pytest.approx(0.0, abs=1e-12)

    def test_entities_outside_orderings_get_zero(self):
        scores = {"a": 0.0, "b": 0.0, "lurker": 5.0}
        grad = gradient(scores, ["a", "b"], [], [], ObjectiveWeights())
        assert grad["lurker"] == 0.0

    def test_extreme_score_spreads_stay_finite(self):
        # every exponent in the gradient assembly is bounded above by zero,
        # so +-800 score spreads must not overflow
        scores = {"a": 800.0, "b": 0.0, "c": -800.0}
        r_b = ["c", "a", "b"]
        r_p = [make_constraint({"c"}, {"a", "b"})]
        grad = gradient(scores, r_b, [], r_p, ObjectiveWeights())
        for value in grad.values():
            assert math.isfinite(value)
        assert math.isfinite(objective(scores, r_b, [], r_p, ObjectiveWeights()))


class TestOptimize:
    def test_consistent_evidence_preserved(self):
        sv, ordering = optimize(["a", "b", "c"], ["a", "b", "c"], [])
        assert ordering == ["a", "b", "c"]
        assert sv.scores["a"] > sv.scores["b"] > sv.scores["c"]

    def test_degenerate_weights_reproduce_baseline(self):
        w = ObjectiveWeights(alpha=0.0, beta=0.0)
        _, ordering = optimize(["c", "a", "b"], [], [], weights=w)
        assert ordering == ["c", "a", "b"]

    def test_dominating_constraint_wins(self):
        w = ObjectiveWeights(alpha=0.0, beta=0.98)
        _, ordering = optimize(
            ["a", "b"], [], [make_constraint({"b"}, {"a"})], weights=w
        )
        assert ordering == ["b", "a"]

    def test_consistent_instance_reaches_consensus(self):
        consensus = [f"e{i}" for i in range(6)]
        r_p = [make_constraint(set(consensus[:3]), set(consensus[3:]))]
        _, ordering = optimize(consensus, list(consensus), r_p)
        assert ordering == consensus  # Kendall tau exactly 1.0

    def test_scores_recentered_to_zero_mean(self):
        sv, _ = optimize(["a", "b", "c"], [], [])
        assert sum(sv.scores.values()) == pytest.approx(0.0, abs=1e-9)

    def test_universe_includes_constraint_only_entities(self):
        sv, ordering = optimize(
            ["a", "b"], [], [make_constraint({"a"}, {"ghost"})]
        )
        assert "ghost" in sv.universe
        assert "ghost" in ordering

    def test_shift_invariant_objective_under_optimizer(self):
        # objective of the returned scores must match the uncentered value
        r_b = ["a", "b", "c"]
        sv, _ = optimize(r_b, [], [])
        base = objective(sv.scores, r_b, [], [])
        shifted = {k: v + 7.0 for k, v in sv.scores.items()}
        assert objective(shifted, r_b, [], []) == pytest.approx(base, abs=1e-12)

    def test_requires_an_ordering(self):
        with pytest.raises(ValueError):
            optimize([], [], [make_constraint({"a"}, {"b"})])

    def test_duplicate_ordering_entities_rejected(self):
        with pytest.raises(ValueError):
            optimize(["a", "a"], [], [])

    def test_ascent_never_decreases_objective_at_small_lr(self):
        rng = random.Random(9)
        names = ["a", "b", "c", "d"]
        r_b = ["a", "b", "c", "d"]
        r_c = ["b", "a", "d", "c"]
        r_p = [make_constraint({"a"}, {"d"})]
        w = ObjectiveWeights()
        scores = {e: 0.0 for e in names}
        prev = objective(scores, r_b, r_c, r_p, w)
        for _ in range(50):
            grad = gradient(scores, r_b, r_c, r_p, w)
            scores = {e: scores[e] + 1e-3 * grad[e] for e in names}
            cur = objective(scores, r_b, r_c, r_p, w)
            assert cur >= prev - 1e-12
            prev = cur


@st.composite
def aggregation_instances(draw, max_n=20):
    """Random orderings, constraints and weights over entities e0..e{n-1}."""
    n = draw(st.integers(2, max_n))
    names = [f"e{i}" for i in range(n)]
    r_b = draw(st.permutations(names))[: draw(st.integers(2, n))]
    r_c = draw(st.permutations(names))[: draw(st.integers(0, n))]
    if len(r_c) == 1:
        r_c = []
    r_p = []
    for _ in range(draw(st.integers(0, 3))):
        members = draw(st.permutations(names))[: draw(st.integers(2, n))]
        cut = draw(st.integers(1, len(members) - 1))
        r_p.append(make_constraint(members[:cut], members[cut:]))
    alpha = draw(st.floats(0.0, 0.6))
    beta = draw(st.floats(0.0, 1.0 - alpha))
    return r_b, r_c, r_p, ObjectiveWeights(alpha=alpha, beta=beta)


def terms_of(r_b, r_c, r_p, weights):
    """_Terms over the entities of the name-ordered universe."""
    names, positions = positions_of(r_b, r_c, r_p)
    return names, _Terms(np.ones(len(names)), *_weighted(len(names), *positions, weights))


def class_terms_of(r_b, r_c, r_p, weights):
    """_Terms over the classes that ``optimize`` solves over, and the class
    of each entity of the name-ordered universe."""
    names, positions = positions_of(r_b, r_c, r_p)
    return names, *_classes(*_weighted(len(names), *positions, weights))


@contextmanager
def direction_path(path):
    """Newton directions from the dense solve where it applies ("dense", the
    default) or from CG only ("cg")."""
    with pytest.MonkeyPatch.context() as mp:
        if path == "cg":
            mp.setattr(aggregate, "DENSE_NEWTON_MAX_N", 0)
        yield


both_direction_paths = pytest.mark.parametrize("path", ["dense", "cg"])


class TestEvaluate:
    @given(
        aggregation_instances(),
        st.lists(st.floats(-5.0, 5.0), min_size=20, max_size=20),
        st.floats(-50.0, 50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_shifting_every_score_changes_neither_value_nor_gradient(self, instance, values, c):
        r_b, r_c, r_p, weights = instance
        names, _ = terms_of(*instance)
        scores = dict(zip(names, values))
        shifted = {e: v + c for e, v in scores.items()}
        assert abs(objective(shifted, r_b, r_c, r_p, weights)
                   - objective(scores, r_b, r_c, r_p, weights)) < 1e-9
        grad = gradient(scores, r_b, r_c, r_p, weights)
        grad_shifted = gradient(shifted, r_b, r_c, r_p, weights)
        for e in names:
            assert abs(grad_shifted[e] - grad[e]) < 1e-9


class TestHessian:
    @given(
        aggregation_instances(max_n=10),
        st.lists(st.floats(-5.0, 5.0), min_size=20, max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_dense_hessian_matches_curvature_and_finite_differences(self, instance, values):
        names, terms = terms_of(*instance)
        n = len(names)
        s, v = np.array(values[:n]), np.array(values[10 : 10 + n])
        hessian = terms.posterior(s)[2]
        assert hessian.shape == (n, n)
        np.testing.assert_allclose(hessian, hessian.T, rtol=0, atol=1e-13)
        _, _, diag, apply = terms.evaluate(s)
        prior = aggregate.PRIOR_RATE * np.exp(s)
        np.testing.assert_allclose(np.diag(hessian), diag + prior, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(hessian @ v, apply(v) + prior * v, rtol=1e-9, atol=1e-11)
        # the matrix is -(d/ds) grad F, column by column
        h = 1e-5
        for i in range(n):
            step = np.zeros(n)
            step[i] = h
            fd = (terms.posterior(s + step)[1] - terms.posterior(s - step)[1]) / (2 * h)
            np.testing.assert_allclose(hessian[:, i], -fd, rtol=1e-4, atol=1e-7)

    def test_cg_curvature_matches_finite_differences_at_a_thousand_entities(self):
        # the matrix-free operator of the CG path, at a size where no dense
        # Hessian is built: two orderings and a few set-vs-set constraints
        rng = np.random.default_rng(7)
        n = 1000
        names = [f"e{i:04d}" for i in range(n)]
        r_b = [names[i] for i in rng.permutation(n)]
        r_c = [names[i] for i in rng.permutation(n)[:700]]
        r_p = []
        for size_x, size_y in ((5, 12), (20, 30), (8, 8), (3, 25)):
            members = [names[i] for i in rng.permutation(n)[: size_x + size_y]]
            r_p.append(make_constraint(members[:size_x], members[size_x:]))
        _, terms = terms_of(r_b, r_c, r_p, ObjectiveWeights())
        s = rng.normal(0.0, 2.0, n)
        diag, apply = terms.posterior(s)[2]
        assert diag.shape == (n,)
        h = 1e-4
        for _ in range(3):
            v = rng.normal(0.0, 1.0, n)
            fd = (terms.posterior(s + h * v)[1] - terms.posterior(s - h * v)[1]) / (2 * h)
            np.testing.assert_allclose(apply(v), -fd, rtol=1e-4, atol=1e-9)

    def test_cg_direction_at_a_zero_gradient_is_zero(self):
        # CG tests its residual before its first product, which would divide
        # 0 by 0 here
        with direction_path("cg"):
            _, cg_terms = terms_of(["a", "b", "c"], ["c", "a"], [], ObjectiveWeights())
        curvature = cg_terms.posterior(np.array([0.5, -1.0, 2.0]))[2]
        d = aggregate._newton_direction(np.zeros(3), curvature)
        np.testing.assert_array_equal(d, np.zeros(3))
        # a universe with no term but the prior starts at its maximum, where
        # the gradient is exactly 0
        with direction_path("cg"):
            sv, _ = optimize(["e0", "e1"], [], [], ObjectiveWeights(alpha=0.5, beta=0.5))
        assert sv.converged and sv.iterations == 0


class TestDenseKernel:
    @given(
        aggregation_instances(),
        st.lists(st.floats(-5.0, 5.0), min_size=20, max_size=20),
    )
    # a zero baseline weight and nothing else leaves no term at all
    @example((["e0", "e1"], [], [], ObjectiveWeights(alpha=0.5, beta=0.5)), [0.0] * 20)
    @settings(max_examples=100, deadline=None)
    def test_softmax_rows_give_the_likelihood_plus_the_prior(self, instance, values):
        names, terms = terms_of(*instance)
        s = np.array(values[: len(names)])
        value, grad, _, _ = terms.evaluate(s)
        strength = aggregate.PRIOR_RATE * np.exp(s)
        value += float(np.sum(aggregate.PRIOR_SHAPE * s - strength))
        grad += aggregate.PRIOR_SHAPE - strength
        f, g, _ = terms.posterior(s)
        assert abs(f - value) <= 1e-12 * (1.0 + abs(value))
        np.testing.assert_allclose(g, grad, rtol=0, atol=1e-12)

    @given(
        aggregation_instances(),
        st.lists(st.floats(-5.0, 5.0), min_size=20, max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_the_direction_is_the_newton_step_where_the_matrix_is_definite(
        self, instance, values
    ):
        # -Hessian F is positive definite everywhere, so the direction is
        # numpy.linalg.solve's exact Newton step
        names, terms = terms_of(*instance)
        _, g, curvature = terms.posterior(np.array(values[: len(names)]))
        d = aggregate._newton_direction(g, curvature)
        np.testing.assert_array_equal(d, np.linalg.solve(curvature, g))


class TestNewtonSolve:
    @both_direction_paths
    @given(instance=aggregation_instances())
    @settings(max_examples=60, deadline=None)
    def test_converges_below_tol(self, path, instance):
        r_b, r_c, r_p, weights = instance
        with direction_path(path):
            sv, _ = optimize(r_b, r_c, r_p, weights)
            names, terms, class_of = class_terms_of(r_b, r_c, r_p, weights)
            s, steps, converged = _maximize(terms, np.zeros(terms.n))
        assert sv.converged
        # the reported scores are the classes' MAP point, given to each
        # class's entities and re-centred to mean zero over the entities
        assert converged and steps == sv.iterations
        # there the exact Newton step, on the dense -Hessian F, moves no
        # score by SCORE_TOL, on the CG path too
        _, dense, _ = class_terms_of(r_b, r_c, r_p, weights)
        _, g, hessian = dense.posterior(s)
        assert np.max(np.abs(np.linalg.solve(hessian, g))) < SCORE_TOL
        s = s[class_of]
        for e, value in zip(names, s - s.mean()):
            assert sv.scores[e] == value

    @given(instance=aggregation_instances())
    @settings(max_examples=100, deadline=None)
    def test_small_universes_never_take_the_cg_path(self, instance):
        # each universe size has one direction method: a dense-path
        # universe never runs the matrix-free pass
        original = _Terms.evaluate

        def evaluate(self, s):
            if self.n <= aggregate.DENSE_NEWTON_MAX_N:
                raise AssertionError("evaluate() called on a dense-path universe")
            return original(self, s)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Terms, "evaluate", evaluate)
            sv, _ = optimize(*instance)
        assert sv.converged

    def test_the_matrix_free_pass_reads_each_point_once(self):
        # one pass per line-search trial plus one at the start: each step's
        # curvature comes from the pass that gave its point's F and
        # gradient, and no ordering's suffix sums are taken a second time at
        # that point
        rng = np.random.default_rng(3)
        names = [f"e{i:04d}" for i in range(1000)]
        r_b = [names[i] for i in rng.permutation(1000)]
        r_c = [names[i] for i in rng.permutation(1000)[:600]]
        r_p = [
            make_constraint(names[:6], names[6:20]), make_constraint(names[20:30], names[30:45])
        ]
        names, terms = terms_of(r_b, r_c, r_p, ObjectiveWeights())
        points, trials, suffix_sums, directions = [], [], [], []
        point_of = {}
        original_evaluate, original_posterior = _Terms.evaluate, _Terms.posterior
        original_search = aggregate._line_search
        original_sums, original_direction = aggregate._log_suffix_sums, aggregate._newton_direction

        def log_suffix_sums(so):
            suffix_sums.append(so.size)
            return original_sums(so)

        def evaluate(self, s):
            points.append(s.tobytes())
            return original_evaluate(self, s)

        def posterior(self, s):
            f, g, curvature = original_posterior(self, s)
            point_of[curvature[1]] = s.tobytes()
            return f, g, curvature

        def line_search(terms, s, f, g, d):
            before = len(points)
            accepted = original_search(terms, s, f, g, d)
            trials.append(len(points) - before)
            return accepted

        def newton_direction(g, curvature):
            directions.append(point_of[curvature[1]])
            return original_direction(g, curvature)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Terms, "evaluate", evaluate)
            mp.setattr(_Terms, "posterior", posterior)
            mp.setattr(aggregate, "_line_search", line_search)
            mp.setattr(aggregate, "_log_suffix_sums", log_suffix_sums)
            mp.setattr(aggregate, "_newton_direction", newton_direction)
            s, steps, converged = _maximize(terms, np.zeros(terms.n))
        assert converged and steps == len(trials) > 0
        assert all(n >= 1 for n in trials)
        assert len(points) == 1 + sum(trials)
        assert len(set(points)) == len(points)
        # one per ordering per pass
        assert len(suffix_sums) == len(terms.lists) * len(points)
        # a direction from the start and from each accepted point, the last
        # one to find the returned point converged
        assert len(directions) == steps + 1
        assert directions[0] == points[0] and directions[-1] == s.tobytes()
        assert len(set(directions)) == steps + 1

    @both_direction_paths
    @given(instance=aggregation_instances(), rnd=st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_renaming_entities_renames_scores(self, path, instance, rnd):
        r_b, r_c, r_p, weights = instance
        names, _ = terms_of(r_b, r_c, r_p, weights)
        targets = [f"x{i}" for i in range(len(names))]
        rnd.shuffle(targets)
        rename = dict(zip(names, targets))
        renamed = (
            [rename[e] for e in r_b],
            [rename[e] for e in r_c],
            [
                make_constraint({rename[e] for e in c.higher}, {rename[e] for e in c.lower})
                for c in r_p
            ],
        )
        with direction_path(path):
            sv, _ = optimize(r_b, r_c, r_p, weights)
            sv_renamed, _ = optimize(*renamed, weights)
        for e in names:
            assert sv_renamed.scores[rename[e]] == pytest.approx(sv.scores[e], abs=1e-7)

    @given(st.integers(2, 50).flatmap(lambda n: st.permutations([f"e{i}" for i in range(n)])))
    @settings(max_examples=40, deadline=None)
    def test_baseline_only_weights_reproduce_r_b(self, r_b):
        sv, ordering = optimize(r_b, [], [], ObjectiveWeights(alpha=0.0, beta=0.0))
        assert sv.converged
        assert ordering == r_b

    @given(
        aggregation_instances(max_n=10),
        st.lists(st.floats(-5.0, 5.0), min_size=10, max_size=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_posterior_gradient_matches_finite_differences(self, instance, values):
        # the softmax rows of the dense path and the O(n) pass of the CG path
        for path in ("dense", "cg"):
            with direction_path(path):
                names, terms = terms_of(*instance)
            s = np.array(values[: len(names)])
            grad = terms.posterior(s)[1]
            h = 1e-3
            for i in range(len(names)):
                step = np.zeros(len(names))
                step[i] = h

                def diff(k):
                    return terms.posterior(s + k * step)[0] - terms.posterior(s - k * step)[0]

                # fourth-order central difference: its truncation (~h^4) and
                # rounding (~1e-16 |F| / h) errors stay near 1e-12, below the
                # 1e-10 that the tolerance allows a gradient under 1e-6
                fd = (8 * diff(1) - diff(2)) / (12 * h)
                assert abs(grad[i] - fd) / max(1e-6, abs(fd), abs(grad[i])) < 1e-4

    def test_ten_thousand_entity_ordering_converges(self):
        # the MAP scores of one 10,000-entity ordering span ~560 units; from
        # s = 0 the solve reaches them in 17 steps, none of which the step
        # cap shortens
        names = [f"e{i:05d}" for i in range(10_000)]
        sv, ordering = optimize(names, [], [], ObjectiveWeights(alpha=0.0, beta=0.0))
        assert sv.converged
        assert ordering == names

    @pytest.mark.parametrize("n", [aggregate.DENSE_NEWTON_MAX_N, 2000], ids=["dense", "cg"])
    @pytest.mark.parametrize("case", ["agreeing", "opposed", "one_beats_all", "all_beat_one"])
    def test_the_solve_from_zero_converges_at_scale(self, n, case):
        # every entity is its own class, so n = 120 takes dense steps and
        # n = 2,000 CG steps; R_b is the name order
        names = [f"e{i:04d}" for i in range(n)]
        r_c, r_p = {
            "agreeing": (names, []),
            "opposed": (names[::-1], []),
            "one_beats_all": ([], [make_constraint(names[:1], names[1:])]),
            "all_beat_one": ([], [make_constraint(names[:-1], names[-1:])]),
        }[case]
        sv, ordering = optimize(names, r_c, r_p)
        assert sv.converged
        if case != "opposed":
            assert ordering == names

    def test_long_ordering_with_wide_score_span_converges(self):
        # one long ordering pushes its tail far down, so the MAP scores span
        # hundreds of units; no exponential in the curvature may overflow or
        # underflow over that range
        names = [f"e{i:04d}" for i in range(1000)]
        sv, ordering = optimize(names, [], [], ObjectiveWeights(alpha=0.0, beta=0.0))
        assert sv.converged
        assert ordering == names
        assert max(sv.scores.values()) - min(sv.scores.values()) > 300

    def test_dense_path_with_wide_score_span_reproduces_r_b(self):
        # the largest universe that takes dense Newton steps; its MAP scores
        # span over a hundred units, so its Hessian entries span ~e^300
        names = [f"e{i:04d}" for i in range(aggregate.DENSE_NEWTON_MAX_N)]
        sv, ordering = optimize(names, [], [], ObjectiveWeights(alpha=0.0, beta=0.0))
        assert sv.converged
        assert ordering == names
        assert max(sv.scores.values()) - min(sv.scores.values()) > 100

    def test_twelve_thousand_entities_fast_and_small(self):
        rng = np.random.default_rng(12)
        n = 12_000
        names = [f"e{i:05d}" for i in range(n)]
        # R_b is the truth order; R_c a noisy copy of most of it; constraints
        # pit consecutive blocks of the truth order against each other
        r_b = list(names)
        noisy = np.arange(n) + rng.normal(0.0, 300.0, n)
        r_c = [names[i] for i in np.argsort(noisy) if i % 4]
        r_p = [
            make_constraint(names[i : i + 40], names[i + 40 : i + 100])
            for i in range(0, 3000, 100)
        ]
        started = time.perf_counter()
        sv, _ = optimize(r_b, r_c, r_p)
        elapsed = time.perf_counter() - started
        assert sv.converged
        assert elapsed < 2.0, f"{elapsed:.2f}s"

        tracemalloc.start()
        try:
            optimize(r_b, r_c, r_p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"


@st.composite
def bucket_instances(draw, max_n=12):
    """Random bucket orders, constraints and weights over entities
    e0..e{n-1}: an ordering's items are groups of tied names, a group of one
    given as a list or as the bare name."""
    n = draw(st.integers(2, max_n))
    names = [f"e{i}" for i in range(n)]

    def bucket_order(size):
        members = draw(st.permutations(names))[:size]
        cuts = sorted(draw(st.sets(st.integers(1, max(1, size - 1))))) if size >= 2 else []
        groups = [members[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, size]) if lo < hi]
        return [g[0] if len(g) == 1 and draw(st.booleans()) else g for g in groups]

    r_b = bucket_order(draw(st.integers(2, n)))
    r_c = bucket_order(draw(st.integers(0, n)))
    r_p = []
    for _ in range(draw(st.integers(0, 3))):
        members = draw(st.permutations(names))[: draw(st.integers(2, n))]
        cut = draw(st.integers(1, len(members) - 1))
        r_p.append(make_constraint(members[:cut], members[cut:]))
    alpha = draw(st.floats(0.0, 0.6))
    beta = draw(st.floats(0.0, 1.0 - alpha))
    return r_b, r_c, r_p, ObjectiveWeights(alpha=alpha, beta=beta)


def groups_of(ordering):
    return [[item] if isinstance(item, str) else list(item) for item in ordering]


class TestBucketOrders:
    def test_single_names_give_the_plackett_luce_likelihood_bit_for_bit(self):
        # the orderings' part recorded before an ordering could hold groups
        # of tied names, the constraints' once each was a two-bucket stage
        scores = {"a": 0.5, "b": -1.25, "c": 2.0, "d": 0.0, "e": -0.75}
        r_b, r_c = ["c", "a", "d", "b", "e"], ["b", "e", "a", "c"]
        r_p = [make_constraint("ab", "cd"), make_constraint("e", "a")]
        w = ObjectiveWeights(alpha=0.3, beta=0.2)
        recorded = {
            "a": "0x1.387d349e9dd0dp-2", "b": "0x1.4f281a45ec5d0p-1",
            "c": "-0x1.aa8cdaec2964ap-1", "d": "-0x1.071ad41c3dea0p-6",
            "e": "-0x1.c50818417f8c8p-4",
        }
        for orderings in ((r_b, r_c), (groups_of(r_b), groups_of(r_c))):
            assert objective(scores, *orderings, r_p, w).hex() == "-0x1.4b52bbb33c650p+2"
            assert {e: g.hex() for e, g in gradient(scores, *orderings, r_p, w).items()} == recorded

    def test_a_tied_bucket_gets_breslows_term(self):
        scores = {"a": 0.4, "b": -0.3, "c": 1.1, "d": 0.2}
        z = sum(math.exp(v) for v in scores.values())
        z_cd = math.exp(1.1) + math.exp(0.2)
        # {a, b} chosen together from all four, then c from {c, d}
        expected = 0.4 - 0.3 - 2 * math.log(z) + 1.1 - math.log(z_cd)
        got = listwise([{"a", "b"}, "c", "d"], scores)
        assert got == pytest.approx(expected, rel=1e-12)
        # a tied last bucket is no stage; one bucket is no ordering at all
        assert listwise([{"a", "b"}, {"c", "d"}], scores) == pytest.approx(
            0.4 - 0.3 - 2 * math.log(z), rel=1e-12
        )
        assert listwise([{"a", "b", "c", "d"}], scores) == 0.0

    def test_only_orderings_that_count_key_the_classes(self):
        # R_c of weight 0 splits no class; with R_b in one bucket as well,
        # no ordering counts and every entity is one class, listed by name
        r_b, r_c, w = [{"a", "b", "c"}], ["c", "b", "a"], ObjectiveWeights(alpha=0.0, beta=0.0)
        _, terms, class_of = class_terms_of(r_b, r_c, [], w)
        assert terms.n == 1 and class_of.tolist() == [0, 0, 0]
        sv, ordering = optimize(r_b, r_c, [], w)
        assert ordering == ["a", "b", "c"] and len(set(sv.scores.values())) == 1
        assert sv.converged

    def test_malformed_bucket_orders_are_rejected(self):
        with pytest.raises(ValueError):
            optimize(["a", set(), "b"], [], [])
        with pytest.raises(ValueError):
            optimize([{"a", "b"}, "a"], [], [])

    @given(
        bucket_instances(),
        st.lists(st.floats(-5.0, 5.0), min_size=12, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_class_posterior_is_the_entity_posterior_at_tied_scores(self, instance, values):
        # each class is its entities' one shared score: F and its gradient
        # summed over each class's entities, on both direction paths
        for path in ("dense", "cg"):
            with direction_path(path):
                names, terms, class_of = class_terms_of(*instance)
                _, entity_terms = terms_of(*instance)
            s = np.array(values[: terms.n])
            f, g, _ = terms.posterior(s)
            f_entities, g_entities, _ = entity_terms.posterior(s[class_of])
            assert abs(f - f_entities) <= 1e-12 * (1.0 + abs(f))
            np.testing.assert_allclose(
                g, np.bincount(class_of, g_entities, minlength=terms.n), rtol=1e-12, atol=1e-12
            )

    @given(
        bucket_instances(max_n=10),
        st.lists(st.floats(-5.0, 5.0), min_size=20, max_size=20),
        st.lists(st.integers(1, 5), min_size=10, max_size=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_gradient_and_curvature_with_multiplicities_match_finite_differences(
        self, instance, values, mult
    ):
        r_b, r_c, r_p, weights = instance
        names, positions = positions_of(r_b, r_c, r_p)
        n = len(names)
        s, v = np.array(values[:n]), np.array(values[10 : 10 + n])
        mult = np.array(mult[:n], dtype=float)
        for path in ("dense", "cg"):
            with direction_path(path):
                terms = _Terms(mult, *_weighted(n, *positions, weights))
            grad = terms.posterior(s)[1]
            h = 1e-3
            for i in range(n):
                step = np.zeros(n)
                step[i] = h

                def diff(k):
                    return terms.posterior(s + k * step)[0] - terms.posterior(s - k * step)[0]

                fd = (8 * diff(1) - diff(2)) / (12 * h)
                assert abs(grad[i] - fd) / max(1e-6, abs(fd), abs(grad[i])) < 1e-4
        dense = _Terms(mult, *_weighted(n, *positions, weights))
        with direction_path("cg"):
            matrix_free = _Terms(mult, *_weighted(n, *positions, weights))
        hessian = dense.posterior(s)[2]
        diag, apply = matrix_free.posterior(s)[2]
        np.testing.assert_allclose(np.diag(hessian), diag, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(hessian @ v, apply(v), rtol=1e-9, atol=1e-11)
        h = 1e-5
        for i in range(n):
            step = np.zeros(n)
            step[i] = h
            fd = (dense.posterior(s + step)[1] - dense.posterior(s - step)[1]) / (2 * h)
            np.testing.assert_allclose(hessian[:, i], -fd, rtol=1e-4, atol=1e-7)

    @both_direction_paths
    @given(instance=bucket_instances())
    # on the CG path, e3's gradient over its diagonal curvature was 6.1e-7
    # where its Newton step, coupling included, was 1.3e-6: a rule on that
    # per-score estimate at 1e-6 stopped 1.06e-6 from the oracle
    @example(instance=(
        [["e0", "e1", "e2", "e4"]], [],
        [
            make_constraint({"e2"}, {"e0", "e1", "e3", "e4", "e5", "e6", "e7", "e8"}),
            make_constraint({"e0"}, {"e3"}),
            make_constraint({"e1"}, {"e2", "e4", "e5"}),
        ],
        ObjectiveWeights(alpha=0.0, beta=0.9375),
    ))
    # e4's curvature near its maximum is ~2e-6, far below the prior's b: a
    # solve stopped at a gradient bound of 1e-8 alone left it 6.4e-5 short
    @example(instance=(
        ["e0", "e1", "e2", "e3", "e5", "e6", "e7"], ["e7", "e4"], [],
        ObjectiveWeights(alpha=0.01, beta=0.0),
    ))
    @settings(max_examples=60, deadline=None)
    def test_class_solve_matches_the_entity_level_oracle(self, path, instance):
        with direction_path(path):
            sv, _ = optimize(*instance)
        assert sv.converged
        expected = oracle_map_scores(*instance)
        assert sv.scores.keys() == expected.keys()
        for e, score in expected.items():
            assert abs(sv.scores[e] - score) < 1e-6

    @given(instance=bucket_instances())
    @settings(max_examples=100, deadline=None)
    def test_tied_entities_get_bit_equal_scores(self, instance):
        r_b, r_c, r_p, weights = instance
        sv, ordering = optimize(*instance)
        b_bucket, c_bucket = (
            {e: k for k, group in enumerate(groups_of(r)) for e in group} for r in (r_b, r_c)
        )
        classes = {}
        for e, score in sv.scores.items():
            sides = tuple((e in c.higher, e in c.lower) for c in r_p)
            classes.setdefault((b_bucket.get(e), c_bucket.get(e), sides), set()).add(score.hex())
        assert all(len(scores) == 1 for scores in classes.values())
        # ties are listed by name
        for x, y in zip(ordering, ordering[1:]):
            assert sv.scores[x] > sv.scores[y] or (sv.scores[x] == sv.scores[y] and x < y)

    @both_direction_paths
    @given(instance=bucket_instances(), rnd=st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_renaming_entities_renames_scores(self, path, instance, rnd):
        r_b, r_c, r_p, weights = instance
        names, _ = positions_of(r_b, r_c, r_p)
        targets = [f"x{i}" for i in range(len(names))]
        rnd.shuffle(targets)
        rename = dict(zip(names, targets))
        renamed = (
            [[rename[e] for e in group] for group in groups_of(r_b)],
            [[rename[e] for e in group] for group in groups_of(r_c)],
            [
                make_constraint({rename[e] for e in c.higher}, {rename[e] for e in c.lower})
                for c in r_p
            ],
        )
        with direction_path(path):
            sv, _ = optimize(r_b, r_c, r_p, weights)
            sv_renamed, _ = optimize(*renamed, weights)
        assert sv.iterations == sv_renamed.iterations
        for e in names:
            assert abs(sv_renamed.scores[rename[e]] - sv.scores[e]) < 1e-9


@st.composite
def class_instances(draw):
    """bucket_instances with weights of 0 drawn often, so that whole
    orderings drop out."""
    r_b, r_c, r_p, _ = draw(bucket_instances())
    alpha, beta = draw(st.sampled_from(
        [(0.0, 0.0), (0.5, 0.5), (0.0, 0.3), (0.3, 0.0), (0.25, 0.25), (1 / 3, 1 / 3)]
    ))
    return r_b, r_c, r_p, ObjectiveWeights(alpha=alpha, beta=beta)


class TestClassBuilder:
    @given(class_instances())
    @settings(max_examples=200, deadline=None)
    def test_classes_match_a_dict_grouping_by_bucket_tuples(self, instance):
        r_b, r_c, r_p, weights = instance
        names, positions = positions_of(r_b, r_c, r_p)
        keys, sizes, row_weights = _weighted(len(names), *positions, weights)
        terms, class_of = _classes(keys, sizes, row_weights)
        expected_names, expected_weights, expected_keys, expected_class_of = oracle_classes(
            *instance
        )
        assert names == expected_names
        assert row_weights.tolist() == expected_weights
        assert class_of.tolist() == expected_class_of
        assert [tuple(column) for column in terms.keys.T.tolist()] == expected_keys
        assert terms.mult.tolist() == [
            expected_class_of.count(c) for c in range(len(expected_keys))
        ]


class TestConcavePosterior:
    @both_direction_paths
    @given(
        bucket_instances(),
        st.lists(st.floats(-5.0, 5.0), min_size=12, max_size=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_the_negated_hessian_is_positive_definite(self, path, instance, values):
        # every term, a set-vs-set constraint's too, is a Breslow stage: the
        # likelihood's -Hessian is positive semidefinite, and the prior makes
        # -Hessian F positive definite, as the dense matrix and as the matrix
        # that the CG path's product applies
        r_b, r_c, r_p, weights = instance
        assume(weights.beta > 0 and any(len(c.higher) > 1 for c in r_p))
        with direction_path(path):
            _, terms, _ = class_terms_of(*instance)
        s = np.array(values[: terms.n])
        curvature = terms.posterior(s)[2]
        prior = aggregate.PRIOR_RATE * terms.mult * np.exp(s)
        if path == "dense":
            hessian = curvature
        else:
            hessian = np.column_stack([curvature[1](e) for e in np.eye(terms.n)])
            np.testing.assert_allclose(hessian, hessian.T, rtol=1e-9, atol=1e-11)
        likelihood = hessian - np.diag(prior)
        assert np.linalg.eigvalsh(likelihood).min() > -1e-12 * max(1.0, np.abs(likelihood).max())
        assert np.linalg.eigvalsh(hessian).min() > 0

    @both_direction_paths
    @given(
        instance=bucket_instances(),
        starts=st.lists(
            st.lists(st.floats(-10.0, 10.0), min_size=12, max_size=12), min_size=3, max_size=3
        ),
    )
    # uncapped, the first CG-path step from the third start sent e0 to s ~
    # -34, deep in the prior's tail, and no later step raised F
    @example(
        instance=(
            [["e0", "e1", "e2"]], [["e2"], ["e1"]], [make_constraint({"e1"}, {"e0"})],
            ObjectiveWeights(alpha=0.5, beta=0.5),
        ),
        starts=[[0.0] * 12, [0.0] * 12, [-3.0, -5.0, -1.0] + [0.0] * 9],
    )
    @settings(max_examples=40, deadline=None)
    def test_every_start_reaches_the_oracle_maximum(self, path, instance, starts):
        # F has one maximum, so the solve reaches it from any start
        expected = oracle_map_scores(*instance)
        maximize = aggregate._maximize
        for start in starts:
            with direction_path(path), pytest.MonkeyPatch.context() as mp:
                mp.setattr(aggregate, "_maximize",
                           lambda terms, s: maximize(terms, np.array(start[: terms.n])))
                sv, _ = optimize(*instance)
            assert sv.converged
            for e, score in expected.items():
                assert abs(sv.scores[e] - score) < 1e-6
