import math
import random
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conceptq import aggregate
from conceptq.aggregate import (
    GRAD_TOL,
    ObjectiveWeights,
    _maximize,
    _Terms,
    gradient,
    listwise_log_likelihood,
    objective,
    optimize,
    pairwise_log_likelihood,
)
from conceptq.expansion import PairwiseConstraint


def make_constraint(higher, lower):
    return PairwiseConstraint(higher=frozenset(higher), lower=frozenset(lower))


def pair_prob(s_x, s_y):
    """P(x beats y), as exp of the two-entity ordering's log-likelihood."""
    return math.exp(listwise_log_likelihood(["x", "y"], {"x": s_x, "y": s_y}))


class TestTwoEntityOrdering:
    def test_equal_scores(self):
        assert pair_prob(0.3, 0.3) == pytest.approx(0.5)

    def test_three_to_one(self):
        assert pair_prob(math.log(3), 0.0) == pytest.approx(0.75)

    def test_extreme_gap_is_stable(self):
        assert pair_prob(0.0, 1000.0) == pytest.approx(0.0, abs=1e-300)
        assert pair_prob(1000.0, 0.0) == pytest.approx(1.0)
        assert listwise_log_likelihood(["x", "y"], {"x": 0.0, "y": 1000.0}) == -1000.0


class TestListwiseLogLikelihood:
    def test_single_element_is_zero(self):
        assert listwise_log_likelihood(["a"], {"a": 3.0}) == 0.0
        assert listwise_log_likelihood([], {}) == 0.0

    def test_two_equal_scores(self):
        ll = listwise_log_likelihood(["a", "b"], {"a": 1.0, "b": 1.0})
        assert ll == pytest.approx(math.log(0.5))

    def test_three_elements_hand_evaluated(self):
        scores = {"a": 1.0, "b": 0.0, "c": -1.0}
        # direct term-by-term evaluation, independent of the implementation
        term1 = math.log(math.exp(1) / (math.exp(1) + math.exp(0) + math.exp(-1)))
        term2 = math.log(math.exp(0) / (math.exp(0) + math.exp(-1)))
        got = listwise_log_likelihood(["a", "b", "c"], scores)
        assert got == pytest.approx(term1 + term2, rel=1e-12)

    def test_shift_invariance(self):
        scores = {"a": 0.7, "b": -0.2, "c": 1.4}
        base = listwise_log_likelihood(["c", "a", "b"], scores)
        shifted = {k: v + 123.0 for k, v in scores.items()}
        assert listwise_log_likelihood(["c", "a", "b"], shifted) == pytest.approx(
            base, abs=1e-12
        )

    def test_extreme_scores_stay_finite(self):
        scores = {"a": 800.0, "b": -800.0, "c": 0.0}
        ll = listwise_log_likelihood(["b", "a", "c"], scores)
        assert math.isfinite(ll)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            listwise_log_likelihood(["a", "a"], {"a": 0.0})

    def test_unknown_entity_rejected(self):
        with pytest.raises(ValueError):
            listwise_log_likelihood(["a", "b"], {"a": 0.0})


class TestPairwiseLogLikelihood:
    def test_singleton_sides_reduce_to_pair_prob(self):
        scores = {"a": 0.0, "b": 0.0}
        ll = pairwise_log_likelihood([make_constraint({"a"}, {"b"})], scores)
        assert ll == pytest.approx(math.log(0.5))

    def test_counting_case(self):
        scores = {"a": 0.0, "b": 0.0, "c": 0.0}
        ll = pairwise_log_likelihood([make_constraint({"a", "b"}, {"c"})], scores)
        assert ll == pytest.approx(math.log(2.0 / 3.0))

    def test_saturation_from_below(self):
        scores = {"a": 1000.0, "b": 0.0}
        ll = pairwise_log_likelihood([make_constraint({"a"}, {"b"})], scores)
        assert -1e-300 < ll <= 0.0

    def test_no_constraints(self):
        assert pairwise_log_likelihood([], {"a": 0.0}) == 0.0


class TestObjective:
    def test_degenerate_weights_reduce_to_baseline(self):
        scores = {"a": 0.4, "b": -0.1, "c": 0.2}
        r_b = ["b", "c", "a"]
        w = ObjectiveWeights(alpha=0.0, beta=0.0)
        assert objective(scores, r_b, ["a", "b"], [make_constraint({"a"}, {"b"})], w) == (
            listwise_log_likelihood(r_b, scores)
        )

    def test_weighted_sum_matches_direct_evaluation(self):
        scores = {"a": 0.5, "b": 0.0, "c": -0.5}
        r_b = ["a", "b", "c"]
        r_c = ["b", "a", "c"]
        r_p = [make_constraint({"a"}, {"c"})]
        w = ObjectiveWeights(alpha=1 / 3, beta=1 / 3)
        expected = (
            (1 / 3) * listwise_log_likelihood(r_b, scores)
            + (1 / 3) * listwise_log_likelihood(r_c, scores)
            + (1 / 3) * pairwise_log_likelihood(r_p, scores)
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


def finite_difference(scores, r_b, r_c, r_p, weights, entity, h=1e-5):
    up = dict(scores)
    down = dict(scores)
    up[entity] += h
    down[entity] -= h
    return (
        objective(up, r_b, r_c, r_p, weights)
        - objective(down, r_b, r_c, r_p, weights)
    ) / (2 * h)


class TestGradient:
    def test_single_constraint_hand_value(self):
        scores = {"a": 0.0, "b": 0.0}
        w = ObjectiveWeights(alpha=0.0, beta=0.9)
        grad = gradient(scores, [], [], [make_constraint({"a"}, {"b"})], w)
        assert grad["a"] == pytest.approx(0.9 / 2)
        assert grad["b"] == pytest.approx(-0.9 / 2)

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
    """_Terms over the name-ordered universe, each name at its position
    there and each constraint side in name order, as ``optimize`` builds it."""
    names = sorted(set(r_b) | set(r_c) | {e for c in r_p for e in c.higher | c.lower})
    index = {e: i for i, e in enumerate(names)}

    def at(entities):
        return np.array([index[e] for e in entities], dtype=np.intp)

    cons = [(at(sorted(c.higher)), at(sorted(c.lower))) for c in r_p]
    return names, _Terms(len(names), at(r_b), at(r_c), cons, weights)


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
        hessian, _, _ = terms.posterior(s)[2]
        assert hessian.shape == (n, n)
        np.testing.assert_allclose(hessian, hessian.T, rtol=0, atol=1e-13)
        diag, apply = terms.evaluate(s)[2]
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
        diag, apply, _ = terms.posterior(s)[2]
        assert diag.shape == (n,)
        h = 1e-4
        for _ in range(3):
            v = rng.normal(0.0, 1.0, n)
            fd = (terms.evaluate(s + h * v)[1] - terms.evaluate(s - h * v)[1]) / (2 * h)
            np.testing.assert_allclose(apply(v), -fd, rtol=1e-4, atol=1e-9)


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
        value, grad, _ = terms.evaluate(s)
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
    def test_a_certified_matrix_is_positive_definite(self, instance, values):
        names, terms = terms_of(*instance)
        hessian, certified, _ = terms.posterior(np.array(values[: len(names)]))[2]
        if certified:
            np.linalg.cholesky(hessian)

    @given(instance=aggregation_instances())
    @settings(max_examples=60, deadline=None)
    def test_without_set_constraints_no_cholesky_runs(self, instance):
        # orderings and singleton constraints are concave, so the prior's
        # curvature alone certifies every matrix
        r_b, r_c, r_p, weights = instance
        r_p = [c for c in r_p if len(c.higher) == 1]

        def cholesky(a):
            raise AssertionError("cholesky() called without a set-vs-set constraint")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "cholesky", cholesky)
            sv, _ = optimize(r_b, r_c, r_p, weights)
        assert sv.converged


class TestNewtonSolve:
    @both_direction_paths
    @given(instance=aggregation_instances())
    @settings(max_examples=60, deadline=None)
    def test_converges_below_tol(self, path, instance):
        r_b, r_c, r_p, weights = instance
        with direction_path(path):
            sv, _ = optimize(r_b, r_c, r_p, weights)
            names, terms = terms_of(r_b, r_c, r_p, weights)
            s, steps, converged = _maximize(terms)
        assert sv.converged
        # the reported scores are the MAP point re-centred to mean zero
        assert converged and steps == sv.iterations
        assert np.max(np.abs(terms.posterior(s)[1])) < GRAD_TOL
        for e, value in zip(names, s - s.mean()):
            assert sv.scores[e] == value

    @given(instance=aggregation_instances())
    @settings(max_examples=100, deadline=None)
    def test_small_universes_never_take_the_cg_path(self, instance):
        # an indefinite dense Hessian must not fall back to the matrix-free
        # pass: each universe size has one direction method
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
        # one pass per line-search trial plus one at the start: the accepted
        # point's curvature comes with its F and gradient, and no ordering's
        # suffix sums are taken a second time at that point
        rng = np.random.default_rng(3)
        names = [f"e{i:04d}" for i in range(1000)]
        r_b = [names[i] for i in rng.permutation(1000)]
        r_c = [names[i] for i in rng.permutation(1000)[:600]]
        r_p = [
            make_constraint(names[:6], names[6:20]), make_constraint(names[20:30], names[30:45])
        ]
        _, terms = terms_of(r_b, r_c, r_p, ObjectiveWeights())
        points, trials, suffix_sums = [], [], []
        original_evaluate, original_search = _Terms.evaluate, aggregate._line_search
        original_sums = aggregate._log_suffix_sums

        def log_suffix_sums(so):
            suffix_sums.append(so.size)
            return original_sums(so)

        def evaluate(self, s):
            points.append(s.tobytes())
            return original_evaluate(self, s)

        def line_search(terms, s, f, g, d):
            before = len(points)
            accepted = original_search(terms, s, f, g, d)
            trials.append(len(points) - before)
            return accepted

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Terms, "evaluate", evaluate)
            mp.setattr(aggregate, "_line_search", line_search)
            mp.setattr(aggregate, "_log_suffix_sums", log_suffix_sums)
            s, steps, converged = _maximize(terms)
        assert converged and steps == len(trials) > 0
        assert all(n >= 1 for n in trials)
        assert len(points) == 1 + sum(trials)
        assert len(set(points)) == len(points)
        # the MM start's updates, then one per ordering per pass
        assert len(suffix_sums) == len(terms.lists) * (aggregate.MM_STEPS + len(points))

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

    @both_direction_paths
    @given(instance=aggregation_instances())
    # e4's curvature near its maximum is ~2e-6, far below the prior's b: a
    # solve stopped at |grad F| < GRAD_TOL alone left it 6.4e-5 short
    @example(instance=(
        ["e0", "e1", "e2", "e3", "e5", "e6", "e7"], ["e7", "e4"], [],
        ObjectiveWeights(alpha=0.01, beta=0.0),
    ))
    @settings(max_examples=60, deadline=None)
    def test_warm_and_cold_starts_reach_the_same_maximum(self, path, instance):
        r_b, r_c, r_p, weights = instance
        # without set-vs-set constraints F is strictly concave: one maximum
        r_p = [c for c in r_p if len(c.higher) == 1]
        with direction_path(path):
            warm, warm_order = optimize(r_b, r_c, r_p, weights)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(aggregate, "_start", lambda terms: np.zeros(terms.n))
                cold, cold_order = optimize(r_b, r_c, r_p, weights)
        assert warm.converged and cold.converged
        # the solve stops once each score's gradient over its curvature is
        # below GRAD_TOL over the prior's b = 0.01
        tol = 10 * GRAD_TOL / aggregate.PRIOR_RATE
        for e, score in warm.scores.items():
            assert abs(cold.scores[e] - score) < tol
        # the orderings agree except between scores closer than that
        rank = {e: i for i, e in enumerate(cold_order)}
        for i, x in enumerate(warm_order):
            for y in warm_order[i + 1 :]:
                if rank[x] > rank[y]:
                    assert abs(warm.scores[x] - warm.scores[y]) < tol

    @both_direction_paths
    def test_set_constraints_with_two_maxima_reach_the_higher_one(self, path):
        # F has two strict local maxima here: one with e7 first
        # (likelihood -1.6507) and a higher one with e7 last
        r_b = ["e6", "e4", "e2", "e3", "e5", "e7"]
        r_c = ["e3", "e4", "e1", "e2", "e5"]
        r_p = [
            make_constraint({"e4", "e7"}, {"e0", "e1", "e2", "e3", "e6"}),
            make_constraint({"e0", "e2", "e4", "e5", "e6"}, {"e1", "e3"}),
        ]
        weights = ObjectiveWeights(alpha=0.5629318450042192, beta=0.39561097969326425)
        with direction_path(path):
            sv, ordering = optimize(r_b, r_c, r_p, weights)
        assert sv.converged
        assert ordering[-1] == "e7"
        assert objective(sv.scores, r_b, r_c, r_p, weights) == pytest.approx(
            -1.4187701085794333, abs=1e-6
        )

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

    @both_direction_paths
    def test_a_step_into_the_prior_tail_is_capped_and_the_solve_converges(self, path):
        # at the MM start -Hessian F is indefinite and g over its diagonal
        # moves e8 by -670; uncapped, the line search left e8 at -170, where
        # the next direction was ~4e70 long and no step of at least 2^-30
        # raised F, so the solve gave up after one step
        r_b = ["e5", "e6", "e1", "e4", "e0", "e7", "e8"]
        r_c = ["e2", "e1", "e6", "e3", "e5", "e7", "e0", "e4"]
        r_p = [
            make_constraint({"e7"}, {"e0", "e1", "e2", "e3", "e4", "e5", "e6", "e8"}),
            make_constraint({"e4"}, {"e8"}),
            make_constraint({"e7", "e8"}, {"e0", "e2", "e3", "e5"}),
        ]
        weights = ObjectiveWeights(alpha=0.5245652076202623, beta=0.45517481005068505)
        with direction_path(path):
            sv, ordering = optimize(r_b, r_c, r_p, weights)
        assert sv.converged
        assert ordering[-1] == "e8"
        assert sv.scores["e8"] == pytest.approx(-7.705, abs=1e-3)
        assert objective(sv.scores, r_b, r_c, r_p, weights) == pytest.approx(
            -4.8323962807, abs=1e-8
        )

    def test_ten_thousand_entity_ordering_converges(self):
        # uncapped, the direction after five steps was ~2e17 long and no step
        # of at least 2^-30 raised F, so the solve gave up
        names = [f"e{i:05d}" for i in range(10_000)]
        sv, ordering = optimize(names, [], [], ObjectiveWeights(alpha=0.0, beta=0.0))
        assert sv.converged
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
