"""Rank aggregation by maximum a posteriori Bradley-Terry scores.

Each entity gets a real score s; a pairwise win is modeled as
P(x beats y) = e^{s_x} / (e^{s_x} + e^{s_y}). An ordering is a bucket order
Z = [B_1, ..., B_K], groups of tied entities from best to worst, with
Breslow's (1974) sequential log-likelihood, one stage per bucket but the last:

    L(Z) = sum_{k=1}^{K-1} ( sum_{e in B_k} s_e - |B_k| log Z_k ),
    Z_k = sum_{j in B_k u ... u B_K} e^{s_j}

With one entity per bucket this is the Plackett-Luce likelihood of a total
ordering. A constraint X > Y, every entity of X above every entity of Y, is
the two-bucket order [X, Y], whose one stage is

    L(X, Y) = sum_{x in X} s_x - |X| log( sum_X e^{s_x} + sum_Y e^{s_y} ).

The aggregation likelihood combines the baseline ordering R_b, the expansion
ordering R_c, and the constraint list R_p:

    objective(s) = (1 - alpha - beta) L(R_b) + alpha L(R_c) + beta L(R_p)

The pipeline passes R_b and R_c as their runs of equal baseline weight and
equal rel(e), so no tie is read as a preference: renaming the entities
renames their scores and changes nothing else.

The objective depends only on score differences, and it has no finite
maximizer whenever agreeing orderings push scores apart (Ford 1957; Hunter
2004). The optimizer therefore maximizes the posterior under a weak
Gamma(a, b) prior on every strength e^{s} (Caron & Doucet 2012):

    F(s) = objective(s) + sum_i (a s_i - b e^{s_i}),    a = b = 0.01

The likelihood is at most 0 and every prior term tends to -inf as its score
goes to +-inf, so F has a finite maximizer. Every stage is a linear term
minus a log-sum-exp, so concave, and every prior term is strictly concave:
F is strictly concave and the maximizer is unique.

The solve reads its input as one bucket matrix: a row per ordering or
constraint with a term in F (a weight above 0 and two buckets or more), and
in it each entity's bucket, one past the last for an entity outside it.
Entities with equal columns are interchangeable in F, so the maximizer gives
them one score, and the solve runs over these classes: a class of m entities
is one variable whose e^s enters every sum m times (a log m offset in each
log-sum-exp), whose linear terms count m times, and whose prior term is m (a
s - b e^s). One class builder finds them with one lexsort over the
matrix's rows. Tied entities get bit-equal scores.

The solver is damped Newton from s = 0. Below, n counts classes, and each
universe size has one way to get a direction:

- Universes of at most DENSE_NEWTON_MAX_N classes write the likelihood
  as lin . s + sum_r sigma_r L_r, L_r the log-sum-exp of s + log m over a
  row r of classes: an ordering of weight w has a row per stage k, the
  classes of buckets k..K (sigma = -w |B_k|, and w m_j s_j in lin for each
  class j of B_k), all built from the classes' bucket matrix in one
  vectorized pass. With p_r the softmax of s + log m over row r, one pass
  gives F, grad F = lin + p^T sigma + prior' and -Hessian F = (p * sigma)^T
  p - diag(p^T sigma) + diag(m b e^s), and numpy.linalg.solve the exact
  Newton step; there an O(n^3) solve costs less than the ~20 numpy-bound CG
  products it replaces.
- Larger universes use conjugate gradients on exact Hessian-vector
  products, preconditioned by the Hessian's diagonal. A product costs
  O(n): an ordering's curvature is a suffix sum over its classes and a
  prefix sum over its stages, and the prior's is diagonal. No n x n array
  is formed on this path, so a universe of 10^4 classes stays within a few
  MB where its dense Hessian would take a GB.

Both paths read each point once: one pass over the terms gives F, its
gradient and the curvature -Hessian F (the dense matrix above, its diagonal
and product below). A direction that moves a score by more than _MAX_MOVE is
scaled down to that move, and Armijo backtracking accepts only finite steps
that raise F; a gain too small to survive rounding in F is measured by the
trapezoid rule on the directional derivatives instead. The solve stops on
the Newton step d, (-Hessian F) d = grad F, that it computes at every point
anyway: once max |d| < SCORE_TOL. F being strictly concave, d is the
quadratic model's estimate of each score's distance to the maximum, the
coupling between scores included (Boyd & Vandenberghe 2004, section 9.5,
stop on the Newton decrement, the same step measured in -Hessian F's
norm). It reports ``converged=False`` when it hits MAX_NEWTON_STEPS or
cannot raise F any further first. The reported scores are re-centered to
mean zero over the entities.

All log-sum-exp reductions are max-shifted; gradients are assembled from
exponent differences that are bounded above by zero, so no intermediate can
overflow regardless of score magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .expansion import PairwiseConstraint

DEFAULT_ALPHA = 1.0 / 3.0
DEFAULT_BETA = 1.0 / 3.0
# The solve stops once its Newton step moves no score by this much, half the
# 1e-6 the scores are meant to be good to. On the first 400 interactive, 400
# large_kb and 200 holdout seed-1 queries it took 3,606 / 3,228 / 1,801
# Newton steps, and 1e-7 took 3,606 / 3,248 / 1,804.
SCORE_TOL = 5e-7
PRIOR_SHAPE = 0.01  # a: the prior's pull towards larger scores
PRIOR_RATE = 0.01  # b: the prior's pull towards smaller scores
MAX_NEWTON_STEPS = 100
# Largest universe whose Newton directions come from the dense Hessian, not
# CG. Measured on synthetic queries (orderings of n/2 and 0.9 n entities, one
# or two 6-vs-12..30 constraints), one BLAS thread on a 2-vCPU x86 VM, ms per
# solve dense vs CG: n = 100 2.7 vs 3.3, 110 3.2 vs 3.9, 120 5.0 vs 5.4,
# 124 5.5 vs 5.8, 128 4.6 vs 3.7, 140 5.4 vs 4.1, 160 6.8 vs 4.0, 250 16 vs
# 5.8. The dense cost grows as n^3, CG's about as n.
DENSE_NEWTON_MAX_N = 120
_ARMIJO = 1e-4
_MIN_STEP = 2.0**-30
_RESOLUTION = 1e-10  # relative size of an F gain lost in rounding
# Largest move of any score in one step (seed-1 steps move one by <= 9.3); a
# longer direction, e.g. ~3e13 from a score in the prior's tail (the CG-path
# @example of test_every_start_reaches_the_oracle_maximum), is scaled down to
# it so a step of >= _MIN_STEP can raise F.
_MAX_MOVE = 700.0
# Cap on the exponents of the curvature's coupling factors. It binds only
# once an ordering's log-normalizers span more than 2 * 650, and it keeps
# every product of the Hessian-vector product finite.
_EXP_CAP = 650.0


@dataclass(frozen=True)
class ObjectiveWeights:
    """Mixing weights; the baseline ordering gets 1 - alpha - beta."""

    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA

    def __post_init__(self):
        # written so that NaN fails them
        if not (self.alpha >= 0 and self.beta >= 0):
            raise ValueError("alpha and beta must be non-negative")
        if not self.alpha + self.beta <= 1.0 + 1e-12:
            raise ValueError("alpha + beta must not exceed 1")

    @property
    def baseline(self) -> float:
        return 1.0 - self.alpha - self.beta


@dataclass(eq=False)
class ScoreVector:
    """Optimized per-entity scores by position in the name-ordered universe,
    whose entity i is ``entity_names[ids[i]]``; the name views ``scores`` and
    ``universe`` are built on first read. ``iterations`` counts Newton steps;
    ``converged`` is False when the solve stopped before the Newton step d
    over the classes, (-Hessian F) d = grad F, had max |d| < SCORE_TOL."""

    values: np.ndarray
    iterations: int
    converged: bool
    entity_names: Sequence[str]
    ids: np.ndarray

    def names_at(self, positions) -> list[str]:
        """The names of the universe's entities at ``positions``."""
        return [self.entity_names[e] for e in self.ids[positions].tolist()]

    @cached_property
    def scores(self) -> dict[str, float]:
        return dict(zip(self.names_at(slice(None)), self.values.tolist()))

    @cached_property
    def universe(self) -> frozenset[str]:  # perfbench reads it
        return frozenset(self.scores)


# -- the likelihood as index arrays ------------------------------------------


class _Ordering:
    """One weighted bucket order of _Terms from its row of the bucket matrix,
    with at least two buckets: the units ``idx`` bucket by bucket, each
    bucket in ascending order, bucket k being idx[bounds[k]:bounds[k+1]].
    Stage k < K - 1 chooses bucket k from the risk set of buckets k..K-1."""

    def __init__(self, row: np.ndarray, size: int, weight: float, mult: np.ndarray):
        idx = np.argsort(row, kind="stable")[: np.count_nonzero(row < size)]
        bounds = bucket_bounds(row[idx])
        self.idx, self.weight = idx, weight
        self.starts = bounds[:-2]  # each stage's first position
        self.cut = int(bounds[-2])  # the positions before it are chosen at a stage
        self.chosen = mult[idx[: self.cut]]
        self.d = np.add.reduceat(self.chosen, self.starts)  # entities chosen per stage
        self.log_d = np.log(self.d)
        # the last stage whose risk set holds each position
        last = len(bounds) - 3
        self.stage = np.minimum(np.repeat(np.arange(last + 2), np.diff(bounds)), last)

    def running(self, terms: np.ndarray) -> np.ndarray:
        """Running log-sum-exp of per-stage terms, at every position over the
        stages whose risk set holds it."""
        return np.logaddexp.accumulate(terms)[self.stage]


class _Terms:
    """The weighted likelihood over units ``0..n-1``: classes of ``mult``
    entities each, or entities when every multiplicity is 1, and the bucket
    matrix of _weighted over them (``sizes[r]`` marks a unit outside row r)."""

    def __init__(self, mult: np.ndarray, keys: np.ndarray, sizes: np.ndarray, weights: np.ndarray):
        self.n, self.mult = len(mult), mult
        self.log_mult = np.log(mult)
        # the prior's a m and b m
        self.shape, self.rate = PRIOR_SHAPE * mult, PRIOR_RATE * mult
        self.keys, self.sizes, self.weights = keys, sizes, weights
        # Dense-path universes keep the module docstring's rows (stage k of an
        # ordering: its buckets k..) as a log m/-inf mask and a 1/0 member
        # array, their weights sigma and lin.
        self.mask = None
        if self.n <= DENSE_NEWTON_MAX_N:
            stages = sizes - 1
            row = np.repeat(np.arange(len(sizes)), stages)  # each row's ordering
            stage = (np.arange(len(row)) - np.repeat(np.cumsum(stages) - stages, stages))[:, None]
            bucket = keys[row]
            member = (bucket >= stage) & (bucket < sizes[row][:, None])
            self.mask = np.where(member, self.log_mult, -np.inf)
            self.member = member.astype(float)
            self.signed = -weights[row] * np.where(bucket == stage, mult, 0.0).sum(axis=1)
            self.lin = np.where(keys < stages[:, None], weights[:, None] * mult, 0.0).sum(axis=0)

    @cached_property
    def lists(self) -> list[_Ordering]:  # evaluate's orderings
        rows = zip(self.keys, self.sizes.tolist(), self.weights.tolist())
        return [_Ordering(row, size, weight, self.mult) for row, size, weight in rows]

    @cached_property
    def slots(self) -> np.ndarray:
        # Gradient and curvature produce one value per (ordering, position)
        # slot, in this order; _scatter sums them per unit.
        return np.concatenate([np.empty(0, dtype=np.intp), *(o.idx for o in self.lists)])

    def _scatter(self, parts: list[np.ndarray]) -> np.ndarray:
        # bincount returns integers when there are no slots at all (no
        # ordering counts), so the result is cast to float
        weights = np.concatenate([np.empty(0), *parts])
        return np.bincount(self.slots, weights, minlength=self.n).astype(float, copy=False)

    def evaluate(self, s: np.ndarray):
        """The likelihood at ``s``, its gradient, the diagonal of its
        -Hessian and a function applying that -Hessian, from one pass.

        With t = s + log m, an ordering's unit at position p has the
        derivative m_p [p chosen at a stage] minus sum_k d_k pi_k(p) over the
        stages k whose risk set holds p, pi_k(p) = e^{t_p} / Z_k; that sum is
        exp(t_p + M_p), M_p the running log-sum-exp of log d_k - log Z_k, so
        every exponent stays bounded.
        """
        t, ms = s + self.log_mult, self.mult * s
        total, parts, diag, products = 0.0, [], [], []
        for o in self.lists:
            so = t[o.idx]
            suffix = _log_suffix_sums(so)
            logz = suffix[o.starts]
            chosen = np.add.reduceat(ms[o.idx[: o.cut]], o.starts)
            total += o.weight * float(np.sum(chosen - o.d * logz))
            c = np.exp(so + o.running(o.log_d - logz))  # sum_k d_k pi_k(p)
            part = -o.weight * c
            part[: o.cut] += o.weight * o.chosen
            parts.append(part)
            diag.append(o.weight * (c - np.exp(2.0 * so + o.running(o.log_d - 2.0 * logz))))
            # pi_k(p) = e^{t_p - mid} e^{mid - log Z_k}, split at the middle
            # of log Z's range so that both factors stay finite
            mid = 0.5 * (suffix[0] + suffix[-1])
            e = np.exp(np.minimum(so - mid, _EXP_CAP))
            inv_z = np.exp(np.minimum(mid - logz, _EXP_CAP))
            products.append((o, o.weight * c, o.weight * e, e, inv_z))

        def apply(v: np.ndarray) -> np.ndarray:
            parts = []
            for o, wc, we, e, inv_z in products:
                vo = v[o.idx]
                mu = (e * vo)[::-1].cumsum()[::-1][o.starts] * inv_z  # pi_k . v per stage
                parts.append(wc * vo - we * (o.d * mu * inv_z).cumsum()[o.stage])
            return self._scatter(parts)

        return total, self._scatter(parts), self._scatter(diag), apply

    def posterior(self, s: np.ndarray):
        """F(s), its gradient and its curvature -Hessian F there, from one
        pass. Up to DENSE_NEWTON_MAX_N units the curvature is the matrix, from
        one softmax over the rows of ``mask``; above, (diag, apply): its
        diagonal, the likelihood's part floored at 0, and a function applying
        it, from evaluate's pass."""
        with np.errstate(over="ignore"):
            strength = self.rate * np.exp(s)
        prior = float(np.sum(self.shape * s - strength))
        if self.mask is None:
            value, grad, diag, apply = self.evaluate(s)
            curvature = (np.maximum(diag, 0.0) + strength, lambda v: apply(v) + strength * v)
            return value + prior, grad + self.shape - strength, curvature
        z = s + self.mask
        top = z.max(axis=1)
        z -= top[:, None]
        # exp is slow on -inf and near its denormal range (below -708), so the
        # non-members are clipped to -700 and then zeroed
        np.maximum(z, -700.0, out=z)
        p = np.exp(z, out=z)
        p *= self.member
        total = p.sum(axis=1)
        p /= total[:, None]
        lse = top + np.log(total)
        weighted = p * self.signed[:, None]
        pull = weighted.sum(axis=0)
        value = _dot(self.lin, s) + _dot(self.signed, lse) + prior
        hessian = weighted.T @ p
        hessian.flat[:: self.n + 1] += strength - pull
        return value, self.lin + pull + self.shape - strength, hessian


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b without BLAS, whose threaded dot stalls for milliseconds per
    call once another process keeps the cores busy."""
    return float(np.add.reduce(a * b))


def _log_suffix_sums(so: np.ndarray) -> np.ndarray:
    """log sum_{j >= k} e^{so_j} for every suffix of ``so``, accumulated
    stably from the end."""
    return np.logaddexp.accumulate(so[::-1])[::-1]


def bucket_bounds(values: np.ndarray) -> np.ndarray:
    """The bucket bounds of an ordering whose items have the sorted
    ``values``: each run of equal values is one bucket of tied items."""
    change = np.flatnonzero(values[1:] != values[:-1]) + 1
    return np.concatenate(([0], change, [len(values)]))


def _weighted(n: int, r_b, r_c, r_p, weights: ObjectiveWeights):
    """The bucket matrix of the orderings that count, as _Terms takes it: the
    bucket orders ``r_b`` and ``r_c`` and each (higher, lower) constraint of
    ``r_p`` as its two-bucket order [higher, lower], those of weight > 0 and
    >= 2 buckets. Returns a row per ordering holding the bucket of each of
    the ``n`` entities, one past the last for an entity outside it, each
    row's bucket count and each row's weight."""
    orderings = [(o, w) for o, w in ((r_b, weights.baseline), (r_c, weights.alpha))
                 if w > 0 and len(o[1]) >= 3]
    pairs = r_p if weights.beta > 0 else []
    keys = np.empty((len(orderings) + len(pairs), n), dtype=np.intp)
    for row, ((idx, bounds), _) in zip(keys, orderings):
        row[:] = len(bounds) - 1
        row[idx] = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    for row, (higher, lower) in zip(keys[len(orderings):], pairs):
        row[:], row[higher], row[lower] = 2, 0, 1
    sizes = np.array([len(o[1]) - 1 for o, _ in orderings] + [2] * len(pairs), dtype=np.intp)
    return keys, sizes, np.array([w for _, w in orderings] + [weights.beta] * len(pairs))


def _classes(keys: np.ndarray, sizes: np.ndarray, weights: np.ndarray) -> tuple[_Terms, np.ndarray]:
    """The likelihood over the classes of _weighted's bucket matrix, and the
    class of each entity: the distinct columns (one class with no ordering),
    in ascending order, so they do not depend on names; one lexsort over
    the rows sorts them."""
    n = keys.shape[1]
    order = np.lexsort(keys[::-1]) if len(keys) else np.arange(n)
    ordered = keys[:, order]
    first = np.ones(n, dtype=bool)
    first[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    class_of = np.empty(n, dtype=np.intp)
    class_of[order] = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    mult = np.diff(np.append(starts, n)).astype(float)
    return _Terms(mult, keys[:, order[starts]], sizes, weights), class_of


def _buckets(ordering) -> tuple[list[str], np.ndarray]:
    """An ordering's names bucket by bucket, each group of tied names in name
    order, and its bucket bounds; an item is a name or a group."""
    if isinstance(ordering, str):
        raise ValueError(f"an ordering must be a collection of names or groups, got {ordering!r}")
    names, sizes = [], [0]
    for item in ordering:
        if isinstance(item, str):
            names.append(item)
            sizes.append(1)
        else:
            group = sorted(item)
            if not group:
                raise ValueError("ordering contains an empty group")
            names += group
            sizes.append(len(group))
    return names, np.cumsum(sizes)


def _positions(universe: Sequence[str], r_b, r_c, r_p):
    """The (names, bounds) bucket orders ``r_b`` and ``r_c`` and the
    constraints ``r_p`` as position arrays in ``universe``: each ordering a
    (positions, bounds) pair and each constraint a (higher, lower) pair,
    each side in name order. Raises ValueError when an ordering repeats an
    entity or an entity is outside ``universe``."""
    if len(set(r_b[0])) != len(r_b[0]) or len(set(r_c[0])) != len(r_c[0]):
        raise ValueError("ordering contains duplicate entities")
    index = {e: i for i, e in enumerate(universe)}
    mentioned = [*r_b[0], *r_c[0], *(e for con in r_p for e in con.higher | con.lower)]
    missing = [e for e in mentioned if e not in index]
    if missing:
        raise ValueError(f"entities outside the score universe: {missing}")

    def at(entities) -> np.ndarray:
        return np.array([index[e] for e in entities], dtype=np.intp)

    return (
        *((at(names), bounds) for names, bounds in (r_b, r_c)),
        [(at(sorted(con.higher)), at(sorted(con.lower))) for con in r_p],
    )


def _evaluate_at(scores: Mapping[str, float], r_b, r_c, r_p, weights):
    """The likelihood and its gradient, name to value in the order of
    ``scores``, by evaluate over the universe in name order."""
    universe = sorted(scores)
    positions = _positions(universe, _buckets(r_b), _buckets(r_c), r_p)
    terms = _Terms(np.ones(len(universe)),
                   *_weighted(len(universe), *positions, weights or ObjectiveWeights()))
    value, grad, _, _ = terms.evaluate(np.array([scores[e] for e in universe], dtype=float))
    by_name = dict(zip(universe, grad.tolist()))
    return value, {e: by_name[e] for e in scores}


# -- the name-keyed gradient --------------------------------------------------


def gradient(
    scores: Mapping[str, float],
    r_b: Sequence,
    r_c: Sequence,
    r_p: Sequence[PairwiseConstraint],
    weights: ObjectiveWeights | None = None,
) -> dict[str, float]:
    """Exact gradient of the module docstring's objective at the name-keyed
    ``scores``. An ordering's items are names or groups (any iterable but a
    string) of tied names; a list of names is a total ordering."""
    return _evaluate_at(scores, r_b, r_c, r_p, weights)[1]


# -- optimization -------------------------------------------------------------


def _newton_direction(g: np.ndarray, curvature) -> np.ndarray:
    """The Newton direction d, (-Hessian F) d = g, by posterior's curvature
    at the point of g; -Hessian F is positive definite, F being strictly
    concave.

    Up to DENSE_NEWTON_MAX_N units it is the dense matrix's exact solution.
    Above: CG preconditioned by the diagonal, stopped once the residual's
    preconditioned norm has shrunk by eta = min(0.5, sqrt |g|)
    (Eisenstat-Walker), which keeps early steps cheap and the final ones
    superlinearly convergent; at g = 0 it is 0.
    """
    if isinstance(curvature, np.ndarray):
        return np.linalg.solve(curvature, g)
    diag, apply = curvature
    precond = 1.0 / diag
    d = np.zeros_like(g)
    r = g.copy()
    z = precond * r
    p = z.copy()
    rz = _dot(r, z)
    target = min(0.25, math.sqrt(_dot(g, g))) * rz  # eta^2 times the initial r.z
    for _ in range(g.size):
        if rz <= target:
            break
        hp = apply(p)
        step = rz / _dot(p, hp)
        d += step * p
        r -= step * hp
        z = precond * r
        rz, rz_prev = _dot(r, z), rz
        p = z + (rz / rz_prev) * p
    return d


def _line_search(terms: _Terms, s, f, g, d):
    """Armijo backtracking along ``d``; returns the accepted point with its
    posterior (F, gradient and curvature), or None when no finite step of at
    least _MIN_STEP raises F.

    A gain below F's rounding error cannot be read off two F values. For
    such short steps, as long as F does not drop by more than that error,
    the gain is taken from the trapezoid rule on the directional
    derivatives, which is exact on the quadratic model that holds there.
    """
    slope = _dot(g, d)
    noise = _RESOLUTION * (1.0 + abs(f))
    t = 1.0
    while t >= _MIN_STEP:
        trial = s + t * d
        f_trial, g_trial, curvature = terms.posterior(trial)
        gain = f_trial - f
        if t * slope <= noise and gain > -noise:
            gain = 0.5 * t * (slope + _dot(g_trial, d))
        # NaN fails the comparison
        if gain > 0 and gain >= _ARMIJO * t * slope:
            return trial, f_trial, g_trial, curvature
        t *= 0.5
    return None


def _maximize(terms: _Terms, s: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Damped Newton ascent on F from ``s``; returns (s, steps, converged)."""
    f, g, curvature = terms.posterior(s)
    steps = 0
    while True:
        d = _newton_direction(g, curvature)
        size = np.max(np.abs(d))
        if size < SCORE_TOL:
            return s, steps, True
        if steps == MAX_NEWTON_STEPS:
            return s, steps, False
        accepted = _line_search(terms, s, f, g, d * min(1.0, _MAX_MOVE / size))
        if accepted is None:
            return s, steps, False
        s, f, g, curvature = accepted
        steps += 1


def solve(n: int, r_b, r_c, r_p,
          weights: ObjectiveWeights) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """The aggregation's one solve, over positions 0..n-1 of the name-ordered
    universe: ``r_b`` and ``r_c`` are (positions, bounds) bucket orders, bucket
    k holding positions[bounds[k]:bounds[k+1]], and each constraint of ``r_p``
    is a (higher, lower) pair of position arrays (nothing is checked). Solves
    over the entities' classes and returns the scores, the positions by
    descending score, ties by name, the Newton steps and whether the solve
    converged."""
    terms, class_of = _classes(*_weighted(n, r_b, r_c, r_p, weights))
    s, steps, converged = _maximize(terms, np.zeros(terms.n))
    s = s[class_of]
    s -= s.mean()
    return s, np.argsort(-s, kind="stable"), steps, converged
