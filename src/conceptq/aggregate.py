"""Rank aggregation by maximum a posteriori Bradley-Terry scores.

Each entity gets a real score s; a pairwise win is modeled as
P(x beats y) = e^{s_x} / (e^{s_x} + e^{s_y}). A total ordering
Z = [z_1, ..., z_n] then has the sequential (Plackett-Luce) log-likelihood

    L(Z) = sum_{i=1}^{n-1} log( e^{s_{z_i}} / sum_{j >= i} e^{s_{z_j}} )

and a set-level constraint X > Y has

    L(X, Y) = log( sum_{x in X} e^{s_x} / (sum_X e^{s_x} + sum_Y e^{s_y}) ).

The aggregation likelihood combines the baseline ordering R_b, the expansion
ordering R_c, and the constraint list R_p:

    objective(s) = (1 - alpha - beta) L(R_b) + alpha L(R_c) + beta L(R_p)

It depends only on score differences, and it has no finite maximizer
whenever agreeing orderings push scores apart (Ford 1957; Hunter 2004). The
optimizer therefore maximizes the posterior under a weak Gamma(a, b) prior
on every strength e^{s} (Caron & Doucet 2012):

    F(s) = objective(s) + sum_i (a s_i - b e^{s_i}),    a = b = 0.01

The likelihood is at most 0 and every prior term tends to -inf as its score
goes to +-inf, so F has a finite maximizer. Orderings and singleton
constraints are concave, so without set-vs-set constraints F is strictly
concave and the maximizer is unique.

The solver is damped Newton from MM_STEPS of Hunter's (2004) closed-form
O(n) minorization-maximization update for the orderings' MAP, which leaves
out the constraints. It has one way to get a direction per size:

- Universes of at most DENSE_NEWTON_MAX_N entities assemble -Hessian F as
  one n x n array (one bincount over cell indices fixed when the terms are
  built) and take the exact Newton step from numpy.linalg once a Cholesky
  factorization shows the matrix positive definite; there an O(n^3) solve
  costs less than the ~20 numpy-bound CG products it replaces. Only
  set-vs-set constraints make F non-concave; an indefinite matrix gives the
  gradient over its diagonal floored at the prior's curvature, which is
  CG's first iterate.
- Larger universes use conjugate gradients on exact Hessian-vector
  products, preconditioned by the Hessian's diagonal and stopped early on
  negative curvature. A product costs O(n): an ordering's curvature is a
  suffix sum and a prefix sum, a constraint's is a diagonal plus per-side
  rank-one terms, and the prior's is diagonal. No n x n array is formed on
  this path, so a universe of 10^4 entities stays within a few MB where
  its dense Hessian would take a GB.

F and its gradient come from one pass over the terms (_Terms.evaluate).
Armijo backtracking accepts only finite steps that raise F; a gain too
small to survive rounding in F is measured by the trapezoid rule on the
directional derivatives instead. The solve stops when max |grad F| <
GRAD_TOL, and reports ``converged=False`` when it hits MAX_NEWTON_STEPS or
cannot raise F any further first. The reported scores are re-centered to
mean zero.

All log-sum-exp reductions are max-shifted; gradients are assembled from
exponent differences that are bounded above by zero, so no intermediate can
overflow regardless of score magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .expansion import PairwiseConstraint

DEFAULT_ALPHA = 1.0 / 3.0
DEFAULT_BETA = 1.0 / 3.0
GRAD_TOL = 1e-8  # the solve stops once max |grad F| is below it
PRIOR_SHAPE = 0.01  # a: the prior's pull towards larger scores
PRIOR_RATE = 0.01  # b: the prior's pull towards smaller scores
MAX_NEWTON_STEPS = 100
# MM updates of the Newton start. On the first 600 interactive seed-1 queries
# 0, 3, 5, 8, 12 and 20 updates took 5,984, 4,576, 4,449, 4,069, 4,036 and
# 3,855 Newton steps; the time per solve was lowest at 5 to 8.
MM_STEPS = 8
# Largest universe whose Newton directions come from the dense Hessian, not
# CG. Measured on synthetic queries (orderings of n/2 and 0.9 n entities, one
# or two 6-vs-12..30 constraints), one BLAS thread on a 2-vCPU x86 VM, ms per
# optimize dense vs CG: n = 100 2.7 vs 3.3, 110 3.2 vs 3.9, 120 5.0 vs 5.4,
# 124 5.5 vs 5.8, 128 4.6 vs 3.7, 140 5.4 vs 4.1, 160 6.8 vs 4.0, 250 16 vs
# 5.8. The dense cost grows as n^3, CG's about as n.
DENSE_NEWTON_MAX_N = 120
_ARMIJO = 1e-4
_MIN_STEP = 2.0**-30
_RESOLUTION = 1e-10  # relative size of an F gain lost in rounding
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
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if self.alpha + self.beta > 1.0 + 1e-12:
            raise ValueError("alpha + beta must not exceed 1")

    @property
    def baseline(self) -> float:
        return 1.0 - self.alpha - self.beta


@dataclass
class ScoreVector:
    """Optimized per-entity scores over the aggregation universe.

    ``iterations`` counts Newton steps; ``converged`` is False when the solve
    stopped before max |grad F| fell below GRAD_TOL.
    """

    scores: dict[str, float]
    universe: frozenset[str]
    iterations: int
    converged: bool


def bt_pair_prob(s_x: float, s_y: float) -> float:
    """P(x beats y) = e^{s_x} / (e^{s_x} + e^{s_y}), overflow-safe."""
    d = s_x - s_y
    if d >= 0:
        return 1.0 / (1.0 + math.exp(-d))
    e = math.exp(d)
    return e / (1.0 + e)


# -- the likelihood as index arrays ------------------------------------------


class _Terms:
    """The weighted likelihood over entities ``0..n-1``.

    Validates the orderings (no duplicates) and that every entity they and
    the constraints mention is in ``index``.
    """

    def __init__(self, index: Mapping[str, int], r_b, r_c, r_p, weights: ObjectiveWeights):
        self.n = len(index)
        self.lists = []
        for ordering, weight in ((r_b, weights.baseline), (r_c, weights.alpha)):
            if len(set(ordering)) != len(ordering):
                raise ValueError("ordering contains duplicate entities")
            _check_members("ordering", ordering, index)
            if len(ordering) >= 2 and weight > 0:
                self.lists.append((_positions(index, ordering), weight))
        for con in r_p:
            _check_members("constraint", con.higher | con.lower, index)
        self.beta = weights.beta
        self.cons = [] if self.beta == 0 else [
            (_positions(index, sorted(con.higher)), _positions(index, sorted(con.lower)))
            for con in r_p
        ]
        # Gradient and curvature produce one value per (term, member) slot,
        # in this order; _scatter sums them per entity.
        groups = [idx for idx, _ in self.lists] + [side for con in self.cons for side in con]
        self.slots = np.concatenate([np.empty(0, dtype=np.intp), *groups])
        # hessian() produces one value per (term, cell) of the n x n matrix, in
        # this order: per ordering its block and its diagonal, per constraint
        # the blocks and diagonals of both sides together and of the higher
        # side. Only universes small enough for the dense path keep them.
        self.cells = self.stages = None
        if self.n <= DENSE_NEWTON_MAX_N:
            cells, self.stages = [], []
            for idx, _ in self.lists:
                cells += [_block(idx, self.n), idx * (self.n + 1)]
                order = np.arange(idx.size)
                self.stages.append(np.minimum.outer(order, order).ravel())
            for hi, lo in self.cons:
                both = np.concatenate((hi, lo))
                cells += [_block(both, self.n), _block(hi, self.n)]
                cells += [both * (self.n + 1), hi * (self.n + 1)]
            self.cells = np.concatenate([np.empty(0, dtype=np.intp), *cells])

    def _scatter(self, parts: list[np.ndarray]) -> np.ndarray:
        return np.bincount(self.slots, np.concatenate([np.empty(0), *parts]), minlength=self.n)

    def evaluate(self, s: np.ndarray) -> tuple[float, np.ndarray]:
        """The likelihood and its gradient at ``s``, from one pass over the terms.

        An ordering's entity at position p has the derivative [p <= n-2] minus
        sum_{k <= min(p, n-2)} pi_k(p) = exp(s_p + M_p), pi_k being the k-th
        choice over the suffix k..n-1 and M_p the running log-sum-exp of
        -log Z_k, so every exponent stays bounded.
        """
        total, parts = 0.0, []
        for idx, weight in self.lists:
            so = s[idx]
            logz = _log_suffix_sums(so)[:-1]
            total += weight * float(np.sum(so[:-1] - logz))
            part = -weight * np.exp(so + _stage_lse(-logz))
            part[:-1] += weight
            parts.append(part)
        for hi, lo in self.cons:
            lx, ly = _lse(s[hi]), _lse(s[lo])
            la = np.logaddexp(lx, ly)
            total += self.beta * float(lx - la)
            parts += [self.beta * np.exp(s[hi] + ly - lx - la), -self.beta * np.exp(s[lo] - la)]
        return total, self._scatter(parts)

    def posterior(self, s: np.ndarray) -> tuple[float, np.ndarray]:
        """F(s) and its gradient: the likelihood plus the Gamma(a, b) log-prior
        on every e^{s}."""
        value, grad = self.evaluate(s)
        with np.errstate(over="ignore"):
            strength = PRIOR_RATE * np.exp(s)
        return value + float(np.sum(PRIOR_SHAPE * s - strength)), grad + PRIOR_SHAPE - strength

    def curvature(self, s: np.ndarray):
        """Diagonal of -Hessian at ``s`` and a function applying -Hessian."""
        parts, lists, cons = [], [], []
        for idx, weight in self.lists:
            so = s[idx]
            logz = _log_suffix_sums(so)
            c = np.exp(so + _stage_lse(-logz[:-1]))  # sum_k pi_k(j)
            parts.append(weight * (c - np.exp(2.0 * so + _stage_lse(-2.0 * logz[:-1]))))
            # pi_k(j) = e^{s_j - mid} e^{mid - log Z_k}, split at the middle of
            # log Z's range so that both factors stay finite
            mid = 0.5 * (logz[0] + logz[-1])
            e = np.exp(np.minimum(so - mid, _EXP_CAP))
            inv_z = np.zeros(so.size)  # no stage starts at the last position
            inv_z[:-1] = np.exp(np.minimum(mid - logz[:-1], _EXP_CAP))
            lists.append((idx, weight * c, weight * e, e, inv_z))
        for hi, lo in self.cons:
            lx, ly = _lse(s[hi]), _lse(s[lo])
            la = np.logaddexp(lx, ly)
            q = math.exp(lx - la)  # P(higher side wins)
            p = math.exp(ly - la)  # 1 - q, without cancellation
            pi_x, pi_y = np.exp(s[hi] - lx), np.exp(s[lo] - ly)
            bx, by = self.beta * p * pi_x, self.beta * p * pi_y
            parts += [bx * ((1.0 + q) * pi_x - 1.0), by * (1.0 - p * pi_y)]
            cons.append((hi, lo, q, p, pi_x, pi_y, bx, by))

        def apply(v: np.ndarray) -> np.ndarray:
            parts = []
            for idx, wc, we, e, inv_z in lists:
                vo = v[idx]
                mu = (e * vo)[::-1].cumsum()[::-1] * inv_z  # pi_k . v per stage
                parts.append(wc * vo - we * (mu * inv_z).cumsum())
            for hi, lo, q, p, pi_x, pi_y, bx, by in cons:
                vx, vy = v[hi], v[lo]
                mx, my = _dot(pi_x, vx), _dot(pi_y, vy)
                parts += [bx * ((1.0 + q) * mx - q * my - vx), by * (vy - q * mx - p * my)]
            return self._scatter(parts)

        return self._scatter(parts), apply

    def hessian(self, s: np.ndarray) -> np.ndarray:
        """-Hessian of the likelihood at ``s`` as one n x n array.

        Only for universes of at most DENSE_NEWTON_MAX_N entities, the ones
        whose cell indices ``__init__`` keeps.
        """
        parts = []
        for (idx, weight), stage in zip(self.lists, self.stages):
            so = s[idx]
            logz = _log_suffix_sums(so)[:-1]
            # sum_{k <= min(a, b)} pi_k(a) pi_k(b); every exponent is at most log n
            shared = np.exp(np.add.outer(so, so).ravel() + _stage_lse(-2.0 * logz)[stage])
            parts += [-weight * shared, weight * np.exp(so + _stage_lse(-logz))]
        for hi, lo in self.cons:
            sx = s[hi]
            su = np.concatenate((sx, s[lo]))
            rho, pi_x = np.exp(su - _lse(su)), np.exp(sx - _lse(sx))
            # (diag rho - rho rho^T) over both sides minus (diag pi - pi pi^T) over X
            parts += [
                -self.beta * np.outer(rho, rho).ravel(),
                self.beta * np.outer(pi_x, pi_x).ravel(),
                self.beta * rho,
                -self.beta * pi_x,
            ]
        values = np.concatenate([np.empty(0), *parts])
        return np.bincount(self.cells, values, minlength=self.n * self.n).reshape(self.n, self.n)


def _block(idx: np.ndarray, n: int) -> np.ndarray:
    """Flat indices of the cells idx x idx of an n x n matrix, row-major."""
    return np.add.outer(idx * n, idx).ravel()


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b without BLAS, whose threaded dot stalls for milliseconds per
    call once another process keeps the cores busy."""
    return float(np.add.reduce(a * b))


def _lse(values: np.ndarray) -> float:
    m = values.max()
    return float(m + np.log(np.exp(values - m).sum()))


def _positions(index: Mapping[str, int], entities) -> np.ndarray:
    return np.array([index[e] for e in entities], dtype=np.intp)


def _check_members(name: str, members, universe: Mapping[str, object]) -> None:
    missing = [e for e in members if e not in universe]
    if missing:
        raise ValueError(f"{name} mentions entities outside the score universe: {missing}")


def _log_suffix_sums(so: np.ndarray) -> np.ndarray:
    """log Z_k = log sum_{j >= k} e^{s_j} for every suffix of the ordered
    scores ``so``, accumulated stably from the end."""
    return np.logaddexp.accumulate(so[::-1])[::-1]


def _stage_lse(terms: np.ndarray) -> np.ndarray:
    """Running log-sum-exp of per-stage terms (stages 0..n-2), at every
    position j over the stages k <= min(j, n-2) whose choice includes j."""
    out = np.empty(terms.size + 1)
    np.logaddexp.accumulate(terms, out=out[:-1])
    out[-1] = out[-2]
    return out


def _terms_at(scores: Mapping[str, float], r_b, r_c, r_p, weights) -> tuple[_Terms, np.ndarray]:
    index = {e: i for i, e in enumerate(scores)}
    terms = _Terms(index, r_b, r_c, r_p, weights or ObjectiveWeights())
    return terms, np.array([scores[e] for e in index], dtype=float)


# -- the public likelihood ----------------------------------------------------


def listwise_log_likelihood(
    ordering: Sequence[str], scores: Mapping[str, float]
) -> float:
    """Sequential log-likelihood of a total ordering under the scores.

    Orderings of length 0 or 1 have an empty product and contribute 0.
    """
    return objective(scores, ordering, [], [], ObjectiveWeights(alpha=0.0, beta=0.0))


def pairwise_log_likelihood(
    constraints: Sequence[PairwiseConstraint], scores: Mapping[str, float]
) -> float:
    """Sum of log P(higher set beats lower set) over all constraints."""
    return objective(scores, [], [], constraints, ObjectiveWeights(alpha=0.0, beta=1.0))


def objective(
    scores: Mapping[str, float],
    r_b: Sequence[str],
    r_c: Sequence[str],
    r_p: Sequence[PairwiseConstraint],
    weights: ObjectiveWeights | None = None,
) -> float:
    """Weighted combination of the three log-likelihood components."""
    terms, s = _terms_at(scores, r_b, r_c, r_p, weights)
    return terms.evaluate(s)[0]


def gradient(
    scores: Mapping[str, float],
    r_b: Sequence[str],
    r_c: Sequence[str],
    r_p: Sequence[PairwiseConstraint],
    weights: ObjectiveWeights | None = None,
) -> dict[str, float]:
    """Exact gradient of :func:`objective` with respect to every score."""
    terms, s = _terms_at(scores, r_b, r_c, r_p, weights)
    return dict(zip(scores, terms.evaluate(s)[1].tolist()))


# -- optimization -------------------------------------------------------------


def _start(terms: _Terms) -> np.ndarray:
    """MM_STEPS of Hunter's MM update for the orderings' MAP, from s = 0.

    Each sets e^{s_e} = (a + sum_i w_i [e not last in ordering i]) /
    (b + sum_i w_i H_i(e)), H_i(e) the sum of 1/Z_k over the stages of ordering
    i that include e, summed in log space. Entities in no ordering stay at 0.
    """
    wins = np.full(terms.n, PRIOR_SHAPE)
    for idx, weight in terms.lists:
        wins[idx[:-1]] += weight
    s, log_wins = np.zeros(terms.n), np.log(wins)
    for _ in range(MM_STEPS):
        log_rate = np.full(terms.n, math.log(PRIOR_RATE))
        for idx, weight in terms.lists:  # an ordering has no repeated index
            stages = _stage_lse(-_log_suffix_sums(s[idx])[:-1])
            log_rate[idx] = np.logaddexp(log_rate[idx], math.log(weight) + stages)
        s = log_wins - log_rate
    return s


def _newton_direction(terms: _Terms, s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """An ascent direction from (-Hessian F) d = g, by the universe's size.

    Up to DENSE_NEWTON_MAX_N entities: the exact solution when a Cholesky
    factorization shows the matrix positive definite, else g over its
    diagonal floored at the prior's curvature (CG's first iterate). An
    indefinite matrix's step, even with g . d > 0, can send a score into the
    prior's linear tail, where no step of at least _MIN_STEP raises F. Above:
    preconditioned CG, stopped once the residual's preconditioned norm has
    shrunk by eta = min(0.5, sqrt |g|) (Eisenstat-Walker), which keeps early
    steps cheap and the final ones superlinearly convergent. On negative
    curvature it returns the direction built so far, or the preconditioned
    gradient if it has none.
    """
    prior = PRIOR_RATE * np.exp(s)
    if terms.n <= DENSE_NEWTON_MAX_N:
        hessian = terms.hessian(s)
        hessian.flat[:: terms.n + 1] += prior
        try:
            np.linalg.cholesky(hessian)
        except np.linalg.LinAlgError:
            return g / np.maximum(hessian.diagonal(), prior)
        return np.linalg.solve(hessian, g)
    diag, apply_likelihood = terms.curvature(s)
    precond = 1.0 / np.maximum(diag + prior, prior)
    d = np.zeros_like(g)
    r = g.copy()
    z = precond * r
    p = z.copy()
    rz = _dot(r, z)
    target = min(0.25, math.sqrt(_dot(g, g))) * rz  # eta^2 times the initial r.z
    for _ in range(s.size):
        hp = apply_likelihood(p) + prior * p
        curvature = _dot(p, hp)
        if not curvature > 0:
            return d if d.any() else z
        step = rz / curvature
        d += step * p
        r -= step * hp
        z = precond * r
        rz, rz_prev = _dot(r, z), rz
        if rz <= target:
            break
        p = z + (rz / rz_prev) * p
    return d


def _line_search(terms: _Terms, s, f, g, d):
    """Armijo backtracking along ``d``; returns the accepted point with its F
    and gradient, or None when no finite step of at least _MIN_STEP raises F.

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
        f_trial, g_trial = terms.posterior(trial)
        gain = f_trial - f
        if t * slope <= noise and gain > -noise:
            gain = 0.5 * t * (slope + _dot(g_trial, d))
        # NaN fails the comparison
        if gain > 0 and gain >= _ARMIJO * t * slope:
            return trial, f_trial, g_trial
        t *= 0.5
    return None


def _maximize(terms: _Terms) -> tuple[np.ndarray, int, bool]:
    """Damped Newton ascent on F from _start; returns (s, steps, converged)."""
    s = _start(terms)
    f, g = terms.posterior(s)
    steps = 0
    while not np.max(np.abs(g)) < GRAD_TOL:
        if steps == MAX_NEWTON_STEPS:
            return s, steps, False
        accepted = _line_search(terms, s, f, g, _newton_direction(terms, s, g))
        if accepted is None:
            return s, steps, False
        s, f, g = accepted
        steps += 1
    return s, steps, True


def optimize(
    r_b: Sequence[str],
    r_c: Sequence[str],
    r_p: Sequence[PairwiseConstraint],
    weights: ObjectiveWeights | None = None,
) -> tuple[ScoreVector, list[str]]:
    """Fit scores to the orderings and constraints; return them and the
    induced final ordering by descending score.

    Only bit-equal scores are ordered by name: entities that tie at the MAP
    point get scores apart by the solve's round-off (up to ~1e-6), in any order.

    Maximizes the posterior F of the module docstring until
    max |grad F| < GRAD_TOL; the scores are re-centered to mean zero.
    """
    weights = weights or ObjectiveWeights()
    if not r_b and not r_c:
        raise ValueError("need at least one non-empty ordering")

    universe = sorted(
        set(r_b) | set(r_c) | {e for con in r_p for e in con.higher | con.lower}
    )
    index = {e: i for i, e in enumerate(universe)}
    s, steps, converged = _maximize(_Terms(index, r_b, r_c, r_p, weights))

    s -= s.mean()
    ordering = sorted(universe, key=lambda e: (-s[index[e]], e))
    return (
        ScoreVector(
            scores={e: float(s[i]) for e, i in index.items()},
            universe=frozenset(universe),
            iterations=steps,
            converged=converged,
        ),
        ordering,
    )
