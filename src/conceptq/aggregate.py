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

- Universes of at most DENSE_NEWTON_MAX_N entities write the likelihood
  as lin . s + sum_r sigma_r L_r, L_r the log-sum-exp of s over a row r of
  entities: an ordering of weight w has a row per stage k, its members at
  positions >= k (sigma = -w, and w s_{z_k} in lin); a constraint has X
  (+beta) and X u Y (-beta). With p_r the softmax of s over row r, one pass
  gives F, grad F = lin + p^T sigma + prior' and -Hessian F =
  (p * sigma)^T p - diag(p^T sigma) + diag(b e^s), and numpy.linalg.solve
  the exact Newton step; there an O(n^3) solve costs less than the ~20
  numpy-bound CG products it replaces. Only set-vs-set constraints make F
  non-concave. For one, X > Y with P(Y wins) = q, rho the softmax over
  X u Y and pi over X, Var_rho(v) >= (1 - q) Var_pi(v) by the law of total
  variance, so v^T (-Hessian L_c) v / beta = Var_rho(v) - Var_pi(v) >=
  -q v^T diag(pi) v (the softmax curvature of Bohning 1992). -Hessian F is
  thus positive definite where d = b e^s - beta sum_c q_c pi_c > 0
  everywhere; otherwise a Cholesky factorization decides, and an indefinite
  matrix gives the gradient over its diagonal floored at the prior's
  curvature, which is CG's first iterate.
- Larger universes use conjugate gradients on exact Hessian-vector
  products, preconditioned by the Hessian's diagonal and stopped early on
  negative curvature. A product costs O(n): an ordering's curvature is a
  suffix sum and a prefix sum, a constraint's is a diagonal plus per-side
  rank-one terms, and the prior's is diagonal. No n x n array is formed on
  this path, so a universe of 10^4 entities stays within a few MB where
  its dense Hessian would take a GB.

Both paths read each point once: above, one O(n) pass over the terms
(_Terms.evaluate) gives F, its gradient, the Hessian's diagonal and the
product. A direction that moves a score by more than _MAX_MOVE is scaled
down to that move, and Armijo backtracking accepts only finite steps that
raise F; a gain too small to survive rounding in F is measured by the
trapezoid rule on the directional derivatives instead. The solve stops when
max |grad F| < GRAD_TOL and every |d F / d s_e| over e's curvature (the
Hessian's diagonal, floored at the prior's b e^{s_e}) is below
GRAD_TOL / PRIOR_RATE: a score whose curvature is under b, one far below
zero with few terms, is otherwise still short of its maximum by up to
GRAD_TOL over that curvature. It reports ``converged=False`` when it hits
MAX_NEWTON_STEPS or cannot raise F any further first. The reported scores
are re-centered to mean zero.

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
GRAD_TOL = 1e-8  # the solve stops once max |grad F| is below it (see _converged)
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
# Largest move of any score in one step (seed-1 steps move one by <= 165); a
# longer direction, e.g. one into the prior's linear tail (4e70 long on a
# 9-entity input), is scaled down to it so a step of >= _MIN_STEP can raise F.
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
    stopped before _converged's rule held: max |grad F| < GRAD_TOL, and for
    every entity |d F / d s_e| * PRIOR_RATE < GRAD_TOL * max(d_e, b e^{s_e}),
    d_e the diagonal of -Hessian F at e.
    """

    scores: dict[str, float]
    universe: frozenset[str]
    iterations: int
    converged: bool


# -- the likelihood as index arrays ------------------------------------------


class _Terms:
    """The weighted likelihood over entities ``0..n-1``: the orderings
    ``r_b`` and ``r_c`` as position arrays that repeat no entity, and each
    constraint of ``r_p`` as a (higher, lower) pair of position arrays."""

    def __init__(self, n: int, r_b: np.ndarray, r_c: np.ndarray, r_p, weights: ObjectiveWeights):
        self.n = n
        orderings = ((r_b, weights.baseline), (r_c, weights.alpha))
        self.lists = [(idx, weight) for idx, weight in orderings if len(idx) >= 2 and weight > 0]
        self.beta = weights.beta
        self.cons = [] if self.beta == 0 else list(r_p)
        # Gradient and curvature produce one value per (term, member) slot,
        # in this order; _scatter sums them per entity.
        groups = [idx for idx, _ in self.lists] + [side for con in self.cons for side in con]
        self.slots = np.concatenate([np.empty(0, dtype=np.intp), *groups])
        # Dense-path universes keep the module docstring's rows as a 0/-inf
        # mask and a 1/0 member array, their weights sigma (signed) and lin;
        # set_rows: X rows, |X| >= 2.
        self.mask = None
        if self.n <= DENSE_NEWTON_MAX_N:
            rows, signed, self.lin = [], [], np.zeros(self.n)
            for idx, weight in self.lists:
                stage = np.arange(idx.size - 1)[:, None] <= np.arange(idx.size)
                rows.append(np.full((idx.size - 1, self.n), -np.inf))
                rows[-1][:, idx] = np.where(stage, 0.0, -np.inf)
                signed += [-weight] * (idx.size - 1)
                self.lin[idx[:-1]] += weight
            set_rows = []
            for hi, lo in self.cons:
                if hi.size >= 2:
                    set_rows.append(len(signed))
                rows.append(np.full((2, self.n), -np.inf))
                rows[-1][:, hi] = rows[-1][1, lo] = 0.0
                signed += [self.beta, -self.beta]
            self.mask = np.concatenate([np.empty((0, self.n)), *rows])
            self.member = (self.mask == 0.0).astype(float)
            self.signed, self.set_rows = np.array(signed), np.array(set_rows, dtype=np.intp)

    def _scatter(self, parts: list[np.ndarray]) -> np.ndarray:
        # bincount returns integers when there are no slots at all (every
        # weight zero), so the result is cast to float
        weights = np.concatenate([np.empty(0), *parts])
        return np.bincount(self.slots, weights, minlength=self.n).astype(float, copy=False)

    def evaluate(self, s: np.ndarray):
        """The likelihood, its gradient and its curvature (the diagonal of
        -Hessian, a function applying -Hessian) at ``s``, from one pass.

        An ordering's entity at position p has the derivative [p <= n-2] minus
        sum_{k <= min(p, n-2)} pi_k(p) = exp(s_p + M_p), pi_k being the k-th
        choice over the suffix k..n-1 and M_p the running log-sum-exp of
        -log Z_k, so every exponent stays bounded.
        """
        total, parts, diag, lists, cons = 0.0, [], [], [], []
        for idx, weight in self.lists:
            so = s[idx]
            logz = _log_suffix_sums(so)
            total += weight * float(np.sum(so[:-1] - logz[:-1]))
            c = np.exp(so + _stage_lse(-logz[:-1]))  # sum_k pi_k(j)
            part = -weight * c
            part[:-1] += weight
            parts.append(part)
            diag.append(weight * (c - np.exp(2.0 * so + _stage_lse(-2.0 * logz[:-1]))))
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
            total += self.beta * float(lx - la)
            # beta P(lower side wins) times the softmax over each side
            bx, by = self.beta * np.exp(s[hi] + ly - lx - la), self.beta * np.exp(s[lo] - la)
            parts += [bx, -by]
            q = math.exp(lx - la)  # P(higher side wins)
            p = math.exp(ly - la)  # 1 - q, without cancellation
            pi_x, pi_y = np.exp(s[hi] - lx), np.exp(s[lo] - ly)
            diag += [bx * ((1.0 + q) * pi_x - 1.0), by * (1.0 - p * pi_y)]
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

        return total, self._scatter(parts), (self._scatter(diag), apply)

    def posterior(self, s: np.ndarray):
        """F(s), its gradient and its curvature, from one pass. The curvature
        is a triple whose last item is the prior's b e^s: up to
        DENSE_NEWTON_MAX_N entities -Hessian F and whether the bound d > 0
        certifies it positive definite, from one softmax over the rows of
        ``mask``; above, evaluate's diagonal and product."""
        with np.errstate(over="ignore"):
            strength = PRIOR_RATE * np.exp(s)
        prior = float(np.sum(PRIOR_SHAPE * s - strength))
        if self.mask is None:
            value, grad, (diag, apply) = self.evaluate(s)
            return value + prior, grad + PRIOR_SHAPE - strength, (diag, apply, strength)
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
        rows = self.set_rows
        p_lower = -np.expm1(lse[rows] - lse[rows + 1])  # P(Y wins) per set-vs-set constraint
        certified = bool(np.all(strength > self.beta * (p_lower @ p[rows])))
        return value, self.lin + pull + PRIOR_SHAPE - strength, (hessian, certified, strength)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b without BLAS, whose threaded dot stalls for milliseconds per
    call once another process keeps the cores busy."""
    return float(np.add.reduce(a * b))


def _lse(values: np.ndarray) -> float:
    m = values.max()
    return float(m + np.log(np.exp(values - m).sum()))


def _positions(universe: Sequence[str], r_b, r_c, r_p):
    """Name-keyed orderings and constraints as _Terms' position arrays in
    ``universe``; raises ValueError when an ordering repeats an entity or an
    entity is outside ``universe``."""
    if len(set(r_b)) != len(r_b) or len(set(r_c)) != len(r_c):
        raise ValueError("ordering contains duplicate entities")
    index = {e: i for i, e in enumerate(universe)}
    mentioned = [*r_b, *r_c, *(e for con in r_p for e in con.higher | con.lower)]
    missing = [e for e in mentioned if e not in index]
    if missing:
        raise ValueError(f"entities outside the score universe: {missing}")

    def at(entities) -> np.ndarray:
        return np.array([index[e] for e in entities], dtype=np.intp)

    return at(r_b), at(r_c), [(at(sorted(con.higher)), at(sorted(con.lower))) for con in r_p]


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


def _evaluate_at(scores: Mapping[str, float], r_b, r_c, r_p, weights):
    universe = list(scores)
    positions = _positions(universe, r_b, r_c, r_p)
    terms = _Terms(len(universe), *positions, weights or ObjectiveWeights())
    return terms.evaluate(np.array([scores[e] for e in universe], dtype=float))


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
    return _evaluate_at(scores, r_b, r_c, r_p, weights)[0]


def gradient(
    scores: Mapping[str, float],
    r_b: Sequence[str],
    r_c: Sequence[str],
    r_p: Sequence[PairwiseConstraint],
    weights: ObjectiveWeights | None = None,
) -> dict[str, float]:
    """Exact gradient of :func:`objective` with respect to every score."""
    return dict(zip(scores, _evaluate_at(scores, r_b, r_c, r_p, weights)[1].tolist()))


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


def _newton_direction(g: np.ndarray, curvature) -> np.ndarray:
    """An ascent direction from (-Hessian F) d = g, by posterior's curvature
    at the point of g.

    Up to DENSE_NEWTON_MAX_N entities it is the dense matrix: the exact
    solution when the bound, or else a Cholesky factorization, shows the
    matrix positive definite; else g over its diagonal floored at the
    prior's curvature. An indefinite matrix's step, even with g . d > 0, can
    send a score into the prior's linear tail, where no step of at least
    _MIN_STEP raises F. Above: preconditioned CG, stopped once the residual's
    preconditioned norm has shrunk by eta = min(0.5, sqrt |g|)
    (Eisenstat-Walker), which keeps early steps cheap and the final ones
    superlinearly convergent. On negative curvature it returns the direction
    built so far, or the preconditioned gradient if it has none.
    """
    if curvature[0].ndim == 2:
        hessian, certified, prior = curvature
        if not certified:
            try:
                np.linalg.cholesky(hessian)
            except np.linalg.LinAlgError:
                return g / np.maximum(hessian.diagonal(), prior)
        return np.linalg.solve(hessian, g)
    diag, apply_likelihood, prior = curvature
    precond = 1.0 / np.maximum(diag + prior, prior)
    d = np.zeros_like(g)
    r = g.copy()
    z = precond * r
    p = z.copy()
    rz = _dot(r, z)
    target = min(0.25, math.sqrt(_dot(g, g))) * rz  # eta^2 times the initial r.z
    for _ in range(g.size):
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
    """Armijo backtracking along ``d``; returns the accepted point with its
    posterior (F, gradient and curvature), or None when no finite step of at
    least _MIN_STEP raises F.

    A gain below F's rounding error cannot be read off two F values. For
    such short steps, as long as F does not drop by more than that error,
    the gain is taken from the trapezoid rule on the directional
    derivatives, which is exact on the quadratic model that holds there.
    """
    d = d * min(1.0, _MAX_MOVE / np.max(np.abs(d)))
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


def _converged(g: np.ndarray, curvature) -> bool:
    """Whether max |g| < GRAD_TOL and each |g_e| over e's curvature, by
    posterior's curvature at the point of g, is below GRAD_TOL / PRIOR_RATE."""
    if not np.max(np.abs(g)) < GRAD_TOL:
        return False
    first, _, prior = curvature
    diag = first.diagonal() if first.ndim == 2 else first + prior
    return bool(np.all(np.abs(g) * PRIOR_RATE < GRAD_TOL * np.maximum(diag, prior)))


def _maximize(terms: _Terms) -> tuple[np.ndarray, int, bool]:
    """Damped Newton ascent on F from _start; returns (s, steps, converged)."""
    s = _start(terms)
    f, g, curvature = terms.posterior(s)
    steps = 0
    while not _converged(g, curvature):
        if steps == MAX_NEWTON_STEPS:
            return s, steps, False
        accepted = _line_search(terms, s, f, g, _newton_direction(g, curvature))
        if accepted is None:
            return s, steps, False
        s, f, g, curvature = accepted
        steps += 1
    return s, steps, True


def solve(universe: Sequence[str], r_b: np.ndarray, r_c: np.ndarray, r_p,
          weights: ObjectiveWeights) -> tuple[ScoreVector, np.ndarray]:
    """:func:`optimize` over positions: the entities are ``universe``, in name
    order, and the orderings and constraints are position arrays into it, as
    _Terms takes them (nothing is checked). Returns the scores and the
    positions by descending score, ties by name."""
    s, steps, converged = _maximize(_Terms(len(universe), r_b, r_c, r_p, weights))
    s -= s.mean()
    scores = ScoreVector(dict(zip(universe, s.tolist())), frozenset(universe), steps, converged)
    return scores, np.argsort(-s, kind="stable")


def optimize(
    r_b: Sequence[str],
    r_c: Sequence[str],
    r_p: Sequence[PairwiseConstraint],
    weights: ObjectiveWeights | None = None,
) -> tuple[ScoreVector, list[str]]:
    """Fit scores to the orderings and constraints; return them and the
    induced final ordering by descending score.

    Checks the names and solves over their positions (:func:`solve`, which
    the pipeline calls with the positions it already holds). Only bit-equal
    scores are ordered by name: entities that tie at the MAP point get
    scores apart by the solve's round-off (up to ~1e-6), in any order.

    Maximizes the posterior F of the module docstring until
    max |grad F| < GRAD_TOL and, for every entity, |d F / d s_e| * PRIOR_RATE
    < GRAD_TOL * max(d_e, b e^{s_e}), d_e the diagonal of -Hessian F at e
    (_converged); the scores are re-centered to mean zero.
    """
    if not r_b and not r_c:
        raise ValueError("need at least one non-empty ordering")
    universe = sorted(
        set(r_b) | set(r_c) | {e for con in r_p for e in con.higher | con.lower}
    )
    positions = _positions(universe, r_b, r_c, r_p)
    scores, order = solve(universe, *positions, weights or ObjectiveWeights())
    return scores, [universe[i] for i in order.tolist()]
