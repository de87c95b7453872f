"""Nuisance models and per-subject, per-treatment policy-value scores.

Two models are fit on the observational data: a multinomial logistic
propensity model for the probability of each observed treatment, fit by
Newton's method with step-halving, and one ridge regression per treatment
arm for the outcome.  They combine into a doubly robust score matrix: the
observed arm's entry carries an inverse propensity weighted residual
correction, counterfactual arms are plain regression predictions.  The
estimate of a regime's mean outcome is then a simple column selection over
this matrix.

No (N, d + 1) design matrix is ever built: ``FeatureEncoder.design_blocks``
fills one reused buffer with GRAM_BLOCK rows at a time, and every consumer
works block by block.  One pass gives a propensity trial's value, gradient
and Hessian; one pass gives every arm's normal equations; one pass fills
the (N, m) score matrix, as it does each model's predictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .domain import REAL, Dataset
from .errors import ConvergenceError, SingularSystemError, ValidationError, malformed

# rows per design block: a (d + 1) x GRAM_BLOCK buffer, 0.3 MB at d + 1 = 19,
# and per Gram sum the block's weighted copies.  With 100k rows and 2 cores
# each Gram matrix took 5-8 ms in 2,048-row blocks; in 8,192-row blocks
# (multithreaded products) 11-14 ms, but ~96 ms a call through about the
# first ten calls of some processes.
GRAM_BLOCK = 2048


class EncodedColumn(NamedTuple):
    feature: int
    level: int | None
    name: str


@dataclass(frozen=True)
class FeatureEncoder:
    """Deterministic design-matrix encoding of a dataset's characteristics.

    Binary/categorical features become one indicator column per non-reference
    level (the first level is the reference).  Real features pass through
    standardized to zero mean, unit variance over the fitting data; a
    zero-variance column is only mean-shifted.
    """

    columns: tuple[EncodedColumn, ...]
    means: np.ndarray
    scales: np.ndarray

    @classmethod
    def fit(cls, ds: Dataset) -> "FeatureEncoder":
        columns: list[EncodedColumn] = []
        means: list[float] = []
        scales: list[float] = []
        for f, spec in enumerate(ds.specs):
            if spec.kind == REAL:
                mu = float(ds.columns[f].mean())
                sd = float(ds.columns[f].std())
                columns.append(EncodedColumn(f, None, spec.name))
                means.append(mu)
                scales.append(sd if sd > 0 else 1.0)
            else:
                for k in range(1, len(spec.levels)):
                    columns.append(EncodedColumn(f, k, f"{spec.name}={spec.levels[k]}"))
                    means.append(0.0)
                    scales.append(1.0)
        return cls(
            columns=tuple(columns),
            means=np.asarray(means, dtype=float),
            scales=np.asarray(scales, dtype=float),
        )

    def design_blocks(self, ds: Dataset) -> Iterator[tuple[slice, np.ndarray]]:
        """The design, the encoded columns then an intercept of ones, as
        (rows, block) pairs over at most GRAM_BLOCK consecutive subjects;
        block is (rows' length, d + 1).

        Every block is a view of one buffer that the next block overwrites,
        so a caller is done with a block before it asks for the next.
        """
        n, width = ds.n_subjects, len(self.columns) + 1
        # column-major, so each encoded column fills contiguous memory
        buffer = np.empty(width * min(n, GRAM_BLOCK))
        for start in range(0, n, GRAM_BLOCK):
            rows = slice(start, min(start + GRAM_BLOCK, n))
            block = buffer[:width * (rows.stop - start)].reshape(width, -1)
            for j, col in enumerate(self.columns):
                raw = ds.columns[col.feature][rows]
                if col.level is None:
                    np.subtract(raw, self.means[j], out=block[j])
                    np.divide(block[j], self.scales[j], out=block[j])
                else:
                    np.equal(raw, col.level, out=block[j])
            block[-1] = 1.0
            yield rows, block.T

    def to_dict(self) -> dict:
        return {
            "columns": [{"feature": c.feature, "level": c.level, "name": c.name}
                        for c in self.columns],
            "means": self.means.tolist(),
            "scales": self.scales.tolist(),
        }


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """Log-softmax over the first axis: z is (m, rows) logits."""
    shifted = z - z.max(axis=0)
    return shifted - np.log(np.exp(shifted).sum(axis=0))


def _fill_rows(encoder: FeatureEncoder, ds: Dataset, width: int,
               of_block: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The (N, width) array whose rows are of_block of each design block."""
    out = np.empty((ds.n_subjects, width))
    for rows, block in encoder.design_blocks(ds):
        out[rows] = of_block(block)
    return out


def weighted_gram(rows: np.ndarray, weights: np.ndarray,
                  y: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Xᵀ diag(w) X for X = rows, and Xᵀ diag(w) y (zeros without y), for
    each weight vector w along the last axis of weights, by one product for
    them all; its temporary is the weighted copies of Xᵀ, so callers pass
    one design block."""
    scaled = np.multiply(rows.T, np.asarray(weights)[..., None, :])
    flat = scaled.reshape(-1, len(rows))
    gram = (flat @ rows).reshape(scaled.shape[:-1] + rows.shape[1:])
    moment = np.zeros(scaled.shape[:-1]) if y is None else (flat @ y).reshape(scaled.shape[:-1])
    return gram, moment


def propensity_loglik(weights: np.ndarray, encoder: FeatureEncoder, ds: Dataset,
                      l2: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean log-likelihood minus (l2/2)·||weights||² for the softmax model,
    with its analytic gradient and Hessian, from one pass over the design.

    The Hessian's rows and columns follow weights.ravel(); its block (a, b)
    is -Xᵀ diag(p_a(δ_ab − p_b)) X / n, minus l2 on the diagonal, for the
    softmax probabilities p at weights.  Each design block adds its share of
    the value, the gradient and all m(m+1)/2 weighted Gram sums.
    """
    n = ds.n_subjects
    m, width = weights.shape
    upper_a, upper_b = np.triu_indices(m)
    diagonal = (upper_a == upper_b)[:, None]
    value, grad = 0.0, np.zeros_like(weights)
    grams = np.zeros((len(upper_a), width, width))
    for rows, block in encoder.design_blocks(ds):
        picked = ds.treatments[rows], np.arange(rows.stop - rows.start)
        logp = _log_softmax(weights @ block.T)
        value += float(logp[picked].sum())
        probs = np.exp(logp)
        resid = -probs
        resid[picked] += 1.0
        grad += resid @ block
        grams += weighted_gram(block, probs[upper_a] * (diagonal - probs[upper_b]))[0]
    hessian = np.empty((m, width, m, width))
    hessian[upper_b, :, upper_a] = -grams.transpose(0, 2, 1) / n
    hessian[upper_a, :, upper_b] = -grams / n
    hessian = hessian.reshape(m * width, m * width)
    hessian[np.diag_indices(m * width)] -= l2
    return (value / n - 0.5 * l2 * float((weights * weights).sum()),
            grad / n - l2 * weights, hessian)


@dataclass
class PropensityModel:
    """Multinomial logistic model of treatment given characteristics."""

    encoder: FeatureEncoder
    treatment_names: tuple[str, ...]
    weights: np.ndarray
    clip_epsilon: float
    n_iterations: int = 0
    gradient_norm: float = 0.0

    def _proba_rows(self, block: np.ndarray) -> np.ndarray:
        return np.exp(_log_softmax(self.weights @ block.T)).T

    def predict_proba_raw(self, ds: Dataset) -> np.ndarray:
        """Softmax probabilities; every row sums to 1."""
        return _fill_rows(self.encoder, ds, len(self.weights), self._proba_rows)

    def predict_proba(self, ds: Dataset) -> np.ndarray:
        """Probabilities floored at clip_epsilon (rows may then exceed 1)."""
        raw = self.predict_proba_raw(ds)
        return np.maximum(raw, self.clip_epsilon, out=raw)

    def to_dict(self) -> dict:
        return {
            "encoder": self.encoder.to_dict(),
            "treatment_names": list(self.treatment_names),
            "weights": self.weights.tolist(),
            "clip_epsilon": self.clip_epsilon,
            "n_iterations": self.n_iterations,
            "gradient_norm": self.gradient_norm,
        }


def fit_propensity(
    ds: Dataset,
    l2: float = 1e-4,
    clip_epsilon: float = 0.01,
    grad_tol: float = 1e-6,
    max_iters: int = 5000,
) -> PropensityModel:
    """Fit the propensity model by Newton's method with step-halving.

    Each step is the minimum-norm least-squares solution of the negative
    Hessian system (singular along the arm shift when l2 = 0), halved from 1
    until it passes the Armijo test; converged when the gradient Frobenius
    norm drops to grad_tol.  Every trial point costs one pass over the
    design, which also gives the Hessian that the next step uses if the
    trial is accepted.  Raises ConvergenceError (carrying the final norm)
    when the gradient after max_iters steps is still above grad_tol.
    """
    if not l2 >= 0:
        raise ValidationError(f"l2 must be nonnegative, got {l2}")
    if not 0 < clip_epsilon < 1:
        raise ValidationError(f"clip_epsilon must lie in (0, 1), got {clip_epsilon}")
    if not grad_tol > 0:
        raise ValidationError(f"grad_tol must be positive, got {grad_tol}")
    if max_iters < 1:
        raise ValidationError(f"max_iters must be at least 1, got {max_iters}")
    counts = np.bincount(ds.treatments, minlength=ds.n_treatments)
    if np.any(counts == 0):
        missing = [ds.treatment_names[k] for k in np.flatnonzero(counts == 0)]
        raise ValidationError(f"treatments never observed in data: {missing}")

    encoder = FeatureEncoder.fit(ds)
    m = ds.n_treatments
    weights = np.zeros((m, len(encoder.columns) + 1))

    value, grad, hessian = propensity_loglik(weights, encoder, ds, l2)
    for it in range(max_iters + 1):  # the gradient is checked after every step, the last too
        gnorm = float(np.sqrt((grad * grad).sum()))
        if gnorm <= grad_tol:
            return PropensityModel(encoder, ds.treatment_names, weights, clip_epsilon,
                                   n_iterations=it, gradient_norm=gnorm)
        if it == max_iters:
            raise ConvergenceError(
                f"propensity fit did not reach gradient norm {grad_tol:.0e} within "
                f"{max_iters} iterations (final norm {gnorm:.3e})",
                gradient_norm=gnorm,
            )
        direction = np.linalg.lstsq(-hessian, grad.ravel(), rcond=None)[0].reshape(m, -1)
        slope = float((grad * direction).sum())
        alpha = 1.0
        while True:
            candidate = weights + alpha * direction
            trial = propensity_loglik(candidate, encoder, ds, l2)
            if trial[0] >= value + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
            if alpha < 1e-18:
                raise ConvergenceError(
                    f"propensity line search stalled at iteration {it + 1} "
                    f"(gradient norm {gnorm:.3e})",
                    gradient_norm=gnorm,
                )
        weights, (value, grad, hessian) = candidate, trial


@dataclass
class OutcomeModel:
    """One ridge regression per treatment arm on encoded characteristics."""

    encoder: FeatureEncoder
    treatment_names: tuple[str, ...]
    coefs: np.ndarray
    ridge: float

    def _predict_rows(self, block: np.ndarray) -> np.ndarray:
        return block @ self.coefs.T

    def predict(self, ds: Dataset) -> np.ndarray:
        """Predicted outcome for every subject under every treatment, (N, m)."""
        return _fill_rows(self.encoder, ds, len(self.coefs), self._predict_rows)

    def to_dict(self) -> dict:
        return {
            "encoder": self.encoder.to_dict(),
            "treatment_names": list(self.treatment_names),
            "coefs": self.coefs.tolist(),
            "ridge": self.ridge,
        }


def solve_normal(gram: np.ndarray, moment: np.ndarray, ridge: float) -> np.ndarray:
    """Solve the (optionally ridge-penalized) normal equations
    (XᵀX + ridge·P) β = Xᵀy, given gram = XᵀX and moment = Xᵀy.

    The penalty applies to every coefficient but the last (intercept) one;
    a failed Cholesky factorization marks the system as singular.
    """
    penalize = np.ones(len(gram))
    penalize[-1] = 0.0
    normal = gram + ridge * np.diag(penalize)
    try:
        np.linalg.cholesky(normal)
    except np.linalg.LinAlgError:
        raise SingularSystemError(
            "normal equations are singular; supply a positive ridge penalty"
        ) from None
    return np.linalg.solve(normal, moment)


def fit_outcome(ds: Dataset, ridge: float = 1e-6) -> OutcomeModel:
    """Fit one outcome regression per arm on the rows observed under it:
    one pass over the design sums every arm's normal equations, weighting
    each block's rows by the arm's 0/1 mask."""
    if not ridge >= 0:
        raise ValidationError(f"ridge must be nonnegative, got {ridge}")
    encoder = FeatureEncoder.fit(ds)
    m, width = ds.n_treatments, len(encoder.columns) + 1
    counts = np.bincount(ds.treatments, minlength=m)
    for a in range(m):
        if counts[a] == 0:
            raise ValidationError(
                f"treatment {ds.treatment_names[a]!r} has no observations"
            )
        if ridge <= 0 and counts[a] < width:
            raise ValidationError(
                f"arm {ds.treatment_names[a]!r} has {counts[a]} rows for {width} "
                "coefficients; use a positive ridge penalty"
            )
    arms = np.arange(m)[:, None]
    grams, moments = np.zeros((m, width, width)), np.zeros((m, width))
    for rows, block in encoder.design_blocks(ds):
        gram, moment = weighted_gram(block, ds.treatments[rows] == arms, ds.outcomes[rows])
        grams += gram
        moments += moment
    coefs = np.array([solve_normal(grams[a], moments[a], ridge) for a in range(m)])
    return OutcomeModel(encoder, ds.treatment_names, coefs, ridge)


@dataclass(frozen=True)
class DRScoreMatrix:
    """Per-subject, per-treatment doubly robust scores, (N, m).

    Entry [i, a] equals the outcome prediction for arm a, plus, when a is the
    observed arm, the residual scaled by the inverse clipped propensity.
    """

    scores: np.ndarray
    treatment_names: tuple[str, ...]

    @property
    def n_subjects(self) -> int:
        return int(self.scores.shape[0])

    def mean_value(self, assigned: np.ndarray) -> float:
        """Average score along a per-subject treatment assignment."""
        return float(self.scores[np.arange(self.n_subjects), assigned].mean())

    def to_dict(self) -> dict:
        """Names and the scores ndarray itself, which ``io.write_json`` writes
        by blocks of rows as json.dumps would its ``tolist()``."""
        return {
            "treatment_names": list(self.treatment_names),
            "scores": self.scores,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DRScoreMatrix":
        with malformed("score matrix"):
            scores = np.asarray(d["scores"], dtype=float)
            names = tuple(d["treatment_names"])
        if scores.ndim != 2 or scores.shape[1] != len(names) \
                or not np.isfinite(scores).all():
            raise ValidationError(
                "malformed score matrix: 'scores' must be rows of finite numbers, "
                "one per treatment name")
        return cls(scores=scores, treatment_names=names)


def compute_dr_scores(ds: Dataset, propensity: PropensityModel,
                      outcome: OutcomeModel) -> DRScoreMatrix:
    """Fill the score matrix from fitted models (same schema and treatments)
    in one pass over the design blocks of both models' encoders."""
    if propensity.treatment_names != ds.treatment_names or \
            outcome.treatment_names != ds.treatment_names:
        raise ValidationError("models were fit with a different treatment set")
    scores = np.empty((ds.n_subjects, ds.n_treatments))
    for (rows, block), (_, prop_block) in zip(outcome.encoder.design_blocks(ds),
                                              propensity.encoder.design_blocks(ds)):
        predicted = outcome._predict_rows(block)
        probs = np.maximum(propensity._proba_rows(prop_block), propensity.clip_epsilon)
        picked = np.arange(len(predicted)), ds.treatments[rows]
        predicted[picked] += (ds.outcomes[rows] - predicted[picked]) / probs[picked]
        scores[rows] = predicted
    return DRScoreMatrix(scores=scores, treatment_names=ds.treatment_names)
