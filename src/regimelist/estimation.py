"""Nuisance models and per-subject, per-treatment policy-value scores.

Two models are fit on the observational data: a multinomial logistic
propensity model for the probability of each observed treatment, fit by
Newton's method with step-halving, and one ridge regression per treatment
arm for the outcome.  They combine into a doubly robust score matrix: the
observed arm's entry carries an inverse propensity weighted residual
correction, counterfactual arms are plain regression predictions.  The
estimate of a regime's mean outcome is then a simple column selection over
this matrix.

Every Xᵀ diag(w) X the fits need (the propensity Hessian's blocks, each
arm's normal equations) is summed over blocks of at most GRAM_BLOCK rows, so
a fit holds its one (N, d + 1) design and no second array of that size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .domain import REAL, Dataset
from .errors import ConvergenceError, SingularSystemError, ValidationError, malformed

# rows per block of weighted_gram: a (d + 1) x GRAM_BLOCK temporary, 0.3 MB
# at d + 1 = 19.  With 100k rows and 2 cores each Gram matrix took 5-8 ms in
# 2,048-row blocks; in 8,192-row blocks (multithreaded products) 11-14 ms,
# but ~96 ms a call through about the first ten calls of some processes.
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

    def transform(self, ds: Dataset) -> np.ndarray:
        """The encoded columns, (N, d): ``design(ds)`` without its intercept."""
        return self.design(ds)[:, :-1]

    def design(self, ds: Dataset) -> np.ndarray:
        """The encoded columns then an intercept of ones, (N, d + 1), one array."""
        out = np.empty((ds.n_subjects, len(self.columns) + 1), dtype=float)
        out[:, -1] = 1.0
        for j, col in enumerate(self.columns):
            raw = ds.columns[col.feature]
            if col.level is None:
                out[:, j] = (raw - self.means[j]) / self.scales[j]
            else:
                out[:, j] = (raw == col.level).astype(float)
        return out

    def to_dict(self) -> dict:
        return {
            "columns": [{"feature": c.feature, "level": c.level, "name": c.name}
                        for c in self.columns],
            "means": self.means.tolist(),
            "scales": self.scales.tolist(),
        }


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def propensity_loglik(weights: np.ndarray, design: np.ndarray, codes: np.ndarray,
                      l2: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean log-likelihood minus (l2/2)·||weights||² for the softmax model,
    with its analytic gradient and the (N, m) softmax probabilities."""
    n = design.shape[0]
    logp = _log_softmax(design @ weights.T)
    value = float(logp[np.arange(n), codes].mean() - 0.5 * l2 * (weights * weights).sum())
    probs = np.exp(logp)
    resid = -probs
    resid[np.arange(n), codes] += 1.0
    grad = resid.T @ design / n - l2 * weights
    return value, grad, probs


def weighted_gram(design: np.ndarray, w: np.ndarray,
                  y: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Xᵀ diag(w) X for X = design, and Xᵀ diag(w) y (zeros without y),
    summed over blocks of GRAM_BLOCK rows, so the only temporary is one
    block of Xᵀ diag(w)."""
    n, d = design.shape
    gram, moment = np.zeros((d, d)), np.zeros(d)
    buffer = np.empty((min(n, GRAM_BLOCK), d)).T
    for i in range(0, n, GRAM_BLOCK):
        block = design[i:i + GRAM_BLOCK]
        scaled = np.multiply(block.T, w[i:i + GRAM_BLOCK], out=buffer[:, :len(block)])
        gram += scaled @ block
        if y is not None:
            moment += scaled @ y[i:i + GRAM_BLOCK]
    return gram, moment


def propensity_hessian(probs: np.ndarray, design: np.ndarray, l2: float) -> np.ndarray:
    """Hessian of the penalized mean log-likelihood, (m·d)×(m·d), at the
    weights whose softmax probabilities are probs.

    Rows and columns follow weights.ravel(); block (a, b) is
    -Xᵀ diag(p_a(δ_ab − p_b)) X / n, minus l2 on the diagonal.
    """
    n, d = design.shape
    m = probs.shape[1]
    hessian = np.empty((m * d, m * d))
    for a in range(m):
        for b in range(a, m):
            w = probs[:, a] * ((a == b) - probs[:, b])
            block = -weighted_gram(design, w)[0] / n
            hessian[a * d:(a + 1) * d, b * d:(b + 1) * d] = block
            hessian[b * d:(b + 1) * d, a * d:(a + 1) * d] = block.T
    hessian[np.diag_indices(m * d)] -= l2
    return hessian


@dataclass
class PropensityModel:
    """Multinomial logistic model of treatment given characteristics."""

    encoder: FeatureEncoder
    treatment_names: tuple[str, ...]
    weights: np.ndarray
    clip_epsilon: float
    n_iterations: int = 0
    gradient_norm: float = 0.0

    def predict_proba_raw(self, ds: Dataset) -> np.ndarray:
        """Softmax probabilities; every row sums to 1."""
        design = self.encoder.design(ds)
        return np.exp(_log_softmax(design @ self.weights.T))

    def predict_proba(self, ds: Dataset) -> np.ndarray:
        """Probabilities floored at clip_epsilon (rows may then exceed 1)."""
        return np.maximum(self.predict_proba_raw(ds), self.clip_epsilon)

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
    norm drops to grad_tol.  Raises ConvergenceError (carrying the final
    norm) past max_iters.
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
    design = encoder.design(ds)
    m = ds.n_treatments
    weights = np.zeros((m, design.shape[1]))
    codes = ds.treatments

    value, grad, probs = propensity_loglik(weights, design, codes, l2)
    for it in range(1, max_iters + 1):
        gnorm = float(np.sqrt((grad * grad).sum()))
        if gnorm <= grad_tol:
            return PropensityModel(encoder, ds.treatment_names, weights, clip_epsilon,
                                   n_iterations=it - 1, gradient_norm=gnorm)
        hessian = propensity_hessian(probs, design, l2)
        direction = np.linalg.lstsq(-hessian, grad.ravel(), rcond=None)[0].reshape(m, -1)
        slope = float((grad * direction).sum())
        alpha = 1.0
        while True:
            candidate = weights + alpha * direction
            cand_value, cand_grad, cand_probs = propensity_loglik(candidate, design, codes, l2)
            if cand_value >= value + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
            if alpha < 1e-18:
                raise ConvergenceError(
                    f"propensity line search stalled at iteration {it} "
                    f"(gradient norm {gnorm:.3e})",
                    gradient_norm=gnorm,
                )
        weights, value, grad, probs = candidate, cand_value, cand_grad, cand_probs

    gnorm = float(np.sqrt((grad * grad).sum()))
    raise ConvergenceError(
        f"propensity fit did not reach gradient norm {grad_tol:.0e} within "
        f"{max_iters} iterations (final norm {gnorm:.3e})",
        gradient_norm=gnorm,
    )


@dataclass
class OutcomeModel:
    """One ridge regression per treatment arm on encoded characteristics."""

    encoder: FeatureEncoder
    treatment_names: tuple[str, ...]
    coefs: np.ndarray
    ridge: float

    def predict(self, ds: Dataset) -> np.ndarray:
        """Predicted outcome for every subject under every treatment, (N, m)."""
        design = self.encoder.design(ds)
        return design @ self.coefs.T

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
    """Fit one outcome regression per arm on the rows observed under it,
    weighting the rows of the one design by the arm's 0/1 mask."""
    if not ridge >= 0:
        raise ValidationError(f"ridge must be nonnegative, got {ridge}")
    encoder = FeatureEncoder.fit(ds)
    design = encoder.design(ds)
    d = design.shape[1]
    coefs = np.empty((ds.n_treatments, d))
    for a in range(ds.n_treatments):
        rows = ds.treatments == a
        n_arm = int(rows.sum())
        if n_arm == 0:
            raise ValidationError(
                f"treatment {ds.treatment_names[a]!r} has no observations"
            )
        if ridge <= 0 and n_arm < d:
            raise ValidationError(
                f"arm {ds.treatment_names[a]!r} has {n_arm} rows for {d} coefficients; "
                "use a positive ridge penalty"
            )
        coefs[a] = solve_normal(*weighted_gram(design, rows, ds.outcomes), ridge)
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
    """Fill the score matrix from fitted models (same schema and treatments)."""
    if propensity.treatment_names != ds.treatment_names or \
            outcome.treatment_names != ds.treatment_names:
        raise ValidationError("models were fit with a different treatment set")
    predicted = outcome.predict(ds)
    probs = propensity.predict_proba(ds)
    scores = predicted.copy()
    idx = np.arange(ds.n_subjects)
    observed = ds.treatments
    scores[idx, observed] += (ds.outcomes - predicted[idx, observed]) / probs[idx, observed]
    return DRScoreMatrix(scores=scores, treatment_names=ds.treatment_names)
