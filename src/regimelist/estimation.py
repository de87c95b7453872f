"""Nuisance models and per-subject, per-treatment policy-value scores.

Two models are fit on the observational data: a multinomial logistic
propensity model for the probability of each observed treatment, and one
ridge regression per treatment arm for the outcome.  They combine into a
doubly robust score matrix: the observed arm's entry carries an inverse
propensity weighted residual correction, counterfactual arms are plain
regression predictions.  The estimate of a regime's mean outcome is then a
simple column selection over this matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .domain import REAL, Dataset
from .errors import ConvergenceError, SingularSystemError, ValidationError


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

    @property
    def n_columns(self) -> int:
        return len(self.columns)

    def transform(self, ds: Dataset) -> np.ndarray:
        out = np.empty((ds.n_subjects, len(self.columns)), dtype=float)
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

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureEncoder":
        return cls(
            columns=tuple(EncodedColumn(c["feature"], c["level"], c["name"])
                          for c in d["columns"]),
            means=np.asarray(d["means"], dtype=float),
            scales=np.asarray(d["scales"], dtype=float),
        )


def encode_features(ds: Dataset) -> np.ndarray:
    """Design matrix for a dataset (fit + transform in one step)."""
    return FeatureEncoder.fit(ds).transform(ds)


def _with_intercept(X: np.ndarray) -> np.ndarray:
    return np.hstack([X, np.ones((X.shape[0], 1))])


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def propensity_loglik(weights: np.ndarray, design: np.ndarray,
                      codes: np.ndarray, l2: float) -> float:
    """Mean log-likelihood minus (l2/2)·||weights||² for the softmax model."""
    logp = _log_softmax(design @ weights.T)
    n = design.shape[0]
    return float(logp[np.arange(n), codes].mean() - 0.5 * l2 * (weights * weights).sum())


def propensity_loglik_grad(weights: np.ndarray, design: np.ndarray,
                           codes: np.ndarray, l2: float) -> tuple[float, np.ndarray]:
    """Penalized mean log-likelihood and its analytic gradient."""
    n = design.shape[0]
    logp = _log_softmax(design @ weights.T)
    value = float(logp[np.arange(n), codes].mean() - 0.5 * l2 * (weights * weights).sum())
    probs = np.exp(logp)
    resid = -probs
    resid[np.arange(n), codes] += 1.0
    grad = resid.T @ design / n - l2 * weights
    return value, grad


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
        design = _with_intercept(self.encoder.transform(ds))
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

    @classmethod
    def from_dict(cls, d: dict) -> "PropensityModel":
        return cls(
            encoder=FeatureEncoder.from_dict(d["encoder"]),
            treatment_names=tuple(d["treatment_names"]),
            weights=np.asarray(d["weights"], dtype=float),
            clip_epsilon=float(d["clip_epsilon"]),
            n_iterations=int(d.get("n_iterations", 0)),
            gradient_norm=float(d.get("gradient_norm", 0.0)),
        )


def fit_propensity(
    ds: Dataset,
    l2: float = 1e-4,
    clip_epsilon: float = 0.01,
    grad_tol: float = 1e-6,
    max_iters: int = 5000,
) -> PropensityModel:
    """Fit the propensity model by full-batch gradient ascent.

    Backtracking line search (Armijo) with the accepted step carried across
    iterations; converged when the gradient Frobenius norm drops to grad_tol.
    Raises ConvergenceError (carrying the final norm) past max_iters.
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
    design = _with_intercept(encoder.transform(ds))
    m = ds.n_treatments
    weights = np.zeros((m, design.shape[1]))
    codes = ds.treatments

    step = 1.0
    value, grad = propensity_loglik_grad(weights, design, codes, l2)
    for it in range(1, max_iters + 1):
        gnorm = float(np.sqrt((grad * grad).sum()))
        if gnorm <= grad_tol:
            return PropensityModel(encoder, ds.treatment_names, weights, clip_epsilon,
                                   n_iterations=it - 1, gradient_norm=gnorm)
        alpha = min(step * 2.0, 1e6)
        g2 = gnorm * gnorm
        while True:
            candidate = weights + alpha * grad
            cand_value = propensity_loglik(candidate, design, codes, l2)
            if cand_value >= value + 1e-4 * alpha * g2:
                break
            alpha *= 0.5
            if alpha < 1e-18:
                raise ConvergenceError(
                    f"propensity line search stalled at iteration {it} "
                    f"(gradient norm {gnorm:.3e})",
                    gradient_norm=gnorm,
                )
        weights = candidate
        step = alpha
        value, grad = propensity_loglik_grad(weights, design, codes, l2)

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
        design = _with_intercept(self.encoder.transform(ds))
        return design @ self.coefs.T

    def to_dict(self) -> dict:
        return {
            "encoder": self.encoder.to_dict(),
            "treatment_names": list(self.treatment_names),
            "coefs": self.coefs.tolist(),
            "ridge": self.ridge,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "OutcomeModel":
        return cls(
            encoder=FeatureEncoder.from_dict(d["encoder"]),
            treatment_names=tuple(d["treatment_names"]),
            coefs=np.asarray(d["coefs"], dtype=float),
            ridge=float(d["ridge"]),
        )


def solve_ridge(design: np.ndarray, y: np.ndarray, ridge: float) -> np.ndarray:
    """Solve the (optionally ridge-penalized) normal equations.

    The penalty applies to every coefficient but the last (intercept) one;
    a failed Cholesky factorization marks the system as singular.
    """
    penalize = np.ones(design.shape[1])
    penalize[-1] = 0.0
    normal = design.T @ design + ridge * np.diag(penalize)
    try:
        np.linalg.cholesky(normal)
    except np.linalg.LinAlgError:
        raise SingularSystemError(
            "normal equations are singular; supply a positive ridge penalty"
        ) from None
    return np.linalg.solve(normal, design.T @ y)


def fit_outcome(ds: Dataset, ridge: float = 1e-6) -> OutcomeModel:
    """Fit one outcome regression per arm on the rows observed under it."""
    if not ridge >= 0:
        raise ValidationError(f"ridge must be nonnegative, got {ridge}")
    encoder = FeatureEncoder.fit(ds)
    design = _with_intercept(encoder.transform(ds))
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
        coefs[a] = solve_ridge(design[rows], ds.outcomes[rows], ridge)
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
        return {
            "treatment_names": list(self.treatment_names),
            "scores": self.scores.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DRScoreMatrix":
        try:
            scores = np.asarray(d["scores"], dtype=float)
            names = tuple(d["treatment_names"])
        except (KeyError, TypeError, ValueError) as e:
            raise ValidationError(f"malformed score matrix: {e!r}") from None
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
