"""Encoder, propensity, outcome, and score estimation against numeric oracles."""
from __future__ import annotations

import numpy as np
import pytest

from regimelist.domain import (
    BINARY,
    CATEGORICAL,
    REAL,
    CharacteristicSpec,
)
from regimelist.errors import ConvergenceError, SingularSystemError, ValidationError
from regimelist.estimation import (
    DRScoreMatrix,
    FeatureEncoder,
    compute_dr_scores,
    encode_features,
    fit_outcome,
    fit_propensity,
    propensity_loglik,
    propensity_loglik_grad,
    solve_ridge,
)

from conftest import dataset_from_rows, random_dataset


def logistic_dataset(rng, n=400, m=3, n_features=4):
    """Treatments drawn from a known softmax over encoded features."""
    specs = tuple(
        CharacteristicSpec(f"r{f}", REAL, 1.0) for f in range(n_features)
    )
    X = rng.normal(0, 1, size=(n, n_features))
    W = rng.normal(0, 1.0, size=(m, n_features + 1))
    W[0] = 0.0
    logits = np.column_stack([X, np.ones(n)]) @ W.T
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    codes = np.array([rng.choice(m, p=p) for p in probs])
    names = tuple(f"t{a}" for a in range(m))
    rows = [
        (tuple(float(v) for v in X[i]), names[codes[i]], float(rng.normal(50, 5)))
        for i in range(n)
    ]
    return dataset_from_rows(specs, names, tuple(10.0 for _ in range(m)), rows)


class TestFeatureEncoder:
    def test_drop_first_one_hot_and_zscore(self):
        specs = (
            CharacteristicSpec("color", CATEGORICAL, 1.0, ("red", "green", "blue")),
            CharacteristicSpec("flag", BINARY, 1.0, ("no", "yes")),
            CharacteristicSpec("x", REAL, 1.0),
        )
        rows = [
            (("red", "no", 1.0), "a", 0.0),
            (("green", "yes", 2.0), "a", 0.0),
            (("blue", "yes", 3.0), "a", 0.0),
            (("red", "no", 4.0), "a", 0.0),
        ]
        ds = dataset_from_rows(specs, ("a",), (1.0,), rows)
        enc = FeatureEncoder.fit(ds)
        X = enc.transform(ds)
        # color contributes 2 indicator columns (green, blue), flag 1, x 1
        assert X.shape == (4, 4)
        assert X[:, 0].tolist() == [0.0, 1.0, 0.0, 0.0]
        assert X[:, 1].tolist() == [0.0, 0.0, 1.0, 0.0]
        assert X[:, 2].tolist() == [0.0, 1.0, 1.0, 0.0]
        mean = np.mean([1, 2, 3, 4])
        std = np.std([1, 2, 3, 4])
        assert X[:, 3] == pytest.approx((np.array([1, 2, 3, 4.0]) - mean) / std)

    def test_zero_variance_real_column_centred_not_scaled(self):
        specs = (CharacteristicSpec("x", REAL, 1.0),)
        rows = [((5.0,), "a", 0.0) for _ in range(6)]
        ds = dataset_from_rows(specs, ("a",), (1.0,), rows)
        X = encode_features(ds)
        assert X[:, 0].tolist() == [0.0] * 6

    def test_round_trip_serialization(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, n_subjects=20)
        enc = FeatureEncoder.fit(ds)
        back = FeatureEncoder.from_dict(enc.to_dict())
        assert np.array_equal(back.transform(ds), enc.transform(ds))
        assert back.columns == enc.columns


class TestPropensityGradient:
    def test_analytic_gradient_matches_central_differences(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(10):
            ds = random_dataset(
                rng,
                n_subjects=int(rng.integers(20, 40)),
                n_features=int(rng.integers(2, 5)),
                m=int(rng.integers(2, 4)),
            )
            X = encode_features(ds)
            design = np.column_stack([X, np.ones(len(X))])
            m = ds.n_treatments
            W = rng.normal(0, 0.5, size=(m, design.shape[1]))
            l2 = 1e-4
            _, grad = propensity_loglik_grad(W, design, ds.treatments, l2)
            h = 1e-6
            for r in range(m):
                for c in range(design.shape[1]):
                    Wp, Wm = W.copy(), W.copy()
                    Wp[r, c] += h
                    Wm[r, c] -= h
                    fd = (
                        propensity_loglik(Wp, design, ds.treatments, l2)
                        - propensity_loglik(Wm, design, ds.treatments, l2)
                    ) / (2 * h)
                    denom = max(abs(grad[r, c]), 1e-3)
                    worst = max(worst, abs(fd - grad[r, c]) / denom)
        assert worst <= 1e-5

    def test_loglik_value_agrees_with_grad_companion(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, n_subjects=25)
        X = encode_features(ds)
        design = np.column_stack([X, np.ones(len(X))])
        W = rng.normal(size=(ds.n_treatments, design.shape[1]))
        v1 = propensity_loglik(W, design, ds.treatments, 1e-4)
        v2, _ = propensity_loglik_grad(W, design, ds.treatments, 1e-4)
        assert v1 == pytest.approx(v2, rel=1e-14)


class TestPropensityFit:
    def test_rows_sum_to_one_before_clipping(self):
        rng = np.random.default_rng(6)
        ds = logistic_dataset(rng, n=300)
        model = fit_propensity(ds)
        raw = model.predict_proba_raw(ds)
        assert np.max(np.abs(raw.sum(axis=1) - 1.0)) <= 1e-10

    def test_clipping_is_floor_only(self):
        rng = np.random.default_rng(8)
        ds = logistic_dataset(rng, n=300)
        model = fit_propensity(ds, clip_epsilon=0.05)
        raw = model.predict_proba_raw(ds)
        clipped = model.predict_proba(ds)
        assert np.all(clipped >= 0.05 - 1e-15)
        keep = raw >= 0.05
        assert np.array_equal(clipped[keep], raw[keep])

    def test_gradient_norm_small_at_solution(self):
        rng = np.random.default_rng(10)
        ds = logistic_dataset(rng, n=250)
        model = fit_propensity(ds, grad_tol=1e-6)
        assert model.gradient_norm <= 1e-6

    def test_recovers_probabilities_on_large_sample(self):
        # observed treatment frequencies per region should match predictions
        rng = np.random.default_rng(12)
        ds = logistic_dataset(rng, n=4000, m=2, n_features=1)
        model = fit_propensity(ds)
        probs = model.predict_proba_raw(ds)
        x = ds.columns[0]
        lo = x < np.median(x)
        for region in (lo, ~lo):
            empirical = np.mean(ds.treatments[region] == 1)
            predicted = probs[region, 1].mean()
            assert abs(empirical - predicted) <= 0.05

    def test_regularization_shrinks_weights(self):
        rng = np.random.default_rng(14)
        ds = logistic_dataset(rng, n=200)
        norms = []
        for l2 in (1e-4, 1e-2, 1.0):
            model = fit_propensity(ds, l2=l2)
            norms.append(float(np.linalg.norm(model.weights)))
        assert norms[0] >= norms[1] - 1e-8
        assert norms[1] >= norms[2] - 1e-8

    def test_unobserved_arm_rejected(self):
        rng = np.random.default_rng(16)
        specs = (CharacteristicSpec("x", REAL, 1.0),)
        rows = [((float(i),), "a", 1.0) for i in range(10)]
        ds = dataset_from_rows(specs, ("a", "b"), (1.0, 1.0), rows)
        with pytest.raises(ValidationError, match="never observed"):
            fit_propensity(ds)

    def test_convergence_error_carries_gradient_norm(self):
        rng = np.random.default_rng(18)
        ds = logistic_dataset(rng, n=120)
        with pytest.raises(ConvergenceError) as exc:
            fit_propensity(ds, max_iters=2, grad_tol=1e-12)
        assert exc.value.gradient_norm > 0

    def test_model_round_trip(self):
        rng = np.random.default_rng(20)
        ds = logistic_dataset(rng, n=150)
        model = fit_propensity(ds)
        back = type(model).from_dict(model.to_dict())
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back.predict_proba(ds), model.predict_proba(ds))


class TestOutcomeFit:
    def test_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(8):
            ds = random_dataset(rng, n_subjects=60, n_features=4, m=2)
            ridge = 1e-6
            model = fit_outcome(ds, ridge=ridge)
            X = encode_features(ds)
            design = np.column_stack([X, np.ones(len(X))])
            d = design.shape[1]
            for a in range(ds.n_treatments):
                rows = ds.treatments == a
                Xa, ya = design[rows], ds.outcomes[rows]
                reg = ridge * np.eye(d)
                reg[-1, -1] = 0.0
                beta = np.linalg.solve(Xa.T @ Xa + reg, Xa.T @ ya)
                worst = max(worst, float(np.max(np.abs(beta - model.coefs[a]))))
        assert worst <= 1e-8

    def test_intercept_not_penalized_constant_outcome_exact(self):
        specs = (CharacteristicSpec("x", REAL, 1.0),)
        rng = np.random.default_rng(3)
        rows = [((float(rng.normal()),), "a", 42.0) for _ in range(30)]
        ds = dataset_from_rows(specs, ("a",), (1.0,), rows)
        model = fit_outcome(ds, ridge=10.0)
        pred = model.predict(ds)
        assert pred[:, 0] == pytest.approx(np.full(30, 42.0), abs=1e-9)

    def test_empty_arm_rejected(self):
        specs = (CharacteristicSpec("x", REAL, 1.0),)
        rows = [((float(i),), "a", 1.0) for i in range(10)]
        ds = dataset_from_rows(specs, ("a", "b"), (1.0, 1.0), rows)
        with pytest.raises(ValidationError):
            fit_outcome(ds)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, n_subjects=50)
        model = fit_outcome(ds)
        back = type(model).from_dict(model.to_dict())
        assert np.array_equal(back.predict(ds), model.predict(ds))


class TestDRScores:
    def test_observed_cell_correction(self):
        # score for the observed arm is prediction + residual / clipped prob;
        # all other arms carry the bare prediction
        rng = np.random.default_rng(7)
        ds = logistic_dataset(rng, n=200)
        prop = fit_propensity(ds)
        out = fit_outcome(ds)
        scores = compute_dr_scores(ds, prop, out)
        pred = out.predict(ds)
        probs = prop.predict_proba(ds)
        idx = np.arange(ds.n_subjects)
        obs = ds.treatments
        expected = pred.copy()
        expected[idx, obs] += (ds.outcomes - pred[idx, obs]) / probs[idx, obs]
        assert np.array_equal(scores.scores, expected)

    def test_mean_value_is_row_pick_average(self):
        rng = np.random.default_rng(9)
        mat = rng.normal(size=(15, 3))
        scores = DRScoreMatrix(scores=mat, treatment_names=("a", "b", "c"))
        pick = rng.integers(0, 3, size=15)
        want = float(np.mean([mat[i, pick[i]] for i in range(15)]))
        assert scores.mean_value(pick) == pytest.approx(want, rel=1e-15)

    def test_treatment_name_mismatch_rejected(self):
        rng = np.random.default_rng(11)
        ds = logistic_dataset(rng, n=100)
        prop = fit_propensity(ds)
        out = fit_outcome(ds)
        renamed = type(prop)(
            encoder=prop.encoder,
            treatment_names=("x", "y", "z"),
            weights=prop.weights,
            clip_epsilon=prop.clip_epsilon,
        )
        with pytest.raises(ValidationError):
            compute_dr_scores(ds, renamed, out)

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        mat = rng.normal(size=(6, 2))
        scores = DRScoreMatrix(scores=mat, treatment_names=("a", "b"))
        back = DRScoreMatrix.from_dict(scores.to_dict())
        assert np.array_equal(back.scores, scores.scores)


class TestSolveRidge:
    def test_plain_least_squares_when_ridge_zero(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(40, 3))
        design = np.column_stack([X, np.ones(40)])
        beta_true = np.array([1.0, -2.0, 0.5, 3.0])
        y = design @ beta_true
        beta = solve_ridge(design, y, ridge=0.0)
        assert beta == pytest.approx(beta_true, abs=1e-10)

    def test_all_zero_column_without_ridge_is_singular(self):
        rng = np.random.default_rng(16)
        design = np.column_stack([rng.normal(size=(40, 2)), np.zeros(40), np.ones(40)])
        with pytest.raises(SingularSystemError, match="normal equations are singular"):
            solve_ridge(design, rng.normal(size=40), ridge=0.0)
