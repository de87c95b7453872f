"""Encoder, propensity, outcome, and score estimation against numeric oracles."""
from __future__ import annotations

import json
import tracemalloc

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
    GRAM_BLOCK,
    DRScoreMatrix,
    FeatureEncoder,
    compute_dr_scores,
    fit_outcome,
    fit_propensity,
    propensity_loglik,
    solve_normal,
    weighted_gram,
)

from regimelist.synth import default_generator_spec, generate

from conftest import (
    dataset_from_rows,
    design_matrix,
    oracle_dr_scores,
    oracle_fit_propensity,
    oracle_newton_propensity,
    oracle_outcome_coefs,
    random_dataset,
)


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
        X = design_matrix(ds, enc)[:, :-1]
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
        X = design_matrix(ds)[:, :-1]
        assert X[:, 0].tolist() == [0.0] * 6

    @pytest.mark.parametrize("n", [1, GRAM_BLOCK - 1, GRAM_BLOCK, 2 * GRAM_BLOCK + 5])
    def test_blocks_are_the_whole_design(self, n):
        # consecutive blocks, each of at most GRAM_BLOCK rows, that stack
        # into the design built column by column, bit for bit
        ds = random_dataset(np.random.default_rng(n), n_subjects=n, n_features=5, m=2)
        enc = FeatureEncoder.fit(ds)
        whole = design_matrix(ds, enc)
        starts = []
        for rows, block in enc.design_blocks(ds):
            assert block.shape == (rows.stop - rows.start, len(enc.columns) + 1)
            assert 0 < len(block) <= GRAM_BLOCK
            assert np.array_equal(block, whole[rows])
            starts.append(rows.start)
        assert starts == list(range(0, n, GRAM_BLOCK))


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
            enc = FeatureEncoder.fit(ds)
            width = len(enc.columns) + 1
            m = ds.n_treatments
            W = rng.normal(0, 0.5, size=(m, width))
            l2 = 1e-4
            _, grad, _ = propensity_loglik(W, enc, ds, l2)
            h = 1e-6
            for r in range(m):
                for c in range(width):
                    Wp, Wm = W.copy(), W.copy()
                    Wp[r, c] += h
                    Wm[r, c] -= h
                    fd = (
                        propensity_loglik(Wp, enc, ds, l2)[0]
                        - propensity_loglik(Wm, enc, ds, l2)[0]
                    ) / (2 * h)
                    denom = max(abs(grad[r, c]), 1e-3)
                    worst = max(worst, abs(fd - grad[r, c]) / denom)
        assert worst <= 1e-5

    def test_hessian_matches_central_differences_of_gradient(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(10):
            ds = random_dataset(
                rng,
                n_subjects=int(rng.integers(20, 45)),
                n_features=int(rng.integers(2, 5)),
                m=int(rng.integers(2, 4)),
            )
            enc = FeatureEncoder.fit(ds)
            W = rng.normal(0, 0.5, size=(ds.n_treatments, len(enc.columns) + 1))
            l2 = float(rng.choice([0.0, 1e-4, 1.0]))
            hessian = propensity_loglik(W, enc, ds, l2)[2]
            assert hessian.shape == (W.size, W.size)
            assert np.allclose(hessian, hessian.T, rtol=0, atol=1e-12)
            h = 1e-6
            for k in range(W.size):
                Wp, Wm = W.copy(), W.copy()
                Wp.flat[k] += h
                Wm.flat[k] -= h
                fd = (propensity_loglik(Wp, enc, ds, l2)[1]
                      - propensity_loglik(Wm, enc, ds, l2)[1]
                      ).ravel() / (2 * h)
                denom = np.maximum(np.abs(hessian[:, k]), 1e-3)
                worst = max(worst, float(np.max(np.abs(fd - hessian[:, k]) / denom)))
        assert worst <= 1e-5


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

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("l2", [0.0, 1e-4, 1.0])
    def test_newton_agrees_with_gradient_ascent_oracle(self, m, l2):
        rng = np.random.default_rng(22 + m)
        ds = logistic_dataset(rng, n=400, m=m)
        model = fit_propensity(ds, l2=l2)
        assert model.n_iterations <= 10
        raw = model.predict_proba_raw(ds)
        assert np.max(np.abs(raw - oracle_fit_propensity(ds, l2=l2))) <= 1e-5

    @pytest.mark.parametrize("m", [2, 3])
    def test_separable_data_without_penalty_converges(self, m):
        # the unpenalized maximum lies at infinity; the gradient still
        # vanishes along the way, so the fit stops at grad_tol
        specs = (CharacteristicSpec("x", REAL, 1.0),)
        names = tuple(f"t{a}" for a in range(m))
        rows = [((float(i),), names[i * m // 60], 1.0) for i in range(60)]
        ds = dataset_from_rows(specs, names, (1.0,) * m, rows)
        model = fit_propensity(ds, l2=0.0)
        assert model.gradient_norm <= 1e-6
        assert np.all(np.isfinite(model.weights))
        raw = model.predict_proba_raw(ds)
        assert np.all(raw[np.arange(60), ds.treatments] >= 0.9)

    def test_convergence_error_carries_gradient_norm(self):
        rng = np.random.default_rng(18)
        ds = logistic_dataset(rng, n=120)
        with pytest.raises(ConvergenceError) as exc:
            fit_propensity(ds, max_iters=2, grad_tol=1e-12)
        assert exc.value.gradient_norm > 0

    @pytest.mark.parametrize("m", [2, 3])
    def test_max_iters_admits_a_fit_converged_in_exactly_that_many_steps(self, m):
        # the gradient is checked after the last allowed step as after any
        ds = logistic_dataset(np.random.default_rng(30 + m), n=300, m=m)
        steps = fit_propensity(ds).n_iterations
        assert steps >= 2
        model = fit_propensity(ds, max_iters=steps)
        assert model.n_iterations == steps and model.gradient_norm <= 1e-6
        assert np.array_equal(model.weights, fit_propensity(ds).weights)
        with pytest.raises(ConvergenceError, match=f"within {steps - 1} iterations") as exc:
            fit_propensity(ds, max_iters=steps - 1)
        assert exc.value.gradient_norm > 1e-6

    def test_model_round_trip(self):
        # propensity.json carries the fitted parameters exactly
        rng = np.random.default_rng(20)
        ds = logistic_dataset(rng, n=150)
        model = fit_propensity(ds)
        d = json.loads(json.dumps(model.to_dict()))
        assert np.array_equal(np.asarray(d["weights"]), model.weights)
        assert np.array_equal(np.asarray(d["encoder"]["means"]), model.encoder.means)
        assert np.array_equal(np.asarray(d["encoder"]["scales"]), model.encoder.scales)
        assert d["clip_epsilon"] == model.clip_epsilon


class TestOutcomeFit:
    def test_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(8):
            ds = random_dataset(rng, n_subjects=60, n_features=4, m=2)
            ridge = 1e-6
            model = fit_outcome(ds, ridge=ridge)
            design = design_matrix(ds)
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
        # outcome.json carries the fitted coefficients exactly
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, n_subjects=50)
        model = fit_outcome(ds)
        d = json.loads(json.dumps(model.to_dict()))
        assert np.array_equal(np.asarray(d["coefs"]), model.coefs)
        assert d["treatment_names"] == list(model.treatment_names)


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


class TestSolveNormal:
    def test_plain_least_squares_when_ridge_zero(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(40, 3))
        design = np.column_stack([X, np.ones(40)])
        beta_true = np.array([1.0, -2.0, 0.5, 3.0])
        y = design @ beta_true
        beta = solve_normal(*weighted_gram(design, np.ones(40), y), ridge=0.0)
        assert beta == pytest.approx(beta_true, abs=1e-10)

    def test_all_zero_column_without_ridge_is_singular(self):
        rng = np.random.default_rng(16)
        design = np.column_stack([rng.normal(size=(40, 2)), np.zeros(40), np.ones(40)])
        with pytest.raises(SingularSystemError, match="normal equations are singular"):
            solve_normal(*weighted_gram(design, np.ones(40), rng.normal(size=40)),
                         ridge=0.0)


class TestWeightedGram:
    @pytest.mark.parametrize("n", [1, GRAM_BLOCK - 1, GRAM_BLOCK, GRAM_BLOCK + 1, 20_000])
    @pytest.mark.parametrize("weights", ["mixed_sign", "mask"])
    def test_matches_one_product(self, n, weights):
        rng = np.random.default_rng(n)
        X = np.column_stack([rng.normal(size=(n, 18)), np.ones(n)])
        y = rng.normal(size=n)
        w = rng.normal(size=n) if weights == "mixed_sign" else rng.random(n) < 0.4
        gram, moment = weighted_gram(X, w, y)
        want = (X.T * w) @ X
        assert np.abs(gram - want).max() <= 1e-12 * np.abs(want).max()
        want = (X.T * w) @ y
        assert np.abs(moment - want).max() <= 1e-12 * np.abs(want).max()
        assert not weighted_gram(X, w)[1].any()
        # several weight vectors at once, as one stacked product
        stacked = np.stack([w, 1.0 - w, np.zeros(n)])
        grams, moments = weighted_gram(X, stacked, y)
        assert grams.shape == (3, 19, 19) and moments.shape == (3, 19)
        for gram, moment, w in zip(grams, moments, stacked):
            want = (X.T * w) @ X
            assert np.abs(gram - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)
            want = (X.T * w) @ y
            assert np.abs(moment - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)


class TestStreamedAgreesWithWholeDesign:
    """The block-by-block fits against the same methods on the whole design:
    the sums only change order, so parameters and scores agree to rounding."""

    @staticmethod
    def assert_agree(ds):
        propensity, outcome = fit_propensity(ds), fit_outcome(ds)
        weights, n_steps = oracle_newton_propensity(ds)
        coefs = oracle_outcome_coefs(ds)
        scores = compute_dr_scores(ds, propensity, outcome).scores
        assert propensity.n_iterations == n_steps
        for got, want in [(propensity.weights, weights), (outcome.coefs, coefs),
                          (scores, oracle_dr_scores(ds, weights, coefs, 0.01))]:
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    @pytest.mark.parametrize("n, m", [(300, 3), (GRAM_BLOCK, 2), (2 * GRAM_BLOCK + 77, 3),
                                      (3 * GRAM_BLOCK, 2)])
    def test_random_data(self, n, m):
        self.assert_agree(random_dataset(np.random.default_rng(n), n_subjects=n,
                                         n_features=6, m=m))

    def test_benchmark_generator_data(self):
        self.assert_agree(generate(default_generator_spec(
            n_subjects=2 * GRAM_BLOCK + 1, seed=3, confounding_strength=0.5))[0])


class TestFitMemory:
    """A fit streams its design in blocks and never holds it whole, let alone
    a second design-sized array: a ``(design.T * w)`` product doubles the
    design (9.5 (n, m) arrays at d + 1 = 19, m = 2), and an arm's
    ``design[rows]`` adds its share of it."""

    def test_fit_and_scores_peak_below_half_the_design(self):
        # what `fit` runs, at 50k rows: its peak is the (n, m) score matrix
        # and a few blocks' temporaries, below half of the (n, d + 1) design
        ds = generate(default_generator_spec(n_subjects=50_000, seed=0))[0]
        design_bytes = ds.n_subjects * (len(FeatureEncoder.fit(ds).columns) + 1) * 8
        tracemalloc.start()
        try:
            outcome = fit_outcome(ds)
            scores = compute_dr_scores(ds, fit_propensity(ds), outcome)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scores.scores.shape == (ds.n_subjects, ds.n_treatments)
        assert peak < design_bytes / 2

    @pytest.fixture(scope="class")
    def ds(self):
        return generate(default_generator_spec(n_subjects=20_000, seed=0))[0]

    # (n, m) float64 arrays each fit may hold besides a design: the bounds
    # of fits that built one; a streamed fit holds far less
    @pytest.mark.parametrize("fit, n_by_m", [(fit_propensity, 7), (fit_outcome, 3)])
    def test_peak_is_the_design_and_a_few_score_sized_arrays(self, ds, fit, n_by_m):
        design_bytes = ds.n_subjects * (len(FeatureEncoder.fit(ds).columns) + 1) * 8
        tracemalloc.start()
        try:
            fit(ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < design_bytes + n_by_m * ds.n_subjects * ds.n_treatments * 8
