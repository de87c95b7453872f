"""Acceptance gate: eight end-to-end correctness and performance criteria.

Each test prints one PASS/FAIL line on the real terminal (bypassing pytest
capture) so the gate's verdict is visible in any log.
"""
from __future__ import annotations

import dataclasses
import json
import time

import numpy as np
import pytest

from regimelist.cli import main as cli_main
from regimelist.domain import (
    DecisionList,
    assessment_cost_vector,
    assign,
    billed_characteristics_vector,
    partition,
    treatment_cost_vector,
)
from regimelist.estimation import (
    compute_dr_scores,
    encode_features,
    fit_outcome,
    fit_propensity,
    propensity_loglik,
    propensity_loglik_grad,
)
from regimelist.mining import MiningConfig, mine_patterns
from regimelist.objective import (
    ObjectiveWeights,
    compute_metrics,
    estimated_outcome,
    objective_value,
)
from regimelist.search import (
    SearchConfig,
    exhaustive_search,
    greedy_baseline,
    uct_search,
)
from regimelist.synth import default_generator_spec, generate, true_value

from conftest import (
    oracle_assessment_costs,
    oracle_assigned,
    oracle_groups,
    random_dataset,
    random_decision_list,
    random_scores,
    random_weights,
)


def report(capsys, n: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")


# ---------------------------------------------------------------------------
# shared oracle instances for criteria 3, 4, and 7


def build_oracle_instances():
    """20 seeded instances with <= 8 candidate patterns, m = 2, L_max <= 3."""
    instances = []
    seed = 200
    while len(instances) < 20:
        rng = np.random.default_rng(seed)
        seed += 1
        ds = random_dataset(
            rng,
            n_subjects=int(rng.integers(60, 140)),
            n_features=int(rng.integers(3, 6)),
            m=2,
        )
        try:
            cands = mine_patterns(
                ds, MiningConfig(min_support=0.15, max_predicates=2, num_bins=3)
            )
        except Exception:
            continue
        n_patterns = (4, 6, 8)[len(instances) % 3]
        if len(cands) < n_patterns:
            continue
        cands = dataclasses.replace(
            cands,
            patterns=cands.patterns[:n_patterns],
            counts=cands.counts[:n_patterns],
        )
        instances.append(
            {
                "ds": ds,
                "cands": cands,
                "scores": random_scores(rng, ds),
                "weights": random_weights(rng),
                "L_max": (1, 2, 3)[len(instances) % 3],
                "seed": seed,
            }
        )
    return instances


@pytest.fixture(scope="module")
def oracle_instances():
    return build_oracle_instances()


@pytest.fixture(scope="module")
def exhaustive_results(oracle_instances):
    """(pruned, unpruned) exhaustive runs per instance."""
    out = []
    for inst in oracle_instances:
        off = exhaustive_search(
            inst["ds"], inst["scores"], inst["cands"], inst["weights"],
            L_max=inst["L_max"], use_bound=False,
        )
        on = exhaustive_search(
            inst["ds"], inst["scores"], inst["cands"], inst["weights"],
            L_max=inst["L_max"], use_bound=True,
        )
        out.append((on, off))
    return out


# ---------------------------------------------------------------------------


def test_criterion_1_regime_semantics_exact(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    n_pairs = 200
    for _ in range(n_pairs):
        ds = random_dataset(
            rng,
            n_subjects=int(rng.integers(1, 101)),
            n_features=int(rng.integers(2, 6)),
            m=int(rng.integers(2, 4)),
        )
        dl = random_decision_list(rng, ds, max_rules=5)
        ga = partition(ds, dl)
        assert ga.group_of.tolist() == oracle_groups(ds, dl)
        assert assign(ds, dl).tolist() == oracle_assigned(ds, dl)
        for full in (False, True):
            got = assessment_cost_vector(ds, dl, charge_default_full=full)
            assert got.tolist() == oracle_assessment_costs(ds, dl, full)
        # treatment cost and billed-characteristic count per subject
        assigned = oracle_assigned(ds, dl)
        want_phi = [float(ds.treatment_costs[a]) for a in assigned]
        assert treatment_cost_vector(ds, dl).tolist() == want_phi
        groups = oracle_groups(ds, dl)
        cum = dl.cumulative_features()
        want_counts = [
            float(len(cum[g])) if g < len(dl.rules) else 0.0 for g in groups
        ]
        assert billed_characteristics_vector(ds, dl).tolist() == want_counts
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    report(capsys, 1, ok,
           f"{n_pairs} random regimes match brute force exactly "
           f"({elapsed:.2f}s, budget 5s)")
    assert ok, f"criterion 1 exceeded its runtime budget: {elapsed:.2f}s"


def test_criterion_2_dr_estimator_consistency(capsys):
    t0 = time.perf_counter()
    base = default_generator_spec(n_subjects=5000, seed=0,
                                  confounding_strength=0.0)
    planted = base.planted_regime
    lists = {
        "planted": planted,
        "one-rule": DecisionList(rules=planted.rules[:1],
                                 default_treatment=planted.default_treatment),
        "always-controller": DecisionList(
            rules=(), default_treatment=1 - planted.default_treatment),
    }
    truth = {k: true_value(base, dl) for k, dl in lists.items()}
    n_reps = 100
    hits = {k: 0 for k in lists}
    for rep in range(n_reps):
        gspec = dataclasses.replace(base, seed=1000 + rep)
        ds, _ = generate(gspec)
        scores = compute_dr_scores(ds, fit_propensity(ds), fit_outcome(ds))
        for key, dl in lists.items():
            assigned = assign(ds, dl)
            picked = scores.scores[np.arange(ds.n_subjects), assigned]
            g1 = estimated_outcome(ds, dl, scores)
            se = float(np.std(picked, ddof=1) / np.sqrt(ds.n_subjects))
            if abs(g1 - truth[key]) <= 3 * se:
                hits[key] += 1
    elapsed = time.perf_counter() - t0
    ok = all(h >= 95 for h in hits.values()) and elapsed < 120.0
    report(capsys, 2, ok,
           f"3-SE coverage over {n_reps} replications: "
           + ", ".join(f"{k}={v}" for k, v in hits.items())
           + f" (need >=95 each; {elapsed:.0f}s, budget 120s)")
    assert all(h >= 95 for h in hits.values()), hits
    assert elapsed < 120.0, f"criterion 2 exceeded its runtime budget: {elapsed:.0f}s"


def test_criterion_3_uct_matches_exhaustive_oracle(capsys, oracle_instances,
                                                   exhaustive_results):
    t0 = time.perf_counter()
    matches = 0
    greedy_ok = True
    for inst, (on, _) in zip(oracle_instances, exhaustive_results):
        cfg = SearchConfig(iterations=10000, L_max=inst["L_max"],
                           seed=inst["seed"], min_new_coverage=0.0)
        res = uct_search(inst["ds"], inst["scores"], inst["cands"],
                         inst["weights"], cfg)
        if abs(res.objective - on.objective) <= 1e-9:
            matches += 1
        g = greedy_baseline(inst["ds"], inst["scores"], inst["cands"],
                            inst["weights"], L_max=inst["L_max"])
        if g.objective > on.objective + 1e-12:
            greedy_ok = False
    elapsed = time.perf_counter() - t0
    ok = matches >= 19 and greedy_ok and elapsed < 180.0
    report(capsys, 3, ok,
           f"uct matched the exhaustive optimum on {matches}/20 instances "
           f"(need >=19), greedy never above oracle: {greedy_ok} "
           f"({elapsed:.0f}s, budget 180s)")
    assert matches >= 19
    assert greedy_ok
    assert elapsed < 180.0, f"criterion 3 exceeded its runtime budget: {elapsed:.0f}s"


def test_criterion_4_pruning_soundness(capsys, exhaustive_results):
    identical = all(
        abs(on.objective - off.objective) <= 1e-12
        and on.decision_list == off.decision_list
        for on, off in exhaustive_results
    )
    n_pruning = sum(1 for on, _ in exhaustive_results if on.n_pruned >= 1)
    ok = identical and n_pruning >= 10
    report(capsys, 4, ok,
           f"bound pruning preserved the optimum on 20/20 instances, "
           f"pruned nodes on {n_pruning}/20 (need >=10)")
    assert identical
    assert n_pruning >= 10


def test_criterion_5_ground_truth_recovery(capsys):
    t0 = time.perf_counter()
    gspec = default_generator_spec(n_subjects=10000)
    ds, truth = generate(gspec)
    scores = compute_dr_scores(ds, fit_propensity(ds), fit_outcome(ds))
    weights = ObjectiveWeights()
    cands = mine_patterns(ds, MiningConfig(min_support=0.05, max_predicates=2))
    res = uct_search(ds, scores, cands, weights,
                     SearchConfig(iterations=3000, L_max=3, seed=1))
    # oracle: the planted regime scored by the same empirical objective
    oracle_obj = objective_value(ds, truth.planted_regime, scores, weights)
    ratio = res.objective / oracle_obj

    metha = ds.feature_index("methacholine")
    planted_pos = min(
        k for k, (pat, _) in enumerate(truth.planted_regime.rules, start=1)
        if metha in pat.features
    )
    learned_pos = [
        k for k, (pat, _) in enumerate(res.decision_list.rules, start=1)
        if metha in pat.features
    ]
    pos_ok = all(k >= planted_pos for k in learned_pos)
    elapsed = time.perf_counter() - t0
    ok = ratio >= 0.95 and pos_ok and elapsed < 300.0
    report(capsys, 5, ok,
           f"learned/oracle objective = {ratio:.4f} (need >=0.95), "
           f"expensive-feature positions {learned_pos or 'absent'} vs planted "
           f"{planted_pos} ({elapsed:.0f}s, budget 300s)")
    assert ratio >= 0.95
    assert pos_ok
    assert elapsed < 300.0, f"criterion 5 exceeded its runtime budget: {elapsed:.0f}s"


def test_criterion_6_numerical_model_checks(capsys):
    rng = np.random.default_rng(6)
    # propensity gradient vs central finite differences
    worst_grad = 0.0
    for _ in range(10):
        ds = random_dataset(
            rng,
            n_subjects=int(rng.integers(20, 45)),
            n_features=int(rng.integers(2, 5)),
            m=int(rng.integers(2, 4)),
        )
        design = np.column_stack([encode_features(ds),
                                  np.ones(ds.n_subjects)])
        W = rng.normal(0, 0.5, size=(ds.n_treatments, design.shape[1]))
        _, grad = propensity_loglik_grad(W, design, ds.treatments, 1e-4)
        h = 1e-6
        for r in range(W.shape[0]):
            for c in range(W.shape[1]):
                Wp, Wm = W.copy(), W.copy()
                Wp[r, c] += h
                Wm[r, c] -= h
                fd = (propensity_loglik(Wp, design, ds.treatments, 1e-4)
                      - propensity_loglik(Wm, design, ds.treatments, 1e-4)) / (2 * h)
                worst_grad = max(
                    worst_grad,
                    abs(fd - grad[r, c]) / max(abs(grad[r, c]), 1e-3),
                )
    grad_ok = worst_grad <= 1e-5

    # outcome regression vs a dense solve
    worst_beta = 0.0
    for _ in range(5):
        ds = random_dataset(rng, n_subjects=80, n_features=4, m=2)
        model = fit_outcome(ds, ridge=1e-6)
        design = np.column_stack([encode_features(ds), np.ones(ds.n_subjects)])
        for a in range(ds.n_treatments):
            sel = ds.treatments == a
            reg = 1e-6 * np.eye(design.shape[1])
            reg[-1, -1] = 0.0
            beta = np.linalg.solve(
                design[sel].T @ design[sel] + reg, design[sel].T @ ds.outcomes[sel]
            )
            worst_beta = max(worst_beta, float(np.max(np.abs(beta - model.coefs[a]))))
    outcome_ok = worst_beta <= 1e-8

    # pre-clip propensity rows are a probability distribution
    gspec = default_generator_spec(n_subjects=2000, seed=3,
                                   confounding_strength=0.5)
    ds, _ = generate(gspec)
    raw = fit_propensity(ds).predict_proba_raw(ds)
    row_dev = float(np.max(np.abs(raw.sum(axis=1) - 1.0)))
    rows_ok = row_dev <= 1e-10

    ok = grad_ok and outcome_ok and rows_ok
    report(capsys, 6, ok,
           f"gradient rel err {worst_grad:.2e} (<=1e-5), outcome dense-solve "
           f"err {worst_beta:.2e} (<=1e-8), propensity row-sum dev "
           f"{row_dev:.2e} (<=1e-10)")
    assert grad_ok and outcome_ok and rows_ok


def test_criterion_7_objective_algebra(capsys, oracle_instances):
    # metrics identity on a batch of random regimes
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        ds = random_dataset(rng, n_subjects=int(rng.integers(2, 80)))
        dl = random_decision_list(rng, ds)
        scores = random_scores(rng, ds)
        w = random_weights(rng)
        rep = compute_metrics(ds, dl, scores, w)
        recombined = (w.lambda1 * rep.estimated_outcome
                      - w.lambda2 * rep.mean_assessment_cost
                      - w.lambda3 * rep.mean_treatment_cost)
        worst = max(worst, abs(rep.objective - recombined))
    identity_ok = worst <= 1e-12

    # doubling every lambda scales the objective exactly, so the exhaustive
    # argmax cannot move
    stable = 0
    for inst in oracle_instances:
        w = inst["weights"]
        scaled = ObjectiveWeights(2 * w.lambda1, 2 * w.lambda2, 2 * w.lambda3)
        a = exhaustive_search(inst["ds"], inst["scores"], inst["cands"], w,
                              L_max=inst["L_max"])
        b = exhaustive_search(inst["ds"], inst["scores"], inst["cands"], scaled,
                              L_max=inst["L_max"])
        if a.decision_list == b.decision_list:
            stable += 1
    scaling_ok = stable == len(oracle_instances)

    ok = identity_ok and scaling_ok
    report(capsys, 7, ok,
           f"metrics identity max dev {worst:.2e} (<=1e-12), scaled-weight "
           f"argmax stable on {stable}/{len(oracle_instances)} instances")
    assert identity_ok and scaling_ok


def test_criterion_8_cli_reproducibility(capsys, tmp_path):
    def run(out):
        out.mkdir()
        o = str(out)
        assert cli_main(["generate", "--n", "1000", "--seed", "11",
                         "--out-dir", o]) == 0
        data = ["--schema", f"{o}/schema.json", "--data", f"{o}/data.csv"]
        assert cli_main(["mine", *data, "--min-support", "0.1",
                         "--max-predicates", "2", "--out-dir", o]) == 0
        assert cli_main(["fit", *data, "--out-dir", o]) == 0
        assert cli_main(["learn", *data,
                         "--candidates", f"{o}/candidates.json",
                         "--scores", f"{o}/scores.json",
                         "--strategy", "uct", "--iterations", "200",
                         "--l-max", "3", "--seed", "4", "--out-dir", o]) == 0
        assert cli_main(["evaluate", *data,
                         "--regime", f"{o}/regime.json",
                         "--scores", f"{o}/scores.json", "--out-dir", o]) == 0

    run(tmp_path / "a")
    run(tmp_path / "b")
    checked = ("data.csv", "candidates.json", "scores.json", "regime.json",
               "regime.txt", "search_log.jsonl", "metrics.json", "metrics.txt")
    differing = [
        name for name in checked
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()
    ]
    ok = not differing
    report(capsys, 8, ok,
           "two identically-seeded pipeline runs are byte-identical "
           f"across {len(checked)} artifacts"
           + (f" (differs: {differing})" if differing else ""))
    assert ok, f"artifacts differ between identical runs: {differing}"
