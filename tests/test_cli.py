"""End-to-end command-line pipeline behavior."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import regimelist
from regimelist.cli import main
from regimelist.io import read_json


def run_pipeline(tmp_path, n=1200, seed=5, iterations=150, strategy="uct",
                 mine_args=(), learn_args=()):
    out = str(tmp_path)
    assert main(["generate", "--n", str(n), "--seed", str(seed),
                 "--out-dir", out]) == 0
    return run_steps(out, f"{out}/schema.json", f"{out}/data.csv", iterations, strategy,
                     mine_args, learn_args)


def run_steps(out, schema, data_csv, iterations=150, strategy="uct", mine_args=(),
              learn_args=()):
    """mine, fit, learn and evaluate on one dataset, writing into out."""
    data = ["--schema", schema, "--data", data_csv]
    assert main(["mine", *data, "--min-support", "0.1",
                 "--max-predicates", "2", "--out-dir", out, *mine_args]) == 0
    assert main(["fit", *data, "--out-dir", out]) == 0
    assert main(["learn", *data,
                 "--candidates", f"{out}/candidates.json",
                 "--scores", f"{out}/scores.json",
                 "--strategy", strategy,
                 "--iterations", str(iterations),
                 "--l-max", "3", "--seed", "1",
                 "--out-dir", out, *learn_args]) == 0
    assert main(["evaluate", *data,
                 "--regime", f"{out}/regime.json",
                 "--scores", f"{out}/scores.json",
                 "--out-dir", out]) == 0
    return out


class TestPipeline:
    def test_end_to_end_files_and_consistency(self, tmp_path):
        out = run_pipeline(tmp_path)
        for name in ("schema.json", "data.csv", "ground_truth.json",
                      "candidates.json", "propensity.json", "outcome.json",
                      "scores.json", "regime.json", "regime.txt",
                      "search_log.jsonl", "metrics.json", "metrics.txt"):
            assert (tmp_path / name).exists(), name
        regime = read_json(f"{out}/regime.json")
        metrics = read_json(f"{out}/metrics.json")
        # learn reports its incumbent through the same objective code path
        # evaluate uses, so the two must agree to near machine precision
        assert abs(regime["objective"] - metrics["objective"]) <= 1e-12
        # UCT's pruning counts by reason add up to n_pruned; its leaves
        # include the full prefixes, each scored from lo or confirmed
        # exactly (iteration 1 takes a closing child of the root)
        by_reason = regime["n_pruned_by_reason"]
        assert set(by_reason) == {"hi", "lo", "node"} and by_reason["lo"] == 0
        assert sum(by_reason.values()) == regime["n_pruned"]
        assert regime["n_leaves_from_lo"] > 0
        assert 0 <= regime["n_leaves_confirmed"] < regime["tree_size"] - 1

    def test_greedy_strategy(self, tmp_path):
        out = run_pipeline(tmp_path, strategy="greedy")
        regime = read_json(f"{out}/regime.json")
        assert regime["strategy"] == "greedy"
        metrics = read_json(f"{out}/metrics.json")
        assert abs(regime["objective"] - metrics["objective"]) <= 1e-12
        # greedy reports what its bound pruned, as the library counts it
        schema = regimelist.read_schema(f"{out}/schema.json")
        ds = regimelist.read_dataset(f"{out}/data.csv", schema)
        cands = regimelist.CandidateSet.from_dict(read_json(f"{out}/candidates.json"),
                                                  ds.specs)
        result = regimelist.greedy_baseline(ds, regimelist.read_scores(f"{out}/scores.json"),
                                            cands, config=regimelist.SearchConfig(L_max=3))
        assert regime["n_pruned"] == result.n_pruned > 0
        assert regime["n_pruned_by_reason"] == result.pruned
        assert result.pruned["lo"] > 0 and result.pruned["node"] == 0
        assert regime["decision_list"] == regimelist.decision_list_to_dict(
            result.decision_list, ds.specs, ds.treatment_names)

    def test_search_log_is_jsonl_with_monotone_incumbent(self, tmp_path):
        out = run_pipeline(tmp_path)
        rows = [json.loads(line)
                for line in Path(out, "search_log.jsonl").read_text().splitlines()]
        assert len(rows) >= 1
        objs = [r["incumbent_objective"] for r in rows
                if r["incumbent_objective"] is not None]
        assert all(b >= a for a, b in zip(objs, objs[1:]))

    def test_rerun_reproduces_outputs_byte_for_byte(self, tmp_path):
        a = run_pipeline(tmp_path / "a")
        b = run_pipeline(tmp_path / "b")
        for name in ("data.csv", "regime.json", "regime.txt", "metrics.json",
                      "metrics.txt", "search_log.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_crlf_data_gives_the_same_outputs_byte_for_byte(self, tmp_path):
        # a CRLF file is not plain, so csv.reader reads it for every step
        lf, crlf = tmp_path / "lf", tmp_path / "crlf"
        run_pipeline(lf, n=3000)
        crlf.mkdir()
        (crlf / "data.csv").write_bytes((lf / "data.csv").read_bytes().replace(b"\n", b"\r\n"))
        schema = str(lf / "schema.json")
        with pytest.raises(regimelist.io._NotPlain):
            regimelist.io._read_plain(crlf / "data.csv", regimelist.read_schema(schema))
        run_steps(str(crlf), schema, str(crlf / "data.csv"))
        for name in ("candidates.json", "scores.json", "regime.json", "search_log.jsonl",
                     "metrics.json"):
            assert (crlf / name).read_bytes() == (lf / name).read_bytes(), name

    def test_config_file_supplies_defaults_flags_override(self, tmp_path):
        out = str(tmp_path)
        assert main(["generate", "--n", "600", "--seed", "2",
                     "--out-dir", out]) == 0
        data = ["--schema", f"{out}/schema.json", "--data", f"{out}/data.csv"]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "mining": {"min_support": 0.2, "max_predicates": 1},
            "weights": {"lambda1": 1.0, "lambda2": 0.5, "lambda3": 0.25},
            "search": {"iterations": 80, "L_max": 2, "seed": 3},
        }))
        assert main(["mine", *data, "--config", str(cfg),
                     "--out-dir", out]) == 0
        cands = read_json(f"{out}/candidates.json")
        assert cands["config"]["min_support"] == 0.2
        assert cands["config"]["max_predicates"] == 1
        assert main(["fit", *data, "--out-dir", out]) == 0
        assert main(["learn", *data, "--config", str(cfg),
                     "--candidates", f"{out}/candidates.json",
                     "--scores", f"{out}/scores.json",
                     "--strategy", "uct", "--out-dir", out]) == 0
        regime = read_json(f"{out}/regime.json")
        assert regime["search"]["iterations"] == 80
        assert regime["weights"]["lambda2"] == 0.5
        # a flag should win over the config file
        assert main(["learn", *data, "--config", str(cfg),
                     "--candidates", f"{out}/candidates.json",
                     "--scores", f"{out}/scores.json",
                     "--strategy", "uct", "--iterations", "40",
                     "--out-dir", out]) == 0
        assert read_json(f"{out}/regime.json")["search"]["iterations"] == 40


class TestEvaluate:
    def test_bare_decision_list_file_accepted(self, tmp_path):
        out = run_pipeline(tmp_path, n=800)
        regime = read_json(f"{out}/regime.json")
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(regime["decision_list"]))
        data = ["--schema", f"{out}/schema.json", "--data", f"{out}/data.csv"]
        assert main(["evaluate", *data, "--regime", str(bare),
                     "--scores", f"{out}/scores.json",
                     "--out-dir", str(tmp_path / "eval2")]) == 0
        m1 = read_json(f"{out}/metrics.json")
        m2 = read_json(str(tmp_path / "eval2" / "metrics.json"))
        assert m1["objective"] == m2["objective"]

    def test_empty_regime_has_zero_assessment_cost(self, tmp_path):
        out = run_pipeline(tmp_path, n=800)
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps(
            {"rules": [], "default_treatment": "controller"}))
        data = ["--schema", f"{out}/schema.json", "--data", f"{out}/data.csv"]
        assert main(["evaluate", *data, "--regime", str(empty),
                     "--scores", f"{out}/scores.json",
                     "--out-dir", str(tmp_path / "eval3")]) == 0
        metrics = read_json(str(tmp_path / "eval3" / "metrics.json"))
        assert metrics["mean_assessment_cost"] == 0.0
        assert metrics["avg_num_characteristics"] == 0.0

    @pytest.mark.parametrize("strategy", ["uct", "greedy"])
    def test_charge_default_full_in_learn_and_evaluate(self, tmp_path, strategy):
        out = run_pipeline(tmp_path, n=3000, strategy=strategy,
                           learn_args=["--charge-default-full"])
        regime = read_json(f"{out}/regime.json")
        assert regime["search"]["charge_default_full"] is True
        # run_pipeline learns with --l-max 3
        assert 0 < len(regime["decision_list"]["rules"]) <= 3
        full = tmp_path / "full"
        assert main(["evaluate", "--schema", f"{out}/schema.json", "--data", f"{out}/data.csv",
                     "--regime", f"{out}/regime.json", "--scores", f"{out}/scores.json",
                     "--charge-default-full", "--out-dir", str(full)]) == 0
        assert read_json(str(full / "metrics.json"))["objective"] == regime["objective"]
        # run_pipeline's own evaluate bills the default group nothing
        assert read_json(f"{out}/metrics.json")["objective"] > regime["objective"]


@pytest.fixture(scope="module")
def learned_run(tmp_path_factory):
    """Every input file a step can read, from one small pipeline run."""
    return run_pipeline(tmp_path_factory.mktemp("run"), n=600, iterations=20)


class TestExhaustiveStrategy:
    def test_limit_refused_then_small_set_solved(self, learned_run, tmp_path,
                                                 capsys):
        out = learned_run
        data = ["--schema", f"{out}/schema.json", "--data", f"{out}/data.csv"]
        learn = ["learn", *data, "--scores", f"{out}/scores.json",
                 "--strategy", "exhaustive", "--l-max", "3",
                 "--out-dir", str(tmp_path)]
        assert main([*learn, "--candidates", f"{out}/candidates.json"]) == 3
        assert "exceeds the exhaustive limit" in capsys.readouterr().err
        cands = read_json(f"{out}/candidates.json")
        cands["patterns"] = cands["patterns"][:8]
        few = tmp_path / "few.json"
        few.write_text(json.dumps(cands))
        assert main([*learn, "--candidates", str(few)]) == 0
        regime = read_json(str(tmp_path / "regime.json"))
        assert regime["strategy"] == "exhaustive"
        assert regime["n_evaluated"] > 0 and regime["n_pruned"] >= 0
        assert regime["n_pruned_by_reason"] == {"hi": regime["n_pruned"], "lo": 0, "node": 0}
        assert main(["evaluate", *data, "--regime", str(tmp_path / "regime.json"),
                     "--scores", f"{out}/scores.json",
                     "--out-dir", str(tmp_path)]) == 0
        metrics = read_json(str(tmp_path / "metrics.json"))
        assert abs(regime["objective"] - metrics["objective"]) <= 1e-12

    @pytest.mark.parametrize("flags, L_max, full", [
        ([], 4, False),
        (["--charge-default-full", "--l-max", "2"], 2, True),
    ])
    def test_small_set_takes_l_max_and_charge_from_the_search_config(
            self, learned_run, tmp_path, flags, L_max, full):
        # the default L_max is within the exhaustive limit, and the search
        # config's L_max and default charge reach the solver
        out = learned_run
        data = ["--schema", f"{out}/schema.json", "--data", f"{out}/data.csv"]
        cands = read_json(f"{out}/candidates.json")
        cands["patterns"] = cands["patterns"][:8]
        few = tmp_path / "few.json"
        few.write_text(json.dumps(cands))
        assert main(["learn", *data, "--scores", f"{out}/scores.json",
                     "--candidates", str(few), "--strategy", "exhaustive",
                     "--out-dir", str(tmp_path), *flags]) == 0
        regime = read_json(str(tmp_path / "regime.json"))
        assert regime["search"]["L_max"] == L_max
        assert regime["search"]["charge_default_full"] is full
        assert len(regime["decision_list"]["rules"]) <= L_max
        charge = ["--charge-default-full"] if full else []
        assert main(["evaluate", *data, "--regime", str(tmp_path / "regime.json"),
                     "--scores", f"{out}/scores.json", *charge,
                     "--out-dir", str(tmp_path)]) == 0
        assert read_json(str(tmp_path / "metrics.json"))["objective"] == regime["objective"]


@pytest.mark.parametrize("strategy", ["uct", "greedy"])
def test_l_max_beyond_int64_learns(learned_run, tmp_path, strategy):
    # an L_max beyond numpy's int64 must reach no numpy integer
    out = learned_run
    data = ["--schema", f"{out}/schema.json", "--data", f"{out}/data.csv"]
    assert main(["learn", *data, "--candidates", f"{out}/candidates.json",
                 "--scores", f"{out}/scores.json", "--strategy", strategy,
                 "--iterations", "20", "--l-max", str(10 ** 20),
                 "--out-dir", str(tmp_path)]) == 0
    assert read_json(str(tmp_path / "regime.json"))["strategy"] == strategy


class TestExitCodes:
    @pytest.mark.parametrize("step, config, key", [
        ("learn", {"search": {"iterations": "5"}}, "iterations"),
        ("learn", {"search": {"iteratons": 5}}, "iteratons"),
        ("learn", {"search": {"rollout": "greedy"}}, "rollout"),
        ("learn", {"weights": {"lambda1": "x"}}, "lambda1"),
        ("mine", {"mining": {"min_support": "abc"}}, "min_support"),
        ("fit", {"models": {"l2_reg": "abc"}}, "l2_reg"),
        ("evaluate", {"search": {"charge_default_full": "yes"}},
         "charge_default_full"),
        ("learn", {"weights": {"lambda1": 10 ** 400}}, "lambda1"),
        ("fit", {"models": {"l2_reg": 10 ** 400}}, "l2_reg"),
        ("mine", {"mining": {"num_bins": 10 ** 30}}, "num_bins"),
        ("learn", {"search": {"min_new_coverage": 0.01}}, "min_new_coverage"),
    ])
    def test_bad_config_exits_2(self, learned_run, tmp_path, capsys,
                                step, config, key):
        out = learned_run
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        inputs = {
            "mine": [],
            "fit": [],
            "learn": ["--candidates", f"{out}/candidates.json",
                      "--scores", f"{out}/scores.json"],
            "evaluate": ["--regime", f"{out}/regime.json",
                         "--scores", f"{out}/scores.json"],
        }[step]
        code = main([step, "--schema", f"{out}/schema.json",
                     "--data", f"{out}/data.csv", *inputs,
                     "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and key in err and "Traceback" not in err

    def test_validation_problem_exits_2(self, tmp_path, capsys):
        out = str(tmp_path)
        assert main(["generate", "--n", "300", "--seed", "1",
                     "--out-dir", out]) == 0
        data = ["--schema", f"{out}/schema.json", "--data", f"{out}/data.csv"]
        code = main(["mine", *data, "--min-support", "7.0",
                     "--out-dir", out])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_input_exits_nonzero(self, tmp_path, capsys):
        out = str(tmp_path)
        code = main(["mine", "--schema", f"{out}/nope.json",
                     "--data", f"{out}/nope.csv", "--out-dir", out])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, what", [
        ("--schema", "schema file"), ("--data", "dataset file"),
        ("--candidates", "candidates file"), ("--scores", "scores file"),
        ("--config", "config file"),
    ])
    def test_directory_as_input_file_exits_2(self, learned_run, tmp_path, capsys,
                                             flag, what):
        out = learned_run
        args = {"--schema": f"{out}/schema.json", "--data": f"{out}/data.csv",
                "--candidates": f"{out}/candidates.json",
                "--scores": f"{out}/scores.json"}
        args[flag] = str(tmp_path)
        code = main(["learn", *(x for kv in args.items() for x in kv),
                     "--iterations", "5", "--out-dir", str(tmp_path)])
        assert code == 2
        assert f"error: {what} is not a file: {tmp_path}" in capsys.readouterr().err

    def test_directory_as_regime_file_exits_2(self, learned_run, tmp_path, capsys):
        out = learned_run
        code = main(["evaluate", "--schema", f"{out}/schema.json",
                     "--data", f"{out}/data.csv", "--regime", str(tmp_path),
                     "--scores", f"{out}/scores.json", "--out-dir", str(tmp_path)])
        assert code == 2
        assert f"error: regime file is not a file: {tmp_path}" in capsys.readouterr().err

    def test_unsolvable_mining_exits_3(self, tmp_path, capsys):
        out = str(tmp_path)
        assert main(["generate", "--n", "50", "--seed", "1",
                     "--out-dir", out]) == 0
        data = ["--schema", f"{out}/schema.json", "--data", f"{out}/data.csv"]
        code = main(["mine", *data, "--min-support", "1.0",
                     "--max-predicates", "4", "--out-dir", out])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_corrupt_dataset_exits_2(self, tmp_path, capsys):
        out = str(tmp_path)
        assert main(["generate", "--n", "100", "--seed", "1",
                     "--out-dir", out]) == 0
        bad = tmp_path / "bad.csv"
        lines = (tmp_path / "data.csv").read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0]  # drop the outcome cell
        bad.write_text("\n".join(lines) + "\n")
        code = main(["mine", "--schema", f"{out}/schema.json",
                     "--data", str(bad), "--out-dir", out])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_duplicate_column_exits_2(self, learned_run, tmp_path, capsys):
        out = learned_run
        lines = Path(out, "data.csv").read_text().splitlines()
        header = lines[0].split(",")
        header[header.index("bmi")] = "age"  # bmi values under a second age
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([",".join(header)] + lines[1:]) + "\n")
        code = main(["mine", "--schema", f"{out}/schema.json",
                     "--data", str(bad), "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 1: duplicate column 'age'" in err
        assert "Traceback" not in err

    def test_singular_outcome_fit_exits_3(self, learned_run, tmp_path, capsys):
        out = learned_run
        lines = Path(out, "data.csv").read_text().splitlines()
        k = lines[0].split(",").index("temperature")
        for i in range(1, len(lines)):
            cells = lines[i].split(",")
            cells[k] = "37.0"  # a constant column encodes to all zeros
            lines[i] = ",".join(cells)
        flat = tmp_path / "flat.csv"
        flat.write_text("\n".join(lines) + "\n")
        args = ["fit", "--schema", f"{out}/schema.json", "--data", str(flat),
                "--out-dir", str(tmp_path)]
        assert main([*args, "--ridge", "0"]) == 3
        assert "normal equations are singular" in capsys.readouterr().err
        assert main(args) == 0

    @pytest.mark.parametrize("column, cell", [
        ("outcome", "inf"), ("age", "inf"), ("age", "-inf"),
        ("bmi", "1e400"), ("outcome", "nan"),
    ])
    def test_non_finite_cell_exits_2(self, learned_run, tmp_path, capsys,
                                     column, cell):
        out = learned_run
        lines = Path(out, "data.csv").read_text().splitlines()
        k = lines[0].split(",").index(column)
        cells = lines[2].split(",")
        cells[k] = cell
        lines[2] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["fit", "--schema", f"{out}/schema.json",
                     "--data", str(bad), "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"line 3, column {column!r}: non-finite value {cell!r}" in err

    @pytest.mark.parametrize("flag, content", [
        ("--config", b"\xff"),
        ("--config", b"[" * 100_000 + b"]" * 100_000),
        ("--config", b'{"mining": {"num_bins": ' + b"9" * 5000 + b"}}"),
        ("--scores", b'{"treatment_names": ["caf\xe9"]}'),
    ], ids=["config-0xff", "config-deep", "config-5000-digits", "scores-0xe9"])
    def test_unreadable_json_exits_2(self, learned_run, tmp_path, capsys,
                                     flag, content):
        out = learned_run
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        step = {"--config": ["mine"],
                "--scores": ["learn", "--candidates", f"{out}/candidates.json"]}[flag]
        code = main([*step, "--schema", f"{out}/schema.json", "--data", f"{out}/data.csv",
                     flag, str(bad), "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: invalid JSON" in err and "Traceback" not in err

    @pytest.mark.parametrize("cell, want", [
        ("f\u00e9male", "not UTF-8 text"),
        ("x" * 131_073, "line 3: field larger than field limit"),
    ], ids=["latin-1", "long-field"])
    def test_unreadable_csv_exits_2(self, learned_run, tmp_path, capsys, cell, want):
        out = learned_run
        lines = Path(out, "data.csv").read_text(encoding="utf-8").splitlines()
        k = lines[0].split(",").index("gender")
        cells = lines[2].split(",")
        cells[k] = cell
        lines[2] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
        code = main(["fit", "--schema", f"{out}/schema.json", "--data", str(bad),
                     "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: {want}" in err and "Traceback" not in err

    @pytest.mark.parametrize("step", ["learn", "evaluate"])
    @pytest.mark.parametrize("case", ["no_key", "string", "ragged",
                                      "top_level_list", "nan", "huge_int"])
    def test_bad_scores_file_exits_2(self, learned_run, tmp_path, capsys,
                                     step, case):
        out = learned_run
        d = read_json(f"{out}/scores.json")
        if case == "no_key":
            del d["scores"]
        elif case == "string":
            d["scores"] = "abc"
        elif case == "ragged":
            d["scores"][0].pop()
        elif case == "top_level_list":
            d = []
        elif case == "nan":
            d["scores"][0][0] = float("nan")
        else:
            d["scores"][0][0] = 10 ** 400
        bad = tmp_path / "scores.json"
        bad.write_text(json.dumps(d))
        inputs = {"learn": ["--candidates", f"{out}/candidates.json"],
                  "evaluate": ["--regime", f"{out}/regime.json"]}[step]
        code = main([step, "--schema", f"{out}/schema.json",
                     "--data", f"{out}/data.csv", *inputs,
                     "--scores", str(bad), "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "malformed score matrix" in err and "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        ("bins", []), ("bins", {"age": [30.0, "abc"]}),
        ("config", []), ("n_subjects", "many"),
        ("n_subjects", 1e400), ("bins", {"age": [10 ** 400]}),
        ("patterns", [{"predicates": [{"feature": "gender", "op": "=",
                                       "value": "male"}], "count": 1e400}]),
    ])
    def test_bad_candidates_file_exits_2(self, learned_run, tmp_path, capsys,
                                         key, value):
        out = learned_run
        d = read_json(f"{out}/candidates.json")
        d[key] = value
        bad = tmp_path / "candidates.json"
        bad.write_text(json.dumps(d))
        code = main(["learn", "--schema", f"{out}/schema.json",
                     "--data", f"{out}/data.csv", "--candidates", str(bad),
                     "--scores", f"{out}/scores.json",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "malformed candidate set" in err and "Traceback" not in err

    @pytest.mark.parametrize("step", ["learn", "evaluate"])
    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), 10 ** 400],
                             ids=["nan", "inf", "huge_int"])
    def test_non_finite_threshold_exits_2(self, learned_run, tmp_path, capsys,
                                          step, threshold):
        out = learned_run
        pattern = [{"feature": "age", "op": ">=", "value": threshold}]
        if step == "learn":
            d = read_json(f"{out}/candidates.json")
            d["patterns"] = [{"predicates": pattern, "count": 1}]
        else:
            d = {"rules": [{"pattern": pattern, "treatment": "controller"}],
                 "default_treatment": "quick_relief"}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        inputs = {"learn": ["--candidates", str(bad)],
                  "evaluate": ["--regime", str(bad)]}[step]
        code = main([step, "--schema", f"{out}/schema.json",
                     "--data", f"{out}/data.csv", *inputs,
                     "--scores", f"{out}/scores.json", "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: real 'age' requires a finite numeric threshold" in err

    @pytest.mark.parametrize("step, flags, want", [
        ("generate", ["--n", str(10 ** 15)], 3),
        ("mine", ["--num-bins", str(10 ** 15)], 3),
        ("generate", ["--n", str(10 ** 30)], 2),
        ("mine", ["--num-bins", str(10 ** 30)], 2),
        # numpy would raise ValueError at these, or make no quantile at all
        ("generate", ["--n", str(2 ** 62)], 3),
        ("generate", ["--n", str(2 ** 63 - 1)], 3),
        ("mine", ["--num-bins", str(2 ** 62)], 3),
        ("mine", ["--num-bins", str(2 ** 63 - 1)], 3),
    ], ids=["generate-n", "mine-num_bins", "generate-n-beyond-intp",
            "mine-num_bins-beyond-intp", "generate-n-2^62", "generate-n-intp-max",
            "mine-num_bins-2^62", "mine-num_bins-intp-max"])
    def test_unallocatable_size_exits_nonzero(self, learned_run, tmp_path, capsys,
                                              step, flags, want):
        # sizes numpy refuses before it allocates anything
        out = learned_run
        inputs = {"generate": [],
                  "mine": ["--schema", f"{out}/schema.json",
                           "--data", f"{out}/data.csv"]}[step]
        code = main([step, *inputs, *flags, "--out-dir", str(tmp_path)])
        assert code == want
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("step", ["generate", "mine"])
    def test_unknown_config_section_exits_2(self, learned_run, tmp_path,
                                            capsys, step):
        out = learned_run
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"serch": {"iterations": 5}}))
        inputs = {"generate": ["--n", "50"],
                  "mine": ["--schema", f"{out}/schema.json",
                           "--data", f"{out}/data.csv"]}[step]
        code = main([step, *inputs, "--config", str(cfg),
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "'serch'" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["mine", "learn"])
    @pytest.mark.parametrize("where, cost", [
        ("characteristic", float("inf")),
        ("treatment", float("inf")),
        ("treatment", -1.0),
    ])
    def test_bad_schema_cost_exits_2(self, learned_run, tmp_path, capsys,
                                     step, where, cost):
        # refused while reading schema.json, before the CSV is read
        out = learned_run
        d = read_json(f"{out}/schema.json")
        if where == "characteristic":
            d["characteristics"][0]["cost"] = cost
        else:
            d["treatments"][next(iter(d["treatments"]))] = cost
        bad = tmp_path / "schema.json"
        bad.write_text(json.dumps(d))
        inputs = {"mine": [],
                  "learn": ["--candidates", f"{out}/candidates.json",
                            "--scores", f"{out}/scores.json"]}[step]
        code = main([step, "--schema", str(bad), "--data", f"{out}/data.csv",
                     *inputs, "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "must be finite and >= 0" in err and "data.csv" not in err

    def test_bad_generate_parameter_exits_2(self, tmp_path, capsys):
        code = main(["generate", "--n", "50", "--seed", "-1",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "seed must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, key", [
        (["--clip-epsilon", "-0.5"], "clip_epsilon"),
        (["--clip-epsilon", "0"], "clip_epsilon"),
        (["--clip-epsilon", "1.5"], "clip_epsilon"),
        (["--ridge", "-1"], "ridge"),
        (["--grad-tol", "-1"], "grad_tol"),
        (["--max-iters", "0"], "max_iters"),
        (["--l2-reg", "-1"], "l2"),
        (["--l2-reg", "nan"], "l2_reg"),
    ])
    def test_bad_fit_parameter_exits_2(self, learned_run, tmp_path, capsys,
                                       flags, key):
        out = learned_run
        code = main(["fit", "--schema", f"{out}/schema.json",
                     "--data", f"{out}/data.csv", *flags,
                     "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and key in err

    @pytest.mark.parametrize("flags, config, key", [
        (["--seed", "-1"], None, "seed"),
        (["--c-explore", "nan"], None, "c_explore"),
        (["--lambda1", "nan"], None, "lambda1"),
        (["--lambda2", "inf"], None, "lambda2"),
        ([], {"search": {"widen_c": float("nan")}}, "widen_c"),
        ([], {"search": {"widen_c": float("inf")}}, "widen_c"),
        ([], {"search": {"widen_alpha": float("inf")}}, "widen_alpha"),
        # finite weights whose objective sums overflow a double
        (["--lambda1", "1e307"], None, "lambda1"),
        (["--strategy", "greedy", "--lambda1", "1e307"], None, "lambda1"),
        (["--lambda2", "1e307"], None, "lambda2"),
    ])
    def test_bad_learn_parameter_exits_2(self, learned_run, tmp_path, capsys,
                                         flags, config, key):
        out = learned_run
        if config is not None:
            cfg = tmp_path / "bad.json"
            cfg.write_text(json.dumps(config))
            flags = [*flags, "--config", str(cfg)]
        code = main(["learn", "--schema", f"{out}/schema.json",
                     "--data", f"{out}/data.csv",
                     "--candidates", f"{out}/candidates.json",
                     "--scores", f"{out}/scores.json", "--iterations", "5",
                     *flags, "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and key in err
        assert not (tmp_path / "regime.json").exists()

    @pytest.mark.parametrize("flags, key", [
        (["--lambda1", "nan"], "lambda1"),
        (["--lambda3", "inf"], "lambda3"),
        (["--lambda1", "1e308"], "lambda1"),
    ])
    def test_bad_evaluate_parameter_exits_2(self, learned_run, tmp_path, capsys,
                                            flags, key):
        out = learned_run
        code = main(["evaluate", "--schema", f"{out}/schema.json",
                     "--data", f"{out}/data.csv",
                     "--regime", f"{out}/regime.json",
                     "--scores", f"{out}/scores.json", *flags,
                     "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and key in err
        assert not (tmp_path / "metrics.json").exists()

    def test_removed_min_new_coverage_flag_exits_2(self, learned_run, tmp_path,
                                                   capsys):
        out = learned_run
        with pytest.raises(SystemExit) as exc:
            main(["learn", "--schema", f"{out}/schema.json",
                  "--data", f"{out}/data.csv",
                  "--candidates", f"{out}/candidates.json",
                  "--scores", f"{out}/scores.json",
                  "--min-new-coverage", "0.01", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "--min-new-coverage" in capsys.readouterr().err

    def test_score_beyond_float32_range_learns_silently(self, learned_run, tmp_path):
        # the batched float32 bounds overflow; learn must neither fail nor warn
        out = learned_run
        d = read_json(f"{out}/scores.json")
        d["scores"][0][0] = -1e39
        big = tmp_path / "scores.json"
        big.write_text(json.dumps(d))
        env = {**os.environ, "PYTHONPATH": str(Path(regimelist.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "regimelist.cli", "learn",
             "--schema", f"{out}/schema.json", "--data", f"{out}/data.csv",
             "--candidates", f"{out}/candidates.json", "--scores", str(big),
             "--iterations", "20", "--out-dir", str(tmp_path)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stderr == ""

    @pytest.mark.parametrize("step", ["generate", "mine"])
    def test_missing_config_file_exits_2(self, learned_run, tmp_path, capsys,
                                         step):
        out = learned_run
        inputs = {"generate": ["--n", "50"],
                  "mine": ["--schema", f"{out}/schema.json",
                           "--data", f"{out}/data.csv"]}[step]
        code = main([step, *inputs, "--config", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "config file not found" in capsys.readouterr().err
