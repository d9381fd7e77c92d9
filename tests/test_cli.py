import inspect
import io
import json
import math
import os

import numpy as np
import pytest

from setloss import cli, grads, losses, submodcheck, synthlab, trainer
from setloss.errors import SingleClassBatch

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
FOUR_POINT = os.path.join(FIXTURES, "four_point.csv")
ORTHONORMAL = os.path.join(FIXTURES, "orthonormal.csv")


def test_eval_four_point_fl(capsys):
    assert cli.main(["eval", "--input", FOUR_POINT, "--objective", "fl"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["objective"] == "fl"
    assert payload["per_class"][0] == pytest.approx(0.6, abs=1e-12)
    assert payload["per_class"][1] == pytest.approx(0.7, abs=1e-12)
    assert payload["total"] == pytest.approx(1.3, abs=1e-12)


def test_eval_logdet_on_orthonormal_rows(capsys):
    code = cli.main(["eval", "--input", ORTHONORMAL,
                     "--objective", "logdet-sf", "--lam", "1.0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    for v in payload["per_class"]:
        assert v == pytest.approx(2.0 * math.log(2.0), rel=1e-12)


def test_eval_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"loss": {"objective": "gc-cf", "lam": 2.0}}))
    code = cli.main(["eval", "--input", FOUR_POINT, "--config", str(cfg),
                     "--objective", "fl"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["objective"] == "fl"
    assert payload["config"]["lam"] == 2.0


@pytest.mark.parametrize("flags", [
    ["--objective", "gc-cf", "--lam", "nan"],
    ["--objective", "gc-sf", "--lam", "inf"],
    ["--objective", "triplet", "--margin", "nan"],
    ["--kernel", "rbf", "--bandwidth", "inf"],
])
def test_eval_non_finite_hyperparameter_rejected(flags, tmp_path, capsys):
    # NaN or infinity would otherwise reach the JSON output, which cannot
    # represent them.
    out = tmp_path / "e.json"
    assert cli.main(["eval", "--input", FOUR_POINT, "--out", str(out), *flags]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_eval_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"loss": {"objektive": "fl"}}))
    assert cli.main(["eval", "--input", FOUR_POINT, "--config", str(cfg)]) == 2
    assert "objektive" in capsys.readouterr().err


def test_eval_rerun_is_byte_identical(tmp_path, capsys):
    out = tmp_path / "result.json"
    args = ["eval", "--input", FOUR_POINT, "--objective", "gc-sf",
            "--out", str(out)]
    assert cli.main(args) == 0
    first = out.read_bytes()
    assert cli.main(args) == 0
    assert out.read_bytes() == first
    capsys.readouterr()


def test_eval_missing_input_is_io_failure(capsys):
    assert cli.main(["eval", "--input", "/nonexistent/file.csv"]) == 6
    assert capsys.readouterr().err


def test_eval_malformed_row_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,label,f0,f1\na,0,1.0,0.0\nb,zero,0.0,1.0\n")
    assert cli.main(["eval", "--input", str(bad)]) == 2
    assert ":3:" in capsys.readouterr().err


def test_eval_non_finite_feature_reports_its_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,label,f0,f1\na,0,1.0,0.0\nb,1,0.0,1.0\nc,0,nan,1.0\n")
    assert cli.main(["eval", "--input", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{bad}:4: non-finite feature value" in captured.err


def test_eval_label_gap_reports_the_line_above_it(tmp_path, capsys):
    bad = tmp_path / "gap.csv"
    bad.write_text("id,label,f0\na,0,1.0\nb,2,2.0\nc,0,3.0\n")
    assert cli.main(["eval", "--input", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {bad}:3: labels must cover 0..2 "
                            "contiguously; class 1 is empty\n")


def test_eval_single_class_warns_but_succeeds(tmp_path, capsys):
    single = tmp_path / "single.csv"
    single.write_text("id,label,f0,f1\na,0,1.0,0.0\nb,0,0.0,1.0\n")
    with pytest.warns(SingleClassBatch):
        code = cli.main(["eval", "--input", str(single), "--objective", "fl"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["total"] == 0.0


def test_gradcheck_all_objectives_pass(capsys):
    assert cli.main(["gradcheck"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 13
    assert all(line.startswith("PASS") for line in out)


def test_gradcheck_zero_tolerance_fails(capsys):
    assert cli.main(["gradcheck", "--objective", "gc-cf", "--tol", "0"]) == 4
    assert capsys.readouterr().out.startswith("FAIL")


def test_gradcheck_rejects_nonpositive_step(capsys):
    assert cli.main(["gradcheck", "--h", "0"]) == 2
    capsys.readouterr()


def test_gradcheck_rejects_an_infinite_step(capsys):
    assert cli.main(["gradcheck", "--objective", "fl", "--h", "inf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: finite-difference step h must be finite")


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_gradcheck_tolerance_flag_must_be_finite_and_nonnegative(tol, capsys):
    # NaN or inf would pass every coordinate, -1 none; --tol 0 stays legal.
    assert cli.main(["gradcheck", "--objective", "fl", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tolerance must be finite and >= 0")


def test_gradcheck_json_out(tmp_path, capsys):
    out = tmp_path / "g.json"
    code = cli.main(["gradcheck", "--objective", "fl", "--kernel", "rbf",
                     "--bandwidth", "0.8", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload) == 1
    assert payload[0]["objective"] == "fl"
    assert payload[0]["passed"] is True
    capsys.readouterr()


def test_submodcheck_single_consistent_objective(capsys):
    assert cli.main(["submodcheck", "--objective", "fl", "--trials", "25"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "objective,n,trials,violations,min_margin,verdict"
    fields = lines[1].split(",")
    assert fields[0] == "fl"
    assert fields[2] == "25"
    assert fields[5] == "submodular-consistent"


def test_submodcheck_supcon_finds_counterexample(capsys):
    # Claimed non-submodular and the scan proves it: verdict matches, exit 0,
    # and the witnessing (A, B, x) triple lands on stderr.
    assert cli.main(["submodcheck", "--objective", "supcon"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[1].split(",")[5] == "violated"
    assert "counterexample: supcon: A=(" in captured.err
    assert " x=" in captured.err


def test_submodcheck_submod_snn_refuted_claim_matches(capsys):
    # Claimed submodular but refuted in closed form: it still gets the full
    # 200-draw scan, its violations are the expected verdict (exit 0, not 5),
    # and the first witnessing triple lands on stderr.
    assert cli.main(["submodcheck", "--objective", "submod-snn"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[1] == "submod-snn,6,200,22026,-2.08494001002292,violated"
    assert "counterexample: submod-snn: A=(" in captured.err
    assert "MISMATCH" not in captured.err


def test_submodcheck_seed0_table_matches_its_pinned_bytes(tmp_path, capsys):
    # The fixtures hold the verdict CSV and the stderr counterexamples (each
    # violated row's first stored violation, gains as repr) of the full
    # seed-0 table, so a drift in the last bit of any min_margin or gain
    # fails here, not only a changed verdict.
    out = tmp_path / "verdicts.csv"
    assert cli.main(["submodcheck", "--objective", "all", "--seed", "0",
                     "--out", str(out)]) == 0
    captured = capsys.readouterr()
    with open(os.path.join(FIXTURES, "verdicts_seed0.csv"), "rb") as fh:
        want_csv = fh.read()
    with open(os.path.join(FIXTURES, "verdicts_seed0_counterexamples.txt"), "rb") as fh:
        want_err = fh.read()
    assert out.read_bytes() == want_csv
    assert captured.out.encode() == want_csv
    assert captured.err.encode() == want_err


def test_submodcheck_n_above_bound_rejected(capsys):
    assert cli.main(["submodcheck", "--n", "20"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flags", [
    ["--objective", "fl", "--trials", "0"],
    ["--objective", "fl", "--trials", "-3"],
    ["--objective", "fl", "--n", "1"],
    ["--objective", "fl", "--n", "2"],
    ["--objective", "all", "--trials", "0", "--budget", "0"],
])
def test_submodcheck_without_evidence_rejected(flags, capsys):
    # Each of these would compare no triple at all, so no verdict is printed.
    assert cli.main(["submodcheck", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "MISMATCH" not in captured.err


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_submodcheck_tolerance_flag_must_be_finite_and_nonnegative(tol, capsys):
    # NaN once passed every margin, so supcon read submodular-consistent
    # and exited 5; -1 flagged fl's exact ties as violations.
    for name in ("supcon", "fl"):
        assert cli.main(["submodcheck", "--objective", name, "--tol", tol,
                         "--budget", "50"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: tolerance must be finite and >= 0")


def test_submodcheck_nan_tolerance_in_config_rejected(tmp_path, capsys):
    # json.load admits the bare NaN token, and it is a float, so the type
    # check lets it through; the scan itself refuses it.
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"check": {"tolerance": NaN, "budget": 50}}')
    assert cli.main(["submodcheck", "--objective", "supcon",
                     "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tolerance must be finite" in captured.err


def test_sweep_default_grid(capsys):
    assert cli.main(["sweep"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,objective,kernel,loss"
    # 5 K values x 2 objectives x 2 kernels
    assert len(lines) == 21


def test_sweep_config_rejects_zero_spread(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"sweep": {"spread": 0}}')
    assert cli.main(["sweep", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "spread must be positive, got 0" in captured.err


def test_sweep_per_seed_files(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--objectives", "fl", "--kernels", "cosine",
                     "--ks", "0,4", "--seeds", "0,1", "--out", str(out)])
    assert code == 0
    for seed in (0, 1):
        path = tmp_path / f"sweep.s{seed}.csv"
        assert path.exists()
        assert len(path.read_text().strip().splitlines()) == 3
    capsys.readouterr()


def test_sweep_ordering_assertion_passes_for_fl(capsys):
    code = cli.main(["sweep", "--objectives", "fl", "--kernels", "cosine",
                     "--ks", "0,1,2,3,4,5,6,7", "--assert-ordering"])
    assert code == 0
    capsys.readouterr()


@pytest.mark.parametrize("ks", ["5,7", "0,2,5,7"])
def test_sweep_ordering_assertion_without_the_peak(ks, capsys):
    # With K = 4 left out, the loss still rises below it and falls above it;
    # the step across the gap is not judged.
    assert cli.main(["sweep", "--ks", ks, "--assert-ordering"]) == 0
    assert "ordering violated" not in capsys.readouterr().err


def test_sweep_unknown_objective_rejected(capsys):
    assert cli.main(["sweep", "--objectives", ""]) == 2
    assert cli.main(["sweep", "--objectives", "fl,bogus"]) == 2
    capsys.readouterr()
    assert cli.main(["sweep", "--kernels", "cosine,bogus"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown kernel 'bogus'; choose from cosine, ")
    assert "Traceback" not in err


def train_config(tmp_path, lam):
    cfg = {
        "dataset": {"kind": "step", "c": 3, "d": 4, "base_count": 30,
                    "ratio": 3.0, "spread": 0.3, "separation": 2.0},
        "loss": {"kernel": "rbf", "bandwidth": 1.0, "lam": lam},
        "train": {"lr": 0.005, "steps": 5, "objectives": ["gc-cf", "fl"]},
    }
    path = tmp_path / "train.json"
    path.write_text(json.dumps(cfg))
    return path


def test_train_writes_reports_and_comparison(tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main(["train", "--config", str(train_config(tmp_path, 1.0)),
                     "--out", str(out)])
    assert code == 0
    csv_lines = (out / "comparison.csv").read_text().strip().splitlines()
    assert csv_lines[0] == ("objective,accuracy,rare_class_recall,"
                            "intra_var,inter_sep,final_loss")
    assert len(csv_lines) == 3
    report = json.loads((out / "report_fl.json").read_text())
    assert report["objective"] == "fl"
    assert len(report["loss_curve"]) == 6
    capsys.readouterr()


def test_train_lambda_grid_keeps_failure_rows(tmp_path, capsys):
    out = tmp_path / "grid"
    code = cli.main(["train", "--config", str(train_config(tmp_path, [0.5, 1.0])),
                     "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    lines = (out / "comparison.csv").read_text().strip().splitlines()
    assert len(lines) == 5
    rows = {line.split(",")[0]: line for line in lines[1:]}
    # graph-cut rejects lam below one; that cell is a recorded failure
    assert "nan" in rows["gc-cf@lam=0.5"]
    assert "nan" not in rows["fl@lam=0.5"]
    assert "nan" not in rows["gc-cf@lam=1"]
    assert "gc-cf@lam=0.5" in captured.err


@pytest.mark.parametrize("setting", [
    {"batch_size": 0}, {"batch_size": -5}, {"out_dim": 0}, {"out_dim": 1},
    {"out_dim": -3},
])
def test_train_rejects_degenerate_sizes(setting, tmp_path, capsys):
    # batch_size 0 and -5 once trained full-batch, out_dim 0 fell back to
    # the data dimension, and out_dim -3 became a failure row (exit 3).
    cfg = json.loads(train_config(tmp_path, 1.0).read_text())
    cfg["train"].update(setting)
    path = tmp_path / "sizes.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not out.exists()


def test_train_unwritable_out_is_io_failure(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("a file, not a directory")
    code = cli.main(["train", "--config", str(train_config(tmp_path, 1.0)),
                     "--out", str(blocker)])
    assert code == 6
    capsys.readouterr()


# Settings resolve the same way in every command: a flag beats the config
# file, and a key set by neither falls through to the library's default.
# Each observer runs one command with the library call it ends in replaced
# by a recorder, and returns the settings that call received.

LOSS_FIELDS = ("lam", "margin", "kernel", "bandwidth")
TRAIN_FIELDS = ("lr", "steps", "batch_size", "seed", "eval_split", "out_dim",
                "normalize")


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _train_settings(names, config):
    out = {"names": list(names)}
    out.update({key: getattr(config, key) for key in TRAIN_FIELDS})
    out.update({f"loss.{key}": getattr(config.loss, key) for key in LOSS_FIELDS})
    return out


def _observe_gradcheck(monkeypatch, argv, tmp_path):
    seen = []
    real = grads.grad_check
    monkeypatch.setattr(grads, "grad_check",
                        lambda batch, config, *a: seen.append(config) or real(batch, config, *a))
    cli.main(["gradcheck", "--objective", "fl"] + argv)
    return {key: getattr(seen[0], key) for key in LOSS_FIELDS}


def _observe_submodcheck(monkeypatch, argv, tmp_path):
    seen = {}
    real = submodcheck.verdict_table
    monkeypatch.setattr(submodcheck, "verdict_table",
                        lambda *a, **kw: seen.update(_bound(real, a, kw)) or [])
    cli.main(["submodcheck", "--objective", "fl"] + argv)
    return {key: seen[key] for key in ("n", "draws", "max_draws", "seed", "tolerance")}


def _observe_sweep(monkeypatch, argv, tmp_path):
    seen = {}
    real = synthlab.k_sweep
    monkeypatch.setattr(synthlab, "k_sweep",
                        lambda *a, **kw: seen.update(_bound(real, a, kw))
                        or synthlab.SweepResult([]))
    cli.main(["sweep"] + argv)
    return {key: list(seen[key]) if key in ("names", "kinds", "ks") else seen[key]
            for key in ("names", "kinds", "ks", "points_per_cluster", "spread", "seed")}


def _observe_train(monkeypatch, argv, tmp_path):
    seen = {}

    def record(names, data, config):
        seen.update(_train_settings(names, config))
        c = data.num_classes
        return [trainer.TrainReport(name, [0.0], 1.0, np.ones(c),
                                    np.eye(c, dtype=np.int64), 0.0, 1.0)
                for name in names]

    monkeypatch.setattr(trainer, "compare_objectives", record)
    cli.main(["train", "--out", str(tmp_path / "run")] + argv)
    return seen


def _library_defaults(command):
    loss = losses.LossConfig()
    if command == "gradcheck":
        return {key: getattr(loss, key) for key in LOSS_FIELDS}
    if command == "submodcheck":
        return _bound(submodcheck.verdict_table, (), {})
    if command == "sweep":
        # the grid itself is the CLI's; the rest falls to k_sweep
        return _bound(synthlab.k_sweep, (["fl", "gc-cf"], ["cosine", "rbf"],
                                         [0, 2, 4, 5, 7]), {})
    return _train_settings(["fl", "gc-cf", "supcon"], trainer.TrainConfig())


PRECEDENCE = {
    "gradcheck": (
        {"loss": {"lam": 2.0, "margin": 0.3, "kernel": "rbf", "bandwidth": 0.5}},
        {"lam": 2.0, "margin": 0.3, "kernel": "rbf", "bandwidth": 0.5},
        ["--lam", "3.0", "--margin", "0.1", "--kernel", "cosine", "--bandwidth", "2.0"],
        {"lam": 3.0, "margin": 0.1, "kernel": "cosine", "bandwidth": 2.0},
    ),
    "submodcheck": (
        {"check": {"n": 5, "trials": 7, "budget": 9, "tolerance": 1e-6}, "seed": 3},
        {"n": 5, "draws": 7, "max_draws": 9, "seed": 3, "tolerance": 1e-6},
        ["--n", "4", "--trials", "8", "--budget", "10", "--tol", "1e-7", "--seed", "4"],
        {"n": 4, "draws": 8, "max_draws": 10, "seed": 4, "tolerance": 1e-7},
    ),
    "sweep": (
        {"sweep": {"objectives": ["gc-cf"], "kernels": ["rbf"], "ks": [1, 3],
                   "points_per_cluster": 20, "spread": 0.5}, "seed": 2},
        {"names": ["gc-cf"], "kinds": ["rbf"], "ks": [1, 3],
         "points_per_cluster": 20, "spread": 0.5, "seed": 2},
        ["--objectives", "fl", "--kernels", "cosine", "--ks", "2", "--seed", "5"],
        {"names": ["fl"], "kinds": ["cosine"], "ks": [2],
         "points_per_cluster": 20, "spread": 0.5, "seed": 5},
    ),
    "train": (
        {"dataset": {"kind": "step", "c": 3, "d": 4, "base_count": 30, "ratio": 3.0},
         "train": {"lr": 0.01, "steps": 3, "batch_size": 16, "eval_split": 0.3,
                   "out_dim": 2, "normalize": False, "objectives": ["gc-cf"]},
         "loss": {"lam": 2.0, "margin": 0.3, "kernel": "rbf", "bandwidth": 0.7},
         "seed": 4},
        {"names": ["gc-cf"], "lr": 0.01, "steps": 3, "batch_size": 16, "seed": 4,
         "eval_split": 0.3, "out_dim": 2, "normalize": False, "loss.lam": 2.0,
         "loss.margin": 0.3, "loss.kernel": "rbf", "loss.bandwidth": 0.7},
        ["--objectives", "fl,supcon", "--seed", "6"],
        {"names": ["fl", "supcon"], "lr": 0.01, "steps": 3, "batch_size": 16,
         "seed": 6, "eval_split": 0.3, "out_dim": 2, "normalize": False,
         "loss.lam": 2.0, "loss.margin": 0.3, "loss.kernel": "rbf",
         "loss.bandwidth": 0.7},
    ),
}


@pytest.mark.parametrize("case", ["config", "flag", "default"])
@pytest.mark.parametrize("command", sorted(PRECEDENCE))
def test_settings_flag_then_config_then_library_default(command, case, tmp_path,
                                                        monkeypatch, capsys):
    config, from_config, flags, from_flags = PRECEDENCE[command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv, want = {
        "config": (["--config", str(cfg)], from_config),
        "flag": (["--config", str(cfg)] + flags, from_flags),
        "default": ([], _library_defaults(command)),
    }[case]
    got = globals()[f"_observe_{command}"](monkeypatch, argv, tmp_path)
    assert got == {key: want[key] for key in got}
    capsys.readouterr()


@pytest.mark.parametrize("argv, config, key", [
    (["submodcheck", "--objective", "fl"], {"check": {"n": "6"}}, "check.n"),
    (["submodcheck", "--objective", "fl"], {"seed": "abc"}, "seed"),
    (["gradcheck", "--objective", "gc-cf"], {"loss": {"lam": "x"}}, "loss.lam"),
    (["eval", "--input", FOUR_POINT, "--objective", "fl"], {"loss": {"lam": "x"}},
     "loss.lam"),
    (["train"], {"train": {"steps": "5"}}, "train.steps"),
    (["sweep"], {"sweep": {"ks": "0,4"}}, "sweep.ks"),
    (["eval", "--input", FOUR_POINT], {"loss": {"lam": [1.0, 2.0]}}, "loss.lam"),
], ids=["check.n", "seed", "lam-gc-cf", "lam-fl", "train.steps", "sweep.ks",
        "lam-list-eval"])
def test_mistyped_config_value_is_rejected_by_name(argv, config, key, tmp_path,
                                                   capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = ["--out", str(tmp_path / "run")] if argv[0] == "train" else []
    assert cli.main(argv + out + ["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert f" {key} must be " in captured.err
    assert captured.out == ""


def test_sweep_reads_loss_section(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"loss": {"lam": 2.0, "margin": 0.5, "bandwidth": 0.3}}))
    code = cli.main(["sweep", "--objectives", "gc-cf,triplet", "--kernels", "rbf",
                     "--ks", "0", "--config", str(cfg)])
    assert code == 0
    want = io.StringIO()
    synthlab.k_sweep(["gc-cf", "triplet"], ["rbf"], [0], lam=2.0, margin=0.5,
                     bandwidth=0.3).write_csv(want)
    assert capsys.readouterr().out == want.getvalue()


def test_train_empty_objectives_flag_rejected(tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main(["train", "--config", str(train_config(tmp_path, 1.0)),
                     "--objectives", "", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    capsys.readouterr()
