"""The command line end to end, at a tiny size."""

import json

from unisca import cli


def test_gen_fit_eval_reports_private_pearson(tmp_path):
    config = {
        "version": 1, "seed": 3,
        "data": {"preset": "private-appxG", "n": 600},
        "solver": {"d_c": 2, "mode": "with_private", "epochs": 1,
                   "restarts": 1, "warm_epochs": 0, "batch": 200,
                   "checkpoint_rows": 300, "select_rows": 300},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    data, model = str(tmp_path / "data"), str(tmp_path / "model")
    assert cli.main(["gen", "--config", str(cfg_path), "--out", data]) == 0
    assert cli.main(["fit", "--config", str(cfg_path), "--data", data,
                     "--out", model]) == 0
    assert cli.main(["eval", "--model", model, "--data", data]) == 0
    report = json.loads((tmp_path / "model" / "report.json").read_text())
    pearson = report["report"]["private_pearson"]
    assert len(pearson) == 2 and all(0.0 <= r <= 1.0 for r in pearson)
