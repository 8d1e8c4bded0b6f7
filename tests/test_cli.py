"""The command line end to end, at a tiny size."""

import json
import threading
import time

import numpy as np
import pytest

from unisca import cli, datagen, numerics, solver

from conftest import rewrite_archive
from test_config import CRASHED


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


def _config(tmp_path, thresholds=None, **solver) -> str:
    """A tiny unaligned experiment, its solver section updated by `solver`;
    returns the config path."""
    config = {
        "version": 1, "seed": 3,
        "data": {"preset": "thm1a", "n": 600},
        "solver": {"d_c": 2, "epochs": 1, "restarts": 1, "warm_epochs": 0,
                   "batch": 200, "checkpoint_rows": 300, "select_rows": 300,
                   **solver},
        "eval": {"thresholds": thresholds or {}},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_scatter_exports_true_and_recovered_components(tmp_path):
    cfg = _config(tmp_path)
    data, model = str(tmp_path / "data"), str(tmp_path / "model")
    out = tmp_path / "scatter.csv"
    assert cli.main(["gen", "--config", cfg, "--out", data]) == 0
    assert cli.main(["fit", "--config", cfg, "--data", data,
                     "--out", model]) == 0
    assert cli.main(["scatter", "--model", model, "--data", data,
                     "--out", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    assert header.split(",") == ["c_0", "c_1", "chat1_0", "chat1_1",
                                 "chat2_0", "chat2_1"]
    values = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert values.shape == (datagen.load_dataset(data).c_test.shape[0], 6)
    assert np.isfinite(values).all()


@pytest.mark.parametrize("bound,code", [(0.0, 1), (1e6, 0)])
def test_sweep_gates_the_whitening_residual(tmp_path, capsys, bound, code):
    cfg = _config(tmp_path, {"whitening_residual": bound})
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", cfg, "--seeds", "2",
                     "--out", str(out)]) == code
    assert "median whitening_residual" in capsys.readouterr().out
    summary = json.loads((out / "sweep.json").read_text())
    assert summary["seeds"] == [3, 4]
    assert len(summary["medians"]["whitening_residual"]) == 2
    # Each seed's data directory holds its config once, beside the manifest.
    for seed in (3, 4):
        data = out / f"seed-{seed}" / "data"
        assert json.loads((data / "config.json").read_text())["seed"] == seed
        assert "config" not in json.loads((data / "manifest.json").read_text())


@pytest.mark.parametrize("thresholds", [None, {"leakage": 1.0}])
def test_sweep_rejects_fewer_than_one_seed(tmp_path, capsys, thresholds):
    cfg = _config(tmp_path, thresholds)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", cfg, "--seeds", "0",
                     "--out", str(out)]) == 2
    assert "--seeds must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_takes_no_worker_count(tmp_path, capsys):
    # How many seeds run at once is worked out, not set.
    out = tmp_path / "sweep"
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--config", _config(tmp_path), "--seeds", "1",
                  "--jobs", "2", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    assert not out.exists()


# Solver fields deleted since the first saved models, at values they once took.
_DELETED_FIELDS = {"gamma": 0.1, "disc_input_dropout": 0.0, "bandwidth": 1.0,
                   "init_noise": 0.01, "warm_slices": 24,
                   "label_smoothing": 0.2, "lambda_whiten": 0.1, "beta": 0.01,
                   "omega": 10.0, "rho": 50.0, "lr_q": 0.009, "lr_f": 0.00008,
                   "lr_p": 0.001, "disc_steps": 1}


def test_config_setting_a_deleted_solver_field_is_an_error_line(tmp_path, capsys):
    cfg, out = tmp_path / "config.json", tmp_path / "model"
    for key, value in _DELETED_FIELDS.items():
        cfg.write_text(json.dumps({"version": 1, "solver": {"d_c": 2, key: value}}))
        assert cli.main(["fit", "--config", str(cfg), "--data",
                         str(tmp_path / "data"), "--out", str(out)]) == 2, key
        err = capsys.readouterr().err
        assert err.startswith("error: config invalid at solver") and key in err
        assert not out.exists()


def test_eval_names_model_config_keys_it_does_not_know(tmp_path, capsys):
    cfg = _config(tmp_path)
    data, model = str(tmp_path / "data"), tmp_path / "model"
    assert cli.main(["gen", "--config", cfg, "--out", data]) == 0
    assert cli.main(["fit", "--config", cfg, "--data", data,
                     "--out", str(model)]) == 0
    meta = json.loads((model / "model.json").read_text())
    # A model directory written while SolverConfig still had each field.
    for key, value in _DELETED_FIELDS.items():
        (model / "model.json").write_text(json.dumps(
            {**meta, "config": {**meta["config"], "bogus": 1, key: value}}))
        capsys.readouterr()
        assert cli.main(["eval", "--model", str(model), "--data", data]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: model config has unknown "
                              f"keys {sorted(['bogus', key])}; refit the model")
        assert "Traceback" not in err and not (model / "report.json").exists()


def test_config_that_is_not_json_is_an_error_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1,')
    out = tmp_path / "data"
    assert cli.main(["gen", "--config", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{bad} is not valid JSON" in err
    assert "Traceback" not in err and not out.exists()


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


def test_unknown_log_level_is_an_error_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SCA_LOG", "verbose")
    out = tmp_path / "data"
    assert cli.main(["gen", "--config", _config(tmp_path), "--out",
                     str(out)]) == 2
    assert "SCA_LOG must be one of" in _one_error_line(capsys)
    assert not out.exists()


def test_gen_into_an_existing_file_is_an_error_line(tmp_path, capsys):
    out = tmp_path / "data"
    out.write_text("not a directory")
    assert cli.main(["gen", "--config", _config(tmp_path), "--out",
                     str(out)]) == 2
    assert str(out) in _one_error_line(capsys)
    assert out.read_text() == "not a directory"


def test_fit_into_an_existing_file_fails_before_fitting(tmp_path, capsys,
                                                       monkeypatch):
    calls = []
    monkeypatch.setattr(datagen, "load_dataset", lambda *a: calls.append(a))
    monkeypatch.setattr(solver, "fit", lambda *a, **kw: calls.append(a))
    out = tmp_path / "model"
    out.write_text("not a directory")
    assert cli.main(["fit", "--config", _config(tmp_path), "--data",
                     str(tmp_path / "data"), "--out", str(out)]) == 2
    assert str(out) in _one_error_line(capsys)
    assert calls == [] and out.read_text() == "not a directory"


def test_gen_writes_its_config_once(tmp_path):
    data = tmp_path / "data"
    assert cli.main(["gen", "--config", _config(tmp_path), "--out",
                     str(data)]) == 0
    assert json.loads((data / "config.json").read_text())["seed"] == 3
    assert "config" not in json.loads((data / "manifest.json").read_text())
    assert not list(data.glob("*.csv"))


def test_gen_has_no_csv_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["gen", "--csv", "--out", str(tmp_path / "data")])
    assert info.value.code == 2
    assert "unrecognized arguments: --csv" in capsys.readouterr().err


def test_config_setting_data_shuffle_is_an_error_line(tmp_path, capsys):
    cfg, out = tmp_path / "config.json", tmp_path / "data"
    cfg.write_text(json.dumps({"version": 1, "data": {"shuffle": False}}))
    assert cli.main(["gen", "--config", str(cfg), "--out", str(out)]) == 2
    assert _one_error_line(capsys) == (
        "error: config invalid at data: unknown keys ['shuffle']\n")
    assert not out.exists()


def test_config_that_is_a_directory_is_an_error_line(tmp_path, capsys):
    out = tmp_path / "data"
    assert cli.main(["gen", "--config", str(tmp_path), "--out",
                     str(out)]) == 2
    assert str(tmp_path) in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("doc,path", CRASHED)
def test_gen_rejects_configs_that_once_crashed(tmp_path, capsys, doc, path):
    cfg, out = tmp_path / "config.json", tmp_path / "data"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["gen", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config invalid at {path}: ")
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("flags,message", [
    (["--n", "0"], "config invalid at data/n"),
    (["--preset", ""], "unknown preset ''"),
])
def test_gen_rejects_empty_overrides(tmp_path, capsys, flags, message):
    out = tmp_path / "data"
    assert cli.main(["gen", "--config", _config(tmp_path), *flags,
                     "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _word_vector_model(tmp_path) -> list:
    """Fit a model on two tiny word-vector files; returns the `retrieve`
    arguments that score it against them."""
    queries, references = tmp_path / "q.vec", tmp_path / "r.vec"
    queries.write_text("5 3\na 1.0 0.2 -0.5\nb -0.3 1.1 0.4\nc 0.7 -0.9 0.1\n"
                       "d -1.2 0.3 0.8\ne 0.1 -0.6 -1.0\n")
    references.write_text("5 3\nA 0.9 0.1 -0.4\nB -0.2 1.2 0.5\n"
                          "C 0.8 -1.0 0.2\nD -1.1 0.2 0.9\nE 0.2 -0.5 -1.1\n")
    dictionary = tmp_path / "dict.txt"
    dictionary.write_text("0 0\n1 1\n2 2\n3 3\n4 4\n")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "version": 1, "seed": 0,
        "solver": {"d_c": 2, "epochs": 1, "restarts": 1, "warm_epochs": 0,
                   "batch": 5, "checkpoint_rows": 5, "select_rows": 5}}))
    model = str(tmp_path / "model")
    assert cli.main(["fit", "--config", str(cfg), "--emb1", str(queries),
                     "--emb2", str(references), "--out", model]) == 0
    return ["retrieve", "--model", model, "--queries", str(queries),
            "--references", str(references), "--dictionary", str(dictionary)]


def test_fit_and_retrieve_on_word_vector_files(tmp_path):
    out = tmp_path / "retrieval.json"
    assert cli.main(_word_vector_model(tmp_path)
                    + ["--ks", "1,5", "--out", str(out)]) == 0
    table = json.loads(out.read_text())
    assert sorted(table) == ["csls@1", "csls@5", "nn@1", "nn@5"]
    assert all(0.0 <= p <= 100.0 for p in table.values())
    # k equal to the reference count always finds the translation.
    assert table["nn@5"] == table["csls@5"] == 100.0


def test_fit_takes_word_vectors_with_a_large_constant_column(tmp_path):
    # Less its mean, a column of 123.4 beside unit normals keeps a residual
    # mean (2.2e-12 at 1000 rows) that solver.fit refuses as not centred;
    # fit centres such a column to exact zeros, and whitening drops it.
    rng = numerics.substream(0, "tests", "constant-column")
    paths, views = [], []
    for name in ("a", "b"):
        x = np.hstack([rng.normal(size=(1000, 2)), np.full((1000, 1), 123.4)])
        lines = [f"w{i} " + " ".join(repr(float(v)) for v in row)
                 for i, row in enumerate(x)]
        path = tmp_path / f"{name}.vec"
        path.write_text("1000 3\n" + "\n".join(lines) + "\n")
        paths.append(str(path))
        views.append(x)
    model = tmp_path / "model"
    assert cli.main(["fit", "--config", _config(tmp_path), "--emb1", paths[0],
                     "--emb2", paths[1], "--out", str(model)]) == 0
    q1 = solver.load_model(str(model)).q1.matrix
    assert np.isfinite(q1).all() and not q1[:, 2].any()
    cfg = solver.SolverConfig(d_c=2, epochs=1, restarts=1, warm_epochs=0)
    x1, x2 = (x - x.mean(axis=0) for x in views)
    with pytest.raises(numerics.ValidationError, match="X1 is not centered"):
        solver.fit(x1, x2, cfg)
    # The solver's own check is unchanged: an uncentred constant column
    # is refused.
    x1[:, 2] = 5.0
    x2[:, 2] = 0.0
    with pytest.raises(numerics.ValidationError, match="X1 is not centered"):
        solver.fit(x1, x2, cfg)


@pytest.mark.parametrize("flags,message", [
    (["--ks", "1,x"], "--ks must be comma-separated integers"),
    (["--ks", "0,1"], "k and k_csls must be >= 1"),
    (["--k-csls", "0"], "k and k_csls must be >= 1"),
])
def test_retrieve_rejects_bad_k(tmp_path, capsys, flags, message):
    argv = _word_vector_model(tmp_path) + flags
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", [
    (["--ks", "1,x"], "--ks must be comma-separated integers, got '1,x'"),
    (["--ks", "0,1"], "k and k_csls must be >= 1, got 0 and 10"),
    (["--k-csls", "0"], "k and k_csls must be >= 1, got 1 and 0"),
], ids=["ks-not-integers", "ks-zero", "k-csls-zero"])
def test_retrieve_checks_k_before_reading_anything(tmp_path, capsys, flags,
                                                   message):
    # No model, vectors or dictionary exist: a bad k is named first.
    argv = ["retrieve", "--model", str(tmp_path / "no-model"),
            "--queries", str(tmp_path / "q.vec"),
            "--references", str(tmp_path / "r.vec"),
            "--dictionary", str(tmp_path / "dict.txt")]
    assert cli.main(argv + flags) == 2
    assert _one_error_line(capsys) == f"error: {message}\n"


def test_retrieve_rejects_out_of_range_reference_id(tmp_path, capsys):
    argv = _word_vector_model(tmp_path)
    (tmp_path / "dict.txt").write_text("0 0\n1 1\n2 99\n")
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert "error: dictionary reference id 99 out of range" in capsys.readouterr().err


def test_eval_without_held_out_rows_is_an_error_line(tmp_path, capsys):
    with open(_config(tmp_path)) as f:
        cfg = json.load(f)
    cfg["data"]["test_fraction"] = 0
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    data, model = str(tmp_path / "data"), tmp_path / "model"
    assert cli.main(["gen", "--config", str(path), "--out", data]) == 0
    assert cli.main(["fit", "--config", str(path), "--data", data,
                     "--out", str(model)]) == 0
    capsys.readouterr()
    assert cli.main(["eval", "--model", str(model), "--data", data]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no held-out test rows")
    assert "Traceback" not in err and not (model / "report.json").exists()


def _no_test_rows_config(tmp_path) -> str:
    """The tiny experiment of `_config` generating no held-out rows."""
    path = _config(tmp_path)
    with open(path) as f:
        cfg = json.load(f)
    cfg["data"]["test_fraction"] = 0
    with open(path, "w") as f:
        json.dump(cfg, f)
    return path


def test_scatter_without_held_out_rows_is_an_error_line(tmp_path, capsys):
    cfg = _no_test_rows_config(tmp_path)
    data, model = str(tmp_path / "data"), str(tmp_path / "model")
    out = tmp_path / "scatter.csv"
    assert cli.main(["gen", "--config", cfg, "--out", data]) == 0
    assert cli.main(["fit", "--config", cfg, "--data", data,
                     "--out", model]) == 0
    capsys.readouterr()
    assert cli.main(["scatter", "--model", model, "--data", data,
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no held-out test rows") and err.count("\n") == 1
    assert "data.test_fraction" in err and "Traceback" not in err
    assert not out.exists()
    # The training rows are still there to export.
    assert cli.main(["scatter", "--model", model, "--data", data,
                     "--out", str(out), "--split", "train"]) == 0


def test_sweep_without_held_out_rows_fails_before_the_first_seed(tmp_path,
                                                                  capsys):
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", _no_test_rows_config(tmp_path),
                     "--seeds", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config invalid at data/test_fraction: ")
    assert not list(tmp_path.glob("**/seed-*"))


def _training_counted(monkeypatch) -> list:
    """Count the solver's trainings running at once, each held 50 ms so
    that trainings free to overlap do; returns [running, peak]."""
    lock, counts = threading.Lock(), [0, 0]
    real = solver._train

    def counted(*args, **kwargs):
        with lock:
            counts[0] += 1
            counts[1] = max(counts[1], counts[0])
        try:
            time.sleep(0.05)
            return real(*args, **kwargs)
        finally:
            with lock:
                counts[0] -= 1
    monkeypatch.setattr(solver, "_train", counted)
    return counts


def _sweeps_by_cores(tmp_path, monkeypatch, cfg, seeds) -> list:
    """sweep.json of one sweep at one usable core and one at two, each at
    one BLAS thread, so that one and then two seeds run at once."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    asked, real = [], cli.side_by_side
    monkeypatch.setattr(cli, "side_by_side", lambda fn, items, workers:
                        asked.append(workers) or real(fn, items, workers))
    summaries = []
    for cores in (1, 2):
        monkeypatch.setattr(numerics, "usable_cores", lambda: cores)
        out = tmp_path / f"cores-{cores}"
        assert cli.main(["sweep", "--config", cfg, "--seeds", seeds,
                         "--out", str(out)]) == 0
        summaries.append(json.loads((out / "sweep.json").read_text()))
    assert asked == [1, 2]
    return summaries


def test_sweep_jobs_do_not_change_its_reports(tmp_path, monkeypatch,
                                              fresh_pool):
    # The seeds run at once (the sweep's jobs) follow the usable cores and
    # BLAS threads; the outputs do not.
    one, two = _sweeps_by_cores(tmp_path, monkeypatch, _config(tmp_path), "2")
    assert one["seeds"] == two["seeds"] == [3, 4]
    assert one["reports"] == two["reports"]
    assert one["medians"] == two["medians"]


def test_sweep_jobs_share_one_bounded_pool(tmp_path, monkeypatch,
                                           fresh_pool):
    # Three seeds, each fit asking for two restarts side by side: at two
    # usable cores the fits and their restarts share one pool, so at most
    # the caller and the pool's one helper train at once, no other thread
    # starts, and the reports are those of one seed after the other.
    path = _config(tmp_path)
    with open(path) as f:
        cfg = json.load(f)
    cfg["solver"].update(restarts=2, warm_epochs=1)
    with open(path, "w") as f:
        json.dump(cfg, f)
    counts = _training_counted(monkeypatch)
    before = set(threading.enumerate())
    one, two = _sweeps_by_cores(tmp_path, monkeypatch, path, "3")
    assert one["seeds"] == two["seeds"] == [3, 4, 5]
    assert one["reports"] == two["reports"]
    assert one["medians"] == two["medians"]
    started = set(threading.enumerate()) - before
    assert [t.name.split("_")[0] for t in started] == ["unisca-helper"]
    assert counts[1] <= 2


def test_sweep_runs_one_seed_at_a_time_at_the_blas_default(
        tmp_path, monkeypatch, fresh_pool):
    # With no BLAS thread variable set, OpenBLAS takes every usable core, so
    # the seeds run one after the other and no helper thread starts.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(numerics, "usable_cores", lambda: 2)
    counts = _training_counted(monkeypatch)
    before = set(threading.enumerate())
    assert cli.main(["sweep", "--config", _config(tmp_path), "--seeds", "3",
                     "--out", str(tmp_path / "sweep")]) == 0
    assert set(threading.enumerate()) == before and not fresh_pool
    assert counts[1] == 1


def _fitted_model(tmp_path):
    cfg = _config(tmp_path)
    data, model = tmp_path / "data", tmp_path / "model"
    assert cli.main(["gen", "--config", cfg, "--out", str(data)]) == 0
    assert cli.main(["fit", "--config", cfg, "--data", str(data),
                     "--out", str(model)]) == 0
    return cfg, data, model


def _drop_key(path, key):
    doc = json.loads(path.read_text())
    del doc[key]
    path.write_text(json.dumps(doc))


def test_eval_of_a_model_without_checkpoints_is_an_error_line(tmp_path,
                                                               capsys):
    _, data, model = _fitted_model(tmp_path)
    _drop_key(model / "model.json", "checkpoints")
    capsys.readouterr()
    assert cli.main(["eval", "--model", str(model), "--data", str(data)]) == 2
    err = _one_error_line(capsys)
    assert str(model / "model.json") in err and "checkpoints" in err


def test_gen_and_fit_directories_hold_one_archive_beside_json(tmp_path):
    _, data, model = _fitted_model(tmp_path)
    assert sorted(p.name for p in data.iterdir()) == [
        "arrays.npz", "config.json", "manifest.json"]
    assert sorted(p.name for p in model.iterdir()) == [
        "arrays.npz", "config.json", "loss_trace.csv", "model.json"]


def test_fit_of_a_truncated_archive_is_an_error_line(tmp_path, capsys):
    cfg, data, model = _fitted_model(tmp_path)
    path = data / "arrays.npz"
    path.write_bytes(path.read_bytes()[:1000])
    capsys.readouterr()
    assert cli.main(["fit", "--config", cfg, "--data", str(data),
                     "--out", str(tmp_path / "refit")]) == 2
    assert _one_error_line(capsys) == (
        f"error: {path}: not a numpy archive of numeric arrays: "
        f"File is not a zip file\n")
    assert not (tmp_path / "refit").exists()


def _set_key(key, value):
    """An edit setting a JSON file's `key` to `value`; key None replaces the
    whole document."""
    def edit(path):
        doc = json.loads(path.read_text())
        doc = value if key is None else {**doc, key: value}
        path.write_text(json.dumps(doc))
    return edit


def _set_arrays(change):
    """An edit replacing an archive's arrays by change(them as a dict)."""
    return lambda path: rewrite_archive(path, change)


@pytest.mark.parametrize("command,name,edit,fault", [
    ("eval", "model/arrays.npz",
     _set_arrays(lambda a: {**a, "Sigma1": np.eye(4)}),
     "Sigma1: expected shape (3, 3), got (4, 4)"),
    ("fit", "data/arrays.npz",
     _set_arrays(lambda a: {**a, "X1": a["X1"].astype(np.float32)}),
     "X1: expected float64, got float32"),
    ("eval", "data/arrays.npz",
     _set_arrays(lambda a: {**a,
                            "alignment": a["alignment"].astype(np.float32)}),
     "alignment: expected int64, got float32"),
    ("eval", "data/arrays.npz",
     _set_arrays(lambda a: {k: v for k, v in a.items() if k != "P1_test"}),
     "missing arrays ['P1_test']"),
    ("eval", "model/arrays.npz", lambda path: path.write_text("Q1 Sigma1\n"),
     "not a numpy archive of numeric arrays: File is not a zip file"),
    ("eval", "data/manifest.json", _set_key(None, []),
     "expected an object, got []"),
    ("eval", "data/manifest.json", _set_key("latent", 5),
     "latent: expected an object, got 5"),
    ("eval", "data/manifest.json", _set_key("homogeneous", "false"),
     "homogeneous: expected a boolean, got 'false'"),
    ("fit", "data/manifest.json", _set_key("version", 1),
     "version 1 is not 2; regenerate it with `unisca gen --config "
     "<data>/config.json --out <new directory>`"),
    ("eval", "model/model.json", _set_key("checkpoints", [5]),
     "checkpoints/0: expected an [epoch, value] pair, got 5"),
    ("eval", "model/model.json", _set_key("config", ["d_c"]),
     "config: expected an object, got ['d_c']"),
    ("eval", "model/model.json", _set_key("wall_clock_seconds", "x"),
     "wall_clock_seconds: expected a number, got 'x'"),
    ("eval", "model/model.json", _set_key("version", 1),
     "version 1 is not 2; refit the model"),
    ("eval", "model/loss_trace.csv",
     lambda path: path.write_text("epoch,matcher\n0.0,1.5\n"),
     "expected the columns ['epoch', 'matcher', 'rq1', 'rq2', 'anchor', "
     "'hsic', 'total'], got ['epoch', 'matcher']"),
    ("eval", "model/model.json",
     lambda path: _drop_key(path, "wall_clock_seconds"),
     "missing keys ['wall_clock_seconds']"),
    ("eval", "data/arrays.npz",
     _set_arrays(lambda a: {**a, "C_test": a["C_test"][:-5]}),
     "C_test: expected shape (30, 2), got (25, 2)"),
    ("scatter", "data/arrays.npz",
     _set_arrays(lambda a: {**a, "alignment": np.full_like(a["alignment"],
                                                           10**6)}),
     "alignment: not a permutation of range(600)"),
    ("fit", "data/arrays.npz",
     _set_arrays(lambda a: {**a, "X2": np.hstack([a["X2"], a["X2"][:, :1]])}),
     "X2: expected shape (600, 3), got (600, 4)"),
    ("eval", "data/arrays.npz",
     _set_arrays(lambda a: {**a, "A1": a["A1"][:, :2]}),
     "A1: expected shape (3, 3), got (3, 2)"),
    ("eval", "data/manifest.json", _set_key("n_train", 600.0),
     "n_train: expected an integer, got 600.0"),
], ids=["shape", "dtype", "alignment-dtype", "missing-array", "not-a-zip",
        "manifest", "latent", "homogeneous", "dataset-version", "checkpoint",
        "config", "wall-clock", "model-version", "trace-columns",
        "no-wall-clock", "short-test-rows", "alignment-out-of-range",
        "view-width", "mixing-width", "row-count-type"])
def test_a_malformed_saved_file_is_an_error_line(tmp_path, capsys, command,
                                                 name, edit, fault):
    # Each once ended in a traceback (a TypeError, an AttributeError,
    # numpy's matmul or an alignment's IndexError), was misread (an
    # alignment read as float64 became all zeros, a "false" flag was true)
    # or loaded unchecked, and eval scored it (test rows short of the
    # manifest's count).
    cfg, data, model = _fitted_model(tmp_path)
    path = tmp_path / name
    edit(path)
    argv = {"fit": ["fit", "--config", cfg, "--data", str(data),
                    "--out", str(tmp_path / "refit")],
            "eval": ["eval", "--model", str(model), "--data", str(data)],
            "scatter": ["scatter", "--model", str(model), "--data", str(data),
                        "--split", "train",
                        "--out", str(tmp_path / "scatter.csv")]}
    capsys.readouterr()
    assert cli.main(argv[command]) == 2
    fault = fault.replace("<data>", str(data))
    assert _one_error_line(capsys) == f"error: {path}: {fault}\n"
    assert not (model / "report.json").exists()
    assert not (tmp_path / "refit").exists()
    assert not (tmp_path / "scatter.csv").exists()


def test_adversarial_fit_saves_a_discriminator_that_eval_reloads(tmp_path):
    path = _config(tmp_path, matcher="adversarial", disc_hidden=[16, 16],
                   epochs=2)
    data, model = str(tmp_path / "data"), tmp_path / "model"
    assert cli.main(["gen", "--config", path, "--out", data]) == 0
    assert cli.main(["fit", "--config", path, "--data", data,
                     "--out", str(model)]) == 0
    with np.load(model / "arrays.npz") as archive:
        assert sorted(archive.files) == [
            "Q1", "Q2", "Sigma1", "Sigma2", "disc_W0", "disc_W1", "disc_W2",
            "disc_b0", "disc_b1", "disc_b2"]
    assert cli.main(["eval", "--model", str(model), "--data", data]) == 0
    disc = solver.load_model(str(model)).discriminator
    assert disc.hidden == (16, 16)
    assert [w.shape for w in disc.weights] == [(16, 2), (16, 16), (1, 16)]


# Every distribution kind, each built from JSON by gen and read back by fit.
_ALL_KINDS = {
    "shared": [{"kind": "mixture", "params": [[0.5, -2, 1], [0.5, 2, 1]]},
               {"kind": "vonmises", "params": [2.5, 2]}],
    "private1": [{"kind": "normal", "params": [0, 1]},
                 {"kind": "laplace", "params": [1, 6.5]}],
    "private2": [{"kind": "uniform", "params": [-10, 10]},
                 {"kind": "gamma", "params": [0.5, 3]},
                 {"kind": "beta", "params": [1, 3]}]}


def test_gen_fit_eval_on_a_latent_config_of_every_kind(tmp_path):
    cfg = tmp_path / "kinds.json"
    cfg.write_text(json.dumps({
        "version": 1, "data": {"n": 600, "latent": _ALL_KINDS},
        "solver": {"d_c": 2, "epochs": 2, "restarts": 1, "warm_epochs": 0}}))
    data, model = tmp_path / "data", tmp_path / "model"
    assert cli.main(["gen", "--config", str(cfg), "--out", str(data)]) == 0
    latent = json.loads((data / "manifest.json").read_text())["latent"]
    assert {s["kind"] for specs in latent.values() for s in specs} == set(
        datagen._KINDS)
    assert cli.main(["fit", "--config", str(cfg), "--data", str(data),
                     "--out", str(model)]) == 0
    assert cli.main(["eval", "--model", str(model), "--data", str(data)]) == 0
    report = json.loads((model / "report.json").read_text())["report"]
    assert np.isfinite(report["pair_match_error"])


def _five_column_data(tmp_path) -> str:
    """Generate a tiny thm1a dataset mixed into five columns per view."""
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps({"version": 1, "seed": 3, "data": {
        "preset": "thm1a", "n": 600, "d1": 5, "d2": 5}}))
    data = str(tmp_path / "wide")
    assert cli.main(["gen", "--config", str(cfg), "--out", data]) == 0
    return data


def test_scatter_rejects_data_of_another_width(tmp_path, capsys):
    argv = _word_vector_model(tmp_path)
    model = argv[argv.index("--model") + 1]
    data, out = _five_column_data(tmp_path), tmp_path / "scatter.csv"
    capsys.readouterr()
    assert cli.main(["scatter", "--model", model, "--data", data,
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: data has 5 columns, the projection expects 3")
    assert not out.exists()


def test_retrieve_rejects_vectors_of_another_width(tmp_path, capsys):
    argv = _word_vector_model(tmp_path)
    data, model = _five_column_data(tmp_path), str(tmp_path / "wide-model")
    assert cli.main(["fit", "--config", _config(tmp_path), "--data", data,
                     "--out", model]) == 0
    argv[argv.index("--model") + 1] = model
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: data has 3 columns, the projection expects 5")


def test_eval_config_path_must_exist(tmp_path, capsys):
    # Only the model's own config.json may be absent; a misspelt --config
    # once gated nothing and exited 0.
    cfg, data, model = _fitted_model(tmp_path)
    (tmp_path / "strict").mkdir()
    strict = _config(tmp_path / "strict", thresholds={"leakage": 0.0})
    base = ["eval", "--model", str(model), "--data", str(data)]
    assert cli.main(base + ["--config", strict]) == 1
    (model / "report.json").unlink()
    missing = str(tmp_path / "strcit.json")
    capsys.readouterr()
    assert cli.main(base + ["--config", missing]) == 2
    assert missing in _one_error_line(capsys)
    assert not (model / "report.json").exists()
    (model / "config.json").unlink()
    assert cli.main(base) == 0


def test_fit_in_weakly_supervised_mode_samples_anchors_from_the_data(tmp_path,
                                                                     capsys):
    cfg_path = _config(tmp_path, mode="weakly_supervised")
    cfg = {**json.loads((tmp_path / "config.json").read_text()), "anchors": 3}
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    data, model = str(tmp_path / "data"), str(tmp_path / "model")
    assert cli.main(["gen", "--config", cfg_path, "--out", data]) == 0
    assert cli.main(["fit", "--config", cfg_path, "--data", data,
                     "--out", model]) == 0
    saved = solver.load_model(model)
    dataset = datagen.load_dataset(data)
    pairs = datagen.sample_anchors(dataset, 3,
                                   numerics.substream(3, "cli", "anchors"))
    want = solver.fit(dataset.x1, dataset.x2,
                      solver.SolverConfig(seed=3, **cfg["solver"]),
                      anchors=solver.AnchorSet(pairs))
    assert saved.q1.matrix.tobytes() == want.q1.matrix.tobytes()
    assert saved.q2.matrix.tobytes() == want.q2.matrix.tobytes()
    # Word-vector files carry no alignment to sample anchors from.
    vec = tmp_path / "v.vec"
    vec.write_text("3 2\na 1.0 0.2\nb -0.3 1.1\nc 0.7 -0.9\n")
    capsys.readouterr()
    assert cli.main(["fit", "--config", cfg_path, "--emb1", str(vec),
                     "--emb2", str(vec), "--out", str(tmp_path / "weak")]) == 2
    assert ("weak supervision requires a dataset directory"
            in _one_error_line(capsys))


def test_gen_seed_flag_equals_the_config_seed(tmp_path):
    _config(tmp_path)
    cfg = json.loads((tmp_path / "config.json").read_text())
    flag_cfg = tmp_path / "flag.json"
    flag_cfg.write_text(json.dumps({**cfg, "seed": 0}))
    seed_cfg = tmp_path / "seed.json"
    seed_cfg.write_text(json.dumps({**cfg, "seed": 3}))
    by_flag, by_config = tmp_path / "by-flag", tmp_path / "by-config"
    assert cli.main(["gen", "--config", str(flag_cfg), "--seed", "3",
                     "--out", str(by_flag)]) == 0
    assert cli.main(["gen", "--config", str(seed_cfg),
                     "--out", str(by_config)]) == 0
    for name in ("manifest.json", "config.json"):
        assert (by_flag / name).read_bytes() == (by_config / name).read_bytes()
    with np.load(by_flag / "arrays.npz") as a, np.load(by_config / "arrays.npz") as b:
        assert sorted(a.files) == sorted(b.files)
        for name in a.files:
            assert a[name].tobytes() == b[name].tobytes(), name
    # And the seed is what it says: seed 0 writes other draws.
    other = tmp_path / "seed-0"
    assert cli.main(["gen", "--config", str(flag_cfg), "--out", str(other)]) == 0
    with np.load(by_flag / "arrays.npz") as a, np.load(other / "arrays.npz") as b:
        assert a["X1"].tobytes() != b["X1"].tobytes()
