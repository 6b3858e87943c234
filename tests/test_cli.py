"""End-to-end CLI behavior: exit codes, determinism, artifact schemas."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from cosimo.cli import main
from cosimo.complexes import build_complex, hodge_operators, load_complex, save_complex
from cosimo.experiments import (
    _stratified_split,
    config_from_dict,
    evaluate_trajectory_model,
    generate_trajectories,
)
from cosimo.nn import load_model


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def complex_file(tmp_path):
    path = tmp_path / "complex.json"
    assert run_cli("generate", "--n", "20", "--seed", "7", "--out", str(path)) == 0
    return path


class TestGenerate:
    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run_cli("generate", "--n", "30", "--seed", "7", "--out", str(a)) == 0
        capsys.readouterr()
        assert run_cli("generate", "--n", "30", "--seed", "7", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        summary = json.loads(capsys.readouterr().out)
        assert summary["euler_characteristic"] <= 1  # holes may open it up

    @pytest.mark.parametrize("holes", [None, "[]", "[[0.5, 0.5, 2.0]]"])
    def test_extreme_eigenvalues_match_the_dense_laplacians(self, tmp_path, capsys, holes):
        # read from the spectral records; the dense eigvalsh is the oracle
        path = tmp_path / "c.json"
        argv = ["generate", "--n", "30", "--seed", "3", "--out", str(path)]
        assert run_cli(*argv, *([] if holes is None else ["--holes", holes])) == 0
        summary = json.loads(capsys.readouterr().out)
        cplx = load_complex(path)
        assert (summary["triangles"] == 0) == (holes == "[[0.5, 0.5, 2.0]]")
        if holes == "[]":
            assert summary["lambda_min_L1"] > 0.0  # a disk: no harmonic edge flows
        for k in (0, 1, 2):
            if cplx.num_simplices(k) == 0:
                assert f"lambda_max_L{k}" not in summary
                continue
            w = np.linalg.eigvalsh(hodge_operators(cplx, k).L)
            for name, want in (("max", w[-1]), ("min", w[0])):
                got = summary[f"lambda_{name}_L{k}"]
                assert abs(got - want) <= 1e-10 * max(1.0, abs(w[-1])), (k, name, got, want)

    def test_too_few_points_is_usage_error(self, tmp_path, capsys):
        rc = run_cli("generate", "--n", "2", "--out", str(tmp_path / "c.json"))
        assert rc == 2
        assert "at least 3 points" in capsys.readouterr().err

    def test_default_holes_remove_triangles(self, tmp_path, capsys):
        full = tmp_path / "full.json"
        holed = tmp_path / "holed.json"
        removed = 0
        for seed in range(5):
            run_cli("generate", "--n", "30", "--seed", str(seed), "--holes", "[]",
                    "--out", str(full))
            run_cli("generate", "--n", "30", "--seed", str(seed), "--out", str(holed))
            n_full = len(json.loads(full.read_text())["triangles"])
            n_holed = len(json.loads(holed.read_text())["triangles"])
            removed += n_full - n_holed
        assert removed > 0

    def test_bad_holes_json(self, tmp_path, capsys):
        rc = run_cli("generate", "--holes", "not-json", "--out", str(tmp_path / "x.json"))
        assert rc == 2

    def test_negative_hole_radius_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        rc = run_cli("generate", "--holes", "[[0.5, 0.5, -0.3]]", "--out", str(out))
        assert rc == 2
        assert "  --holes[0][2]: -0.3 is not >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_flag_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            run_cli("generate", "--bogus", "1", "--out", str(tmp_path / "x.json"))
        assert e.value.code == 2


class TestInspect:
    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert run_cli("inspect", "--complex", str(tmp_path / "nope.json")) == 2

    def test_reports_sorted_eigenvalues_and_entropy(self, complex_file, capsys):
        assert run_cli("inspect", "--complex", str(complex_file), "--level", "0") == 0
        report = json.loads(capsys.readouterr().out)
        w = report["eigenvalues_ascending"]
        assert w == sorted(w)
        assert report["spectral_entropy"] is not None
        ks = [report["suggested_K"][f"tau={t:g}"] for t in (0.01, 0.02, 0.05, 0.1, 0.2)]
        assert all(a >= b for a, b in zip(ks, ks[1:]))

    def test_filled_triangle_level0_lists_three(self, tmp_path, capsys):
        path = tmp_path / "tri.json"
        path.write_text(json.dumps({
            "vertices": [0, 1, 2], "edges": [[0, 1], [0, 2], [1, 2]],
            "triangles": [[0, 1, 2]], "positions": None,
        }))
        assert run_cli("inspect", "--complex", str(path), "--level", "0") == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["eigenvalues_ascending"]) == 3

    @pytest.mark.parametrize("holes", [None, "[]", "[[0.5, 0.5, 2.0]]"])
    def test_eigenvalues_match_the_dense_laplacians(self, tmp_path, capsys, holes):
        # read from the spectral records; the dense eigvalsh is the oracle
        path = tmp_path / "c.json"
        argv = ["generate", "--n", "30", "--seed", "3", "--out", str(path)]
        assert run_cli(*argv, *([] if holes is None else ["--holes", holes])) == 0
        capsys.readouterr()
        cplx = load_complex(path)
        assert (cplx.num_simplices(2) == 0) == (holes == "[[0.5, 0.5, 2.0]]")
        for k in (0, 1, 2):
            ops = hodge_operators(cplx, k)
            for op, L in (("down", ops.L_down), ("up", ops.L_up), ("full", ops.L)):
                rc = run_cli("inspect", "--complex", str(path), "--level", str(k), "--op", op)
                if (k, op) == (0, "down"):
                    assert rc == 2 and "has no down Laplacian" in capsys.readouterr().err
                    continue
                assert rc == 0
                got = np.array(json.loads(capsys.readouterr().out)["eigenvalues_ascending"])
                want = np.linalg.eigvalsh(L)
                assert got.shape == want.shape == (cplx.num_simplices(k),)
                np.testing.assert_allclose(got, want, rtol=0.0,
                                           atol=1e-10 * max(1.0, np.max(np.abs(want), initial=0.0)))


class TestRun:
    def _write_config(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return path

    def test_oversmooth_smoke_and_strict(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, {
            "experiment": "oversmooth",
            "seed": 5,
            "realizations": 1,
            "oversmooth": {"layers": 12, "t_grid": [0.1]},
        })
        out = tmp_path / "res"
        rc = run_cli("run", "--config", str(cfg), "--out", str(out), "--strict",
                     "--jobs", "1")
        assert rc == 0
        lines = (out / "oversmooth_results.csv").read_text().splitlines()
        assert len(lines) == 1 + 12 * 2
        assert (out / "oversmooth_manifest.json").exists()

    def test_stability_grid_row_count(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, {
            "experiment": "stability",
            "seed": 6,
            "realizations": 2,
            "stability": {"snr_grid_db": [0, 20], "train_epochs": 0},
        })
        out = tmp_path / "res"
        assert run_cli("run", "--config", str(cfg), "--out", str(out), "--jobs", "1") == 0
        lines = (out / "stability_results.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2 * 2  # header + cells x realizations

    def test_config_mismatch_is_usage_error(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, {"experiment": "stability"})
        rc = run_cli("run", "--experiment", "oversmooth", "--config", str(cfg),
                     "--out", str(tmp_path / "o"))
        assert rc == 2

    def test_schema_violation_reported_with_path(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, {
            "experiment": "oversmooth", "realizations": 0,
        })
        rc = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert rc == 2
        assert "$.realizations" in capsys.readouterr().err

    @pytest.mark.parametrize("text, path", [
        ('{"experiment": "oversmooth", "realizations": 2.0}', "$.realizations"),
        ('{"experiment": "oversmooth", "realizations": 1, "complex": {"n_points": 30.0}}',
         "$.complex.n_points"),
        ('{"experiment": "oversmooth", "realizations": 1, "oversmooth": {"layers": 3.0}}',
         "$.oversmooth.layers"),
        ('{"experiment": "stability", "realizations": 1,'
         ' "stability": {"snr_grid_db": [NaN], "train_epochs": 1}}',
         "$.stability.snr_grid_db[0]"),
        ('{"experiment": "stability", "realizations": 1,'
         ' "stability": {"snr_grid_db": [0], "t_d": NaN, "train_epochs": 1}}',
         "$.stability.t_d"),
        ('{"experiment": "oversmooth", "realizations": 1,'
         ' "complex": {"holes": [[0.5, 0.5, -0.3]]}, "oversmooth": {"layers": 2}}',
         "$.complex.holes[0][2]"),
    ], ids=["realizations-float", "n_points-float", "layers-float", "snr-nan", "t_d-nan",
            "radius-negative"])
    def test_integral_float_nan_or_negative_radius_exits_two(self, tmp_path, capsys,
                                                              text, path):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        rc = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--jobs", "1")
        assert rc == 2
        assert f"  {path}: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_object_config_with_experiment_exits_two(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, [1, 2])
        rc = run_cli("run", "--experiment", "oversmooth", "--config", str(cfg),
                     "--out", str(tmp_path / "o"))
        assert rc == 2
        assert "  $: [1, 2] is not an object" in capsys.readouterr().err

    def test_rerun_byte_identical_csv(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, {
            "experiment": "trajectory",
            "seed": 8,
            "realizations": 1,
            "trajectory": {"epochs": 5, "n_trajectories": 40},
        })
        run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r1"), "--jobs", "1")
        run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r2"), "--jobs", "1")
        a = (tmp_path / "r1" / "trajectory_results.csv").read_bytes()
        b = (tmp_path / "r2" / "trajectory_results.csv").read_bytes()
        assert a == b

    def test_manifest_config_reruns_the_run(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, {
            "experiment": "stability", "seed": 6, "realizations": 1,
            "complex": {"n_points": 12, "holes": []},
            "stability": {"snr_grid_db": [10, "inf"], "train_epochs": 3},
        })
        run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r1"), "--jobs", "1")
        manifest = json.loads((tmp_path / "r1" / "stability_manifest.json").read_text())
        again = tmp_path / "again.json"
        again.write_text(json.dumps(manifest["config"]))
        assert run_cli("run", "--config", str(again), "--out", str(tmp_path / "r2"),
                       "--jobs", "1") == 0
        for name in ("stability_results.csv", "stability_gap_matrix.csv"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


class TestTrainEval:
    def test_train_then_eval_round_trip(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "experiment": "trajectory",
            "seed": 9,
            "trajectory": {"epochs": 30, "n_trajectories": 60, "branches": 1,
                            "hidden": 4, "layers": 2},
        }))
        out = tmp_path / "fit"
        assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert 0.0 <= metrics["test_accuracy"] <= 1.0
        assert (out / "model.json").exists() and (out / "complex.json").exists()
        capsys.readouterr()
        rc = run_cli(
            "eval",
            "--model", str(out / "model.json"),
            "--complex", str(out / "complex.json"),
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["accuracy"] == metrics["test_accuracy"]
        assert report["uniform_baseline"] == metrics["uniform_baseline"]
        assert report["n"] == metrics["n_test"] < 60

    def test_eval_of_a_model_without_triangles(self, tmp_path, capsys):
        # a hole over the whole unit square leaves no triangles, so neither
        # the model nor its checkpoint has a level 2
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "experiment": "trajectory",
            "complex": {"n_points": 10, "holes": [[0.5, 0.5, 2.0]]},
            "trajectory": {"epochs": 2, "n_trajectories": 30},
        }))
        out = tmp_path / "fit"
        assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert json.loads((out / "complex.json").read_text())["triangles"] == []
        capsys.readouterr()
        assert run_cli("eval", "--model", str(out / "model.json"),
                       "--complex", str(out / "complex.json")) == 0
        assert json.loads(capsys.readouterr().out)["accuracy"] == metrics["test_accuracy"]

    @pytest.mark.parametrize("setting", [{"n_trajectories": 1}, {"train_fraction": 0.01}])
    def test_train_without_training_walks_is_a_usage_error(self, tmp_path, capsys, setting):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"experiment": "trajectory", "trajectory": setting}))
        assert run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "fit")) == 2
        assert "no training walk" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def fitted(self, tmp_path_factory):
        """A small checkpoint trained on walks with a non-default turn bias."""
        tmp = tmp_path_factory.mktemp("fit")
        cfg = tmp / "config.json"
        cfg.write_text(json.dumps({
            "experiment": "trajectory",
            "seed": 10,
            "trajectory": {"epochs": 5, "n_trajectories": 60, "branches": 1,
                            "hidden": 4, "layers": 2, "turn_bias": 0.5},
        }))
        assert run_cli("train", "--config", str(cfg), "--out", str(tmp / "fit")) == 0
        return cfg, tmp / "fit"

    def test_train_manifest_records_wall_time(self, fitted):
        _, out = fitted
        manifest = json.loads((out / "train_manifest.json").read_text())
        assert manifest["wall_time_s"] > 0.0

    def test_train_manifest_and_checkpoint_record_the_run(self, fitted):
        cfg, out = fitted
        manifest = json.loads((out / "train_manifest.json").read_text())
        run = json.loads((out / "model.json").read_text())["run"]
        assert run == {"config": manifest["config"], "realization": 0}
        assert manifest["realization"] == 0
        assert config_from_dict(run["config"]) == config_from_dict(json.loads(cfg.read_text()))

    def test_train_refuses_a_negative_realization(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"experiment": "trajectory"}))
        out = tmp_path / "fit"
        rc = run_cli("train", "--config", str(cfg), "--out", str(out), "--realization", "-1")
        assert rc == 2
        assert "--realization must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_scores_the_recorded_realization(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "experiment": "trajectory",
            "seed": 11,
            "trajectory": {"epochs": 3, "n_trajectories": 50, "branches": 1,
                            "hidden": 2, "layers": 2},
        }))
        out = tmp_path / "fit"
        assert run_cli("train", "--config", str(cfg), "--out", str(out),
                       "--realization", "2") == 0
        metrics = json.loads((out / "metrics.json").read_text())
        capsys.readouterr()
        assert run_cli("eval", "--model", str(out / "model.json"),
                       "--complex", str(out / "complex.json")) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {"accuracy": metrics["test_accuracy"],
                          "uniform_baseline": metrics["uniform_baseline"],
                          "n": metrics["n_test"]}

    def test_train_reports_learned_receptive_fields(self, fitted):
        _, out = fitted
        metrics = json.loads((out / "metrics.json").read_text())
        params = json.loads((out / "model.json").read_text())["params"]
        taus = {n: p["data"][0] for n, p in params.items() if n.endswith(("tau_d", "tau_u"))}
        assert taus
        assert metrics["receptive_fields"] == {n: math.exp(tau) for n, tau in taus.items()}

    def test_eval_scores_walks_of_the_config_turn_bias(self, fitted, capsys):
        _, out = fitted
        capsys.readouterr()
        rc = run_cli("eval", "--model", str(out / "model.json"),
                     "--complex", str(out / "complex.json"))
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        cplx = load_complex(out / "complex.json")
        model = load_model(out / "model.json", cplx)
        data = generate_trajectories(cplx, 60, 4, [10, 0, 1], turn_bias=0.5)
        _, test_idx = _stratified_split(data.labels, 0.8, np.random.default_rng([10, 0, 2]))
        assert report["n"] == len(test_idx) < len(data.labels)
        assert report["uniform_baseline"] == float(
            np.mean([1.0 / len(data.candidates[i]) for i in test_idx])
        )
        assert report["accuracy"] == evaluate_trajectory_model(model, data, test_idx)

    def test_eval_refuses_a_complex_of_the_same_sizes(self, fitted, tmp_path, capsys):
        _, out = fitted
        cplx = load_complex(out / "complex.json")
        # Reversed vertex labels: same simplex counts, another checksum.
        n = len(cplx.vertices)
        other = build_complex(
            edges=[[n - 1 - v for v in e] for e in cplx.edges],
            triangles=[[n - 1 - v for v in t] for t in cplx.triangles],
        )
        assert [other.num_simplices(k) for k in (0, 1, 2)] == [
            cplx.num_simplices(k) for k in (0, 1, 2)
        ]
        save_complex(other, tmp_path / "other.json")
        capsys.readouterr()
        rc = run_cli("eval", "--model", str(out / "model.json"),
                     "--complex", str(tmp_path / "other.json"))
        assert rc == 2
        assert "trained on complex" in capsys.readouterr().err

    def test_eval_refuses_a_complex_with_warped_positions(self, fitted, tmp_path, capsys):
        # the same simplices at other positions, where the walks turn otherwise
        _, out = fitted
        data = json.loads((out / "complex.json").read_text())
        data["positions"] = [[x * x, y * y] for x, y in data["positions"]]
        (tmp_path / "warped.json").write_text(json.dumps(data))
        capsys.readouterr()
        rc = run_cli("eval", "--model", str(out / "model.json"),
                     "--complex", str(tmp_path / "warped.json"))
        assert rc == 2
        assert "trained on complex" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--config", "--realization"])
    def test_eval_takes_no_run_setting(self, fitted, capsys, option):
        # the checkpoint records its config and realization
        cfg, out = fitted
        value = {"--config": str(cfg), "--realization": "3"}[option]
        with pytest.raises(SystemExit) as e:
            run_cli("eval", "--model", str(out / "model.json"),
                    "--complex", str(out / "complex.json"), option, value)
        assert e.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err

    @pytest.mark.parametrize("run, message", [
        (None, "records no run"),
        ({"config": {"experiment": "trajectory", "seed": -1}, "realization": 0}, "$.seed"),
        ({"config": {"experiment": "stability"}, "realization": 0}, "no trajectory run"),
        ({"config": {"experiment": "trajectory"}, "realization": -1}, "no trajectory run"),
        ({"config": {"experiment": "trajectory"}, "realization": "0"}, "no trajectory run"),
    ], ids=["absent", "bad-config", "other-experiment", "negative-realization",
            "string-realization"])
    def test_eval_refuses_a_checkpoint_without_a_valid_run(self, fitted, tmp_path, capsys,
                                                           run, message):
        _, out = fitted
        payload = json.loads((out / "model.json").read_text())
        payload["run"] = run
        (tmp_path / "model.json").write_text(json.dumps(payload))
        capsys.readouterr()
        rc = run_cli("eval", "--model", str(tmp_path / "model.json"),
                     "--complex", str(out / "complex.json"))
        assert rc == 2
        assert message in capsys.readouterr().err


class TestEnvOverrides:
    def test_out_dir_and_jobs_from_env(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "experiment": "oversmooth",
            "seed": 4,
            "realizations": 1,
            "oversmooth": {"layers": 5, "t_grid": [0.1]},
        }))
        monkeypatch.setenv("COSIMO_OUT", str(tmp_path / "from_env"))
        monkeypatch.setenv("COSIMO_JOBS", "1")
        assert run_cli("run", "--config", str(cfg)) == 0
        assert (tmp_path / "from_env" / "oversmooth_results.csv").exists()

    def test_non_integer_jobs_env_is_usage_error(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"experiment": "oversmooth", "realizations": 1}))
        monkeypatch.setenv("COSIMO_JOBS", "abc")
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
        assert "COSIMO_JOBS" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_console_script_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "cosimo.cli", "definitely-not-a-command"],
        capture_output=True,
    )
    assert proc.returncode == 2


def _strict_json(text: str):
    """``text`` parsed as RFC 8259 JSON, which has no NaN or Infinity."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


def test_every_printed_and_written_json_is_strict(tmp_path, capsys):
    # a hole over the whole square leaves no triangles, so level 2 is empty
    cplx = tmp_path / "complex.json"
    stability = tmp_path / "stability.json"
    stability.write_text(json.dumps({
        "experiment": "stability", "realizations": 1,
        "stability": {"snr_grid_db": [0, "inf"], "train_epochs": 0},
    }))
    trajectory = tmp_path / "trajectory.json"
    trajectory.write_text(json.dumps({
        "experiment": "trajectory",
        "complex": {"n_points": 10, "holes": [[0.5, 0.5, 2.0]]},
        "trajectory": {"epochs": 2, "n_trajectories": 30},
    }))
    fit = tmp_path / "fit"
    printed = {}
    for argv in (
        ("generate", "--n", "10", "--seed", "3", "--holes", "[[0.5, 0.5, 2.0]]",
         "--out", str(cplx)),
        ("inspect", "--complex", str(cplx), "--level", "2"),
        ("run", "--config", str(stability), "--out", str(tmp_path / "run"), "--jobs", "1"),
        ("train", "--config", str(trajectory), "--out", str(fit)),
        ("eval", "--model", str(fit / "model.json"), "--complex", str(fit / "complex.json")),
    ):
        assert run_cli(*argv) == 0, argv
        printed[argv[0]] = _strict_json(capsys.readouterr().out)
    assert printed["inspect"]["n"] == 0 and printed["inspect"]["lambda_max"] is None
    written = {path.name: _strict_json(path.read_text()) for path in tmp_path.rglob("*.json")}
    assert {"stability_manifest.json", "train_manifest.json", "metrics.json",
            "model.json"} <= set(written)
    # an infinite SNR is written as the string a config gives it as, and each
    # manifest's config reads back to the config of its run
    assert written["stability_manifest.json"]["config"]["stability"]["snr_grid_db"] == [0.0, "inf"]
    for manifest, cfg in (("stability_manifest.json", stability),
                          ("train_manifest.json", trajectory)):
        assert config_from_dict(written[manifest]["config"]) == config_from_dict(
            json.loads(cfg.read_text()))
