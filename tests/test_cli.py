from __future__ import annotations

import json
import os
import stat
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qsdde.cli import main
from qsdde.config import ConfigError, load_config
from qsdde.manifest import read_ensemble_csv

from conftest import make_mdp


def _config_doc(**overrides) -> dict:
    mdp = make_mdp(n_states=2, n_actions=2)
    doc = {
        "seed": 321,
        "mdp": {"states": 2, "actions": 2, "p": mdp.p.tolist(),
                "R": mdp.R.tolist(), "V": mdp.V.tolist(), "gamma": 0.9,
                "replay": {"mode": "idealized",
                           "q": [[0.25, 0.25], [0.25, 0.25]]}},
        "net": {"hidden": [2], "bound_C": 5.0,
                "init": {"dist": "normal", "stddev": 0.4, "seed": 3}},
        "algo": {"eta": 0.05, "delta": 0.5, "m": 3, "T": 12, "rho": 4},
        "checkpoints": [0, 6, 12],
        "n_traj": 24,
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def config_file(tmp_path) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_config_doc()))
    return path


def test_load_config_fills_defaults(config_file):
    cfg = load_config(config_file)
    assert cfg.seed == 321
    assert cfg.net.d == len(cfg.theta0)
    assert cfg.sdde.rho == 4
    assert not cfg.strict_gate


def test_load_config_rejects_bad_gamma(tmp_path):
    doc = _config_doc()
    doc["mdp"]["gamma"] = 1.2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert any("gamma must lie in (0,1)" in e for e in err.value.errors)


def test_load_config_aggregates_errors(tmp_path):
    doc = _config_doc()
    doc["mdp"]["gamma"] = 1.2
    doc["mdp"]["V"][0][0] = -1.0
    doc["algo"]["m"] = 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert len(err.value.errors) >= 3


def test_load_config_parse_error_has_line_context(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"seed": 1,\n  broken\n}')
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "line 2" in err.value.errors[0]


def test_load_config_strict_gate(tmp_path):
    doc = _config_doc(strict_gate=True)
    doc["algo"]["eta"] = 0.2
    path = tmp_path / "gate.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert any("step-size gate" in e for e in err.value.errors)
    cfg = load_config(path, force=True)
    assert any("step-size gate" in w for w in cfg.warnings)


def test_validate_mdp_cli_ok(tmp_path, config_file):
    runner = CliRunner()
    result = runner.invoke(main, ["validate-mdp", str(config_file)])
    assert result.exit_code == 0
    assert "ok" in result.output


def test_validate_mdp_shipped_example():
    shipped = Path(__file__).resolve().parent.parent / "configs" / "desk_scale.json"
    result = CliRunner().invoke(main, ["validate-mdp", str(shipped)])
    assert result.exit_code == 0, result.output


def test_validate_mdp_cli_rejects(tmp_path):
    doc = _config_doc()["mdp"]
    doc["p"][0][0] = [0.5, 0.4]
    path = tmp_path / "mdp.json"
    path.write_text(json.dumps(doc))
    result = CliRunner().invoke(main, ["validate-mdp", str(path)])
    assert result.exit_code == 1
    assert "row sum" in result.output


def test_simulate_dqn_writes_manifest_and_csv(tmp_path, config_file):
    out = tmp_path / "run"
    result = CliRunner().invoke(main, ["simulate-dqn", "--config", str(config_file),
                                       "--out", str(out)])
    assert result.exit_code == 0, result.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "simulate-dqn"
    assert manifest["outputs"] == ["chain.csv"]
    steps, by_step = read_ensemble_csv(out / "chain.csv")
    assert steps == [0, 6, 12]
    d = load_config(config_file).net.d
    assert by_step[12].shape == (24, d)


def test_seed_override_changes_outputs(tmp_path, config_file):
    runner = CliRunner()
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert runner.invoke(main, ["simulate-dqn", "--config", str(config_file),
                                "--out", str(out1)]).exit_code == 0
    assert runner.invoke(main, ["simulate-dqn", "--config", str(config_file),
                                "--out", str(out2), "--seed", "999"]).exit_code == 0
    assert (out1 / "chain.csv").read_bytes() != (out2 / "chain.csv").read_bytes()


def test_threads_only_on_study_commands(tmp_path, config_file):
    result = CliRunner().invoke(main, ["simulate-dqn", "--config", str(config_file),
                                       "--out", str(tmp_path / "run"), "--threads", "2"])
    assert result.exit_code == 2
    assert "No such option" in result.output
    assert not (tmp_path / "run").exists()


def test_simulate_rerun_byte_identical(tmp_path, config_file):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    runner = CliRunner()
    for out in (out1, out2):
        res = runner.invoke(main, ["simulate-dqn", "--config", str(config_file),
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
    assert (out1 / "chain.csv").read_bytes() == (out2 / "chain.csv").read_bytes()


def test_simulate_sdde_and_estimate_w1(tmp_path, config_file):
    runner = CliRunner()
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert runner.invoke(main, ["simulate-dqn", "--config", str(config_file),
                                "--out", str(out_a)]).exit_code == 0
    assert runner.invoke(main, ["simulate-sdde", "--config", str(config_file),
                                "--out", str(out_b)]).exit_code == 0
    res = runner.invoke(main, ["estimate-w1", "--a", str(out_a / "chain.csv"),
                               "--b", str(out_b / "sdde.csv"),
                               "--checkpoint", "12", "--method", "both"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert set(payload) == {"sliced", "assignment"}
    assert payload["sliced"]["value"] >= 0.0
    res2 = runner.invoke(main, ["estimate-w1", "--a", str(out_a / "chain.csv"),
                                "--b", str(out_b / "sdde.csv"),
                                "--checkpoint", "99"])
    assert res2.exit_code != 0


def _two_chains(tmp_path, config_file) -> tuple[Path, Path]:
    runner = CliRunner()
    paths = []
    for tag, seed in (("a", "1"), ("b", "2")):
        out = tmp_path / tag
        res = runner.invoke(main, ["simulate-dqn", "--config", str(config_file),
                                   "--seed", seed, "--out", str(out)])
        assert res.exit_code == 0, res.output
        paths.append(out / "chain.csv")
    return paths[0], paths[1]


def test_estimate_w1_malformed_row_names_file_and_line(tmp_path, config_file):
    path_a, path_b = _two_chains(tmp_path, config_file)
    lines = path_b.read_text().split("\n")
    lines[3] = lines[3].rsplit(",", 1)[0]  # line 4: trajectory 0 at step 12, one field short
    path_b.write_text("\n".join(lines))
    res = CliRunner().invoke(main, ["estimate-w1", "--a", str(path_a), "--b", str(path_b),
                                    "--checkpoint", "12"])
    assert res.exit_code == 1
    assert f"{path_b}, line 4:" in res.output and "fields" in res.output
    assert not isinstance(res.exception, ValueError)
    lines = path_a.read_text().split("\n")
    lines[3] = lines[3].rsplit(",", 1)[0] + ",abc"
    path_a.write_text("\n".join(lines))
    res = CliRunner().invoke(main, ["estimate-w1", "--a", str(path_a), "--b", str(path_a),
                                    "--checkpoint", "12"])
    assert res.exit_code == 1
    assert f"{path_a}, line 4," in res.output and "'abc' is not a number" in res.output


def test_estimate_w1_dimension_mismatch(tmp_path, config_file):
    path_a, path_b = _two_chains(tmp_path, config_file)
    d = load_config(config_file).net.d
    lines = path_b.read_text().rstrip("\n").split("\n")
    lines[0] += f",theta_{d}"
    lines[1:] = [line + ",0.5" for line in lines[1:]]
    path_b.write_text("\n".join(lines) + "\n")
    res = CliRunner().invoke(main, ["estimate-w1", "--a", str(path_a), "--b", str(path_b),
                                    "--checkpoint", "12"])
    assert res.exit_code == 1
    assert f"d = {d}" in res.output and f"d = {d + 1}" in res.output
    assert "dimension mismatch" in res.output


def test_dump_coefficients_json(tmp_path, config_file):
    res = CliRunner().invoke(main, ["dump-coefficients", "--config",
                                    str(config_file)])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert set(payload) >= {"b", "Sigma", "beta_bar", "sigma", "sigma_sq_eigenvalues"}
    d = len(payload["b"])
    sig = np.asarray(payload["sigma"])
    target = (np.asarray(payload["Sigma"]) + np.asarray(payload["beta_bar"])
              + (payload["delta"] / payload["eta"]) * np.eye(d))
    assert np.allclose(sig @ sig.T, target, atol=1e-9)
    assert min(payload["sigma_sq_eigenvalues"]) >= payload["delta"] / payload["eta"] - 1e-10


def test_check_assumptions_cli(tmp_path, config_file):
    out_file = tmp_path / "assumptions.json"
    res = CliRunner().invoke(main, ["check-assumptions", "--config",
                                    str(config_file), "--out", str(out_file),
                                    "--force"])
    assert "assumption report" in res.output
    payload = json.loads(out_file.read_text())
    assert "estimates" in payload and "gate" in payload


def test_generator_gap_cli(tmp_path, config_file):
    cfg = load_config(config_file)
    probes = {"points": [cfg.theta0.tolist()], "n_mc": 2000,
              "etas": [0.1, 0.05]}
    probes_path = tmp_path / "probes.json"
    probes_path.write_text(json.dumps(probes))
    res = CliRunner().invoke(main, ["generator-gap", "--config", str(config_file),
                                    "--points", str(probes_path)])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert len(payload["reports"]) == 1
    assert len(payload["reports"][0]["gaps"]) == 2


def test_unwritable_out_dir_fails_without_partial_files(tmp_path, config_file):
    if os.geteuid() == 0:
        pytest.skip("permission bits do not bind as root")
    locked = tmp_path / "locked"
    locked.mkdir()
    locked.chmod(stat.S_IRUSR | stat.S_IXUSR)
    res = CliRunner().invoke(main, ["simulate-dqn", "--config", str(config_file),
                                    "--out", str(locked / "run")])
    assert res.exit_code != 0
    assert list(locked.iterdir()) == []


def test_variance_study_cli(tmp_path, config_file):
    out = tmp_path / "vs"
    res = CliRunner().invoke(main, ["variance-study", "--config", str(config_file),
                                    "--out", str(out)])
    assert res.exit_code == 0, res.output
    rows = (out / "variance_study.csv").read_text().strip().splitlines()
    assert rows[0].startswith("m,checkpoint,time,trace_cov_theta")
    assert len(rows) == 1 + 2 * 3  # header + |m_values| x |checkpoints|


def test_moment_suite_cli(tmp_path, config_file):
    out = tmp_path / "ms"
    res = CliRunner().invoke(main, ["moment-suite", "--config", str(config_file),
                                    "--out", str(out)])
    assert res.exit_code == 0, res.output
    payload = json.loads((out / "moment_suite.json").read_text())
    assert payload["stability_theta"] > 0
    assert (out / "plot_data.csv").exists()


def test_rate_sweep_cli_small(tmp_path):
    doc = _config_doc()
    doc["rate_sweep"] = {"eta_grid": [0.08, 0.04], "n_traj": 32, "n_proj": 8,
                         "assignment_cap": 32}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "sweep"
    res = CliRunner().invoke(main, ["rate-sweep", "--config", str(path),
                                    "--out", str(out), "--force"])
    assert res.exit_code == 0, res.output
    assert (out / "rate_sweep.csv").exists()
    payload = json.loads((out / "rate_sweep.json").read_text())
    assert len(payload["rows"]) == 2


def test_estimate_w1_rejects_zero_projections_and_cap(tmp_path, config_file):
    path_a, path_b = _two_chains(tmp_path, config_file)
    for opt in ("--n-proj", "--cap"):
        res = CliRunner().invoke(main, ["estimate-w1", "--a", str(path_a), "--b",
                                        str(path_b), "--checkpoint", "12", opt, "0"])
        assert res.exit_code == 2 and opt in res.output and ">=1" in res.output
        assert isinstance(res.exception, SystemExit)


def test_malformed_point_files_name_the_file(tmp_path, config_file):
    d = load_config(config_file).net.d
    bad = tmp_path / "bad.json"
    cases = [("dump-coefficients", {"x": [0.0, 1.0]}, f"x must be a list of d = {d}"),
             ("dump-coefficients", {"x": [0.0] * d, "y": [[0.0] * d]}, f"d = {d}"),
             ("generator-gap", {"pts": [[0.0] * d]}, f"d = {d}"),
             ("generator-gap", {"points": [[0.0] * d, [0.0] * (d + 1)]}, f"d = {d}"),
             ("generator-gap", {"points": [[0.0] * d], "target": [1.0]}, f"d = {d}"),
             ("generator-gap", {"points": [[0.0] * d], "n_mc": 10}, "n_mc must be >= 1e3"),
             ("generator-gap", [[0.0] * d], "expected a JSON object"),
             ("dump-coefficients", '{"x": [1, 2', "JSON parse error at line 1")]
    for cmd, doc, message in cases:
        bad.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        res = CliRunner().invoke(main, [cmd, "--config", str(config_file),
                                        "--points", str(bad)])
        assert res.exit_code == 1, (cmd, doc, res.output)
        assert f"{bad}:" in res.output and message in res.output
        assert isinstance(res.exception, SystemExit)


def test_stream_keys_unique_within_a_run(tmp_path, config_file, monkeypatch):
    # every (seed, spawn key) that spawn_generator or TrajectoryStreams builds
    # during one small rate sweep and one online-buffer simulate-dqn
    import sys
    import qsdde.rng as rng_mod
    keys = []
    spawn, init = rng_mod.spawn_generator, rng_mod.TrajectoryStreams.__init__

    def spawn_rec(seed, path):
        keys.append((seed, tuple(path)))
        return spawn(seed, path)

    def init_rec(self, seed, path, n):
        keys.extend((seed, (*path, i)) for i in range(n))
        init(self, seed, path, n)

    for name, mod in list(sys.modules.items()):
        if name.startswith("qsdde") and getattr(mod, "spawn_generator", None) is spawn:
            monkeypatch.setattr(mod, "spawn_generator", spawn_rec)
    monkeypatch.setattr(rng_mod.TrajectoryStreams, "__init__", init_rec)
    doc = _config_doc(rate_sweep={"eta_grid": [0.08, 0.04], "n_traj": 8, "n_proj": 4,
                                  "assignment_cap": 8})
    online = _config_doc()
    online["mdp"]["replay"] = {"mode": "online_buffer", "capacity": 5, "epsilon": 0.3}
    for cmd, cfg_doc, extra in (("rate-sweep", doc, ["--force"]),
                                ("simulate-dqn", online, [])):
        path = tmp_path / f"{cmd}.json"
        path.write_text(json.dumps(cfg_doc))
        keys.clear()
        res = CliRunner().invoke(main, [cmd, "--config", str(path),
                                        "--out", str(tmp_path / cmd), *extra])
        assert res.exit_code == 0, res.output
        assert len(keys) > 2 and len(set(keys)) == len(keys), cmd
