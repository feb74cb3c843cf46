from __future__ import annotations

import json
import os
import stat
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qsdde.cli import main
from qsdde.coeffs import step_size_gate
from qsdde.config import ConfigError, load_config
from qsdde.experiments import MomentSuiteSpec, VarianceStudySpec
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
    assert cfg.algo.seed == 321
    assert cfg.net.d == len(cfg.theta0)
    assert cfg.algo.rho == 4
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


def test_load_config_rejects_zero_eta(tmp_path):
    # the chain alone admits eta = 0, but a config also drives the diffusion
    doc = _config_doc()
    doc["algo"]["eta"] = 0.0
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.errors == ["algo section: eta must be positive"]


def test_load_config_parse_error_has_line_context(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"seed": 1,\n  broken\n}')
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "line 2" in err.value.errors[0]


def _simulate(path: Path, out: Path, *extra):
    return CliRunner().invoke(main, ["simulate-dqn", "--config", str(path), "--out", str(out),
                                     *extra])


def test_load_config_strict_gate(tmp_path):
    # loading does not gate; a command that runs algo.eta gates it under strict_gate
    doc = _config_doc(strict_gate=True)
    doc["algo"]["eta"] = 0.2
    path = tmp_path / "gate.json"
    path.write_text(json.dumps(doc))
    assert load_config(path).strict_gate is True
    res = _simulate(path, tmp_path / "run")
    assert res.exit_code == 1 and "step-size gate" in res.output
    res = _simulate(path, tmp_path / "run", "--force")
    assert res.exit_code == 0, res.output
    assert "step-size gate" in res.output and "[forced]" in res.output


def test_strict_gate_delta_above_one_is_one_fault(tmp_path):
    # delta > 1 fails the gate's delta constraint: one error naming it, and
    # under force one warning and a completed run
    doc = _config_doc(strict_gate=True)
    doc["algo"]["delta"] = 1.5
    path = tmp_path / "gate.json"
    path.write_text(json.dumps(doc))
    res = _simulate(path, tmp_path / "run")
    assert res.exit_code == 1
    assert res.output.count("\n  - ") == 1
    assert "binding constraint: delta" in res.output
    res = _simulate(path, tmp_path / "run", "--force")
    assert res.exit_code == 0, res.output
    assert res.output.count("warning: ") == 1 and "binding constraint: delta" in res.output
    assert (tmp_path / "run" / "chain.csv").exists()


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
    payload = json.loads(out_file.read_text())  # the gate record of algo.eta
    assert "estimates" in payload and "eta_max" in payload
    assert payload["etas"] == [0.05] and payload["source"] == "algo section: eta"


def test_check_assumptions_reports_a_strict_gate_refusal(tmp_path):
    # check-assumptions prints and writes its report before it refuses; the
    # other commands still refuse at load
    path = tmp_path / "gate.json"
    doc = _config_doc(strict_gate=True)
    doc["algo"]["eta"] = 0.2
    path.write_text(json.dumps(doc))
    out_file = tmp_path / "assumptions.json"
    res = CliRunner().invoke(main, ["check-assumptions", "--config", str(path),
                                    "--out", str(out_file)])
    assert res.exit_code == 1, res.output
    assert "FAIL (binding: " in res.output and "[forced]" not in res.output
    record = json.loads(out_file.read_text())
    assert record["rejected"] == [0.2] and not record["forced"]
    res = CliRunner().invoke(main, ["check-assumptions", "--config", str(path), "--force"])
    assert res.exit_code == 0, res.output
    assert "[forced]" in res.output and "FAIL (binding: " in res.output
    res = CliRunner().invoke(main, ["simulate-dqn", "--config", str(path),
                                    "--out", str(tmp_path / "run")])
    assert res.exit_code == 1 and "step-size gate" in res.output
    assert not (tmp_path / "run").exists()


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


def test_variance_study_runs_an_online_buffer_config_on_uniform_q(tmp_path):
    # only simulate-dqn runs the buffer loop; the studies run the idealized
    # model at uniform q (ExperimentConfig.q)
    written = []
    for replay in ({"mode": "online_buffer", "capacity": 7, "epsilon": 0.3},
                   {"mode": "idealized", "q": [[0.25, 0.25], [0.25, 0.25]]}):
        doc = _config_doc(variance_study={"n_traj": 8})
        doc["mdp"]["replay"] = replay
        path, out = tmp_path / f"{replay['mode']}.json", tmp_path / replay["mode"]
        path.write_text(json.dumps(doc))
        res = CliRunner().invoke(main, ["variance-study", "--config", str(path),
                                        "--out", str(out)])
        assert res.exit_code == 0, res.output
        written.append((out / "variance_study.csv").read_bytes())
    assert written[0] == written[1]


def test_moment_suite_cli(tmp_path, config_file):
    out = tmp_path / "ms"
    res = CliRunner().invoke(main, ["moment-suite", "--config", str(config_file),
                                    "--out", str(out)])
    assert res.exit_code == 0, res.output
    payload = json.loads((out / "moment_suite.json").read_text())
    assert payload["stability_theta"] > 0
    assert (out / "plot_data.csv").exists()


@pytest.mark.parametrize("scales", [[0, 1, 5], [0, 1, 1.0, 5, 0.0]])
def test_moment_suite_cli_integer_scales_key_the_maps(tmp_path, scales):
    # a repeated scale runs once: the scales keep their first-seen order
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config_doc(moment_suite={
        "ic_scales": scales, "n_traj": 8, "T": 4, "rho": 2, "checkpoints": [2, 4]})))
    out = tmp_path / "ms"
    res = CliRunner().invoke(main, ["moment-suite", "--config", str(path), "--out", str(out)])
    assert res.exit_code == 0, res.output
    payload = json.loads((out / "moment_suite.json").read_text())
    assert payload["ic_scales"] == [0.0, 1.0, 5.0]
    for name in ("theta_fourth", "theta_ratios", "x_second", "x_ratios", "x_disp_fits"):
        assert list(payload[name]) == ["0.0", "1.0", "5.0"], name


@pytest.mark.parametrize("grid", [[0.08, 0.04], [0.04, 0.08, 0.04]])
def test_rate_sweep_cli_small(tmp_path, grid):
    # a repeated eta runs once, and the grid runs largest first
    doc = _config_doc()
    doc["rate_sweep"] = {"eta_grid": grid, "n_traj": 32, "n_proj": 8,
                         "assignment_cap": 32}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "sweep"
    res = CliRunner().invoke(main, ["rate-sweep", "--config", str(path),
                                    "--out", str(out), "--force"])
    assert res.exit_code == 0, res.output
    assert (out / "rate_sweep.csv").exists()
    payload = json.loads((out / "rate_sweep.json").read_text())
    assert [row["eta"] for row in payload["rows"]] == [0.08, 0.04]


def test_estimate_w1_rejects_zero_projections_and_cap(tmp_path, config_file):
    path_a, path_b = _two_chains(tmp_path, config_file)
    for opt, value, bound in (("--n-proj", "0", ">=1"), ("--cap", "0", ">=1"),
                              ("--seed", "-1", ">=0")):
        res = CliRunner().invoke(main, ["estimate-w1", "--a", str(path_a), "--b",
                                        str(path_b), "--checkpoint", "12", opt, value])
        assert res.exit_code == 2 and opt in res.output and bound in res.output
        assert isinstance(res.exception, SystemExit)


def test_malformed_point_files_name_the_file(tmp_path, config_file):
    d = load_config(config_file).net.d
    bad = tmp_path / "bad.json"
    cases = [("dump-coefficients", {"x": [0.0, 1.0]}, f"x must be a list of d = {d}"),
             ("dump-coefficients", {"x": [0.0] * d, "y": [[0.0] * d]}, f"d = {d}"),
             ("generator-gap", {"pts": [[0.0] * d]}, f"d = {d}"),
             ("generator-gap", {"points": [[0.0] * d, [0.0] * (d + 1)]}, f"d = {d}"),
             ("generator-gap", {"points": [[0.0] * d], "target": [1.0]}, f"d = {d}"),
             ("generator-gap", {"points": [[0.0] * d], "n_mc": 10},
              "n_mc must be an integer >= 1000, got 10"),
             ("generator-gap", {"points": [[0.0] * d], "n_mc": 1000.9},
              "n_mc must be an integer >= 1000, got 1000.9"),
             ("generator-gap", {"points": [[0.0] * d], "n_mc": "1000"},
              "n_mc must be an integer >= 1000, got '1000'"),
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
    # during one small run of each study and one online-buffer simulate-dqn
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
                                  "assignment_cap": 8},
                      variance_study={"m_values": [1, 3], "n_traj": 8},
                      moment_suite={"T": 6, "n_traj": 8, "checkpoints": [3, 6]})
    online = _config_doc()
    online["mdp"]["replay"] = {"mode": "online_buffer", "capacity": 5, "epsilon": 0.3}
    for cmd, cfg_doc, extra in (("rate-sweep", doc, ["--force"]),
                                ("variance-study", doc, ["--threads", "2"]),
                                ("moment-suite", doc, []),
                                ("simulate-dqn", online, [])):
        path = tmp_path / f"{cmd}.json"
        path.write_text(json.dumps(cfg_doc))
        keys.clear()
        res = CliRunner().invoke(main, [cmd, "--config", str(path),
                                        "--out", str(tmp_path / cmd), *extra])
        assert res.exit_code == 0, res.output
        assert len(keys) > 2 and len(set(keys)) == len(keys), cmd


@pytest.mark.parametrize("section, block, words, extra", [
    ("moment_suite", {"eta": 0}, ["eta must be positive"], []),
    ("moment_suite", {"m": 0}, ["m must be an integer >= 1"], []),
    ("variance_study", {"checkpoints": [6, 13]}, ["checkpoints", "T=12"], []),
    ("variance_study", {"m_values": [3, 5]}, ["m_values"], []),
    ("variance_study", {"m_values": [0, 1]}, ["m_values"], []),
    ("rate_sweep", {"eta_grid": [0.05, -0.01]}, ["eta_grid"], ["--force"]),
    ("rate_sweep", {"eta_grid": [0.05, 2.0]}, ["eta_grid", "0 steps"], ["--force"]),
    ("variance_study", {"n_traj": 0}, ["n_traj must be an integer >= 2"], []),
    ("moment_suite", {"n_trajs": 64}, ["unknown keys", "n_trajs"], []),
    ("rate_sweep", {"eta_grid": [0.08, 0.04], "n_traj": 8},
     ["eta_grid", "step-size gate", "pass --force"], []),
    ("moment_suite", {"eta": "0.05"}, ["eta must be positive, got '0.05'"], []),
    ("moment_suite", {"ic_scales": [True, False]}, ["ic_scales", "[True, False]"], []),
    ("variance_study", {"n_traj": 1}, ["n_traj must be an integer >= 2, got 1"], []),
    ("variance_study", {"n_traj": True}, ["n_traj must be an integer >= 2, got True"], []),
    ("variance_study", {"m_values": [True]}, ["m_values", "[True]"], []),
    ("rate_sweep", {"n_proj": 4.0}, ["n_proj must be an integer >= 1"], ["--force"]),
    ("moment_suite", {"checkpoints": [0]}, ["checkpoints must be", "not all 0"], []),
    ("variance_study", {"checkpoints": [0]}, ["checkpoints must be", "not all 0"], []),
])
def test_bad_study_block_is_one_error_before_the_manifest(tmp_path, section, block, words,
                                                          extra):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config_doc(**{section: block})))
    out = tmp_path / "out"
    res = CliRunner().invoke(main, [section.replace("_", "-"), "--config", str(path),
                                    "--out", str(out), *extra])
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit), res.exception  # no traceback
    assert f"{section} section: " in res.output, res.output
    assert all(w in res.output for w in words), res.output
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("spec_cls, overrides, message", [
    (VarianceStudySpec, {"checkpoints": [0]}, "variance_study section: checkpoints inherited "
     "from top-level checkpoints must be a non-empty list of steps >= 0, not all 0, got [0]"),
    (VarianceStudySpec, {"n_traj": 1}, "variance_study section: n_traj inherited from "
     "top-level n_traj must be an integer >= 2, got 1"),
    (MomentSuiteSpec, {"moment_suite": {"T": 5}}, "moment_suite section: checkpoints inherited "
     "from top-level checkpoints must be a non-empty list of steps in [0, T=5], not all 0, "
     "got [0, 6, 12]"),
])
def test_inherited_study_value_is_refused_under_its_origin(spec_cls, overrides, message):
    # a value a study block leaves out is the run's; an error on it names
    # where it came from and shows it as the config wrote it
    with pytest.raises(ConfigError) as err:
        load_config(_config_doc(**overrides)).study(spec_cls)
    assert err.value.errors == [message]


@pytest.mark.parametrize("section, key, value, words", [
    (None, "checkpoints", "ab", ["top level: checkpoints must be"]),
    (None, "checkpoints", [0, 10.7], ["top level: checkpoints", "T=12", "10.7"]),
    (None, "checkpoints", [0, 13], ["top level: checkpoints", "T=12"]),
    (None, "n_traj", True, ["top level: n_traj must be an integer >= 1, got True"]),
    (None, "seed", -1, ["top level: seed must be an integer >= 0, got -1"]),
    (None, "seed", 1.5, ["top level: seed must be an integer >= 0, got 1.5"]),
    (None, "algo", [1, 2], ["algo section: must be a JSON object"]),
    ("algo", "m", 2.7, ["algo section: m must be an integer >= 1, got 2.7"]),
    ("algo", "m", "5", ["algo section: m must be an integer >= 1, got '5'"]),
    ("algo", "eta", True, ["algo section: eta must be a finite number, got True"]),
    ("net", "hidden", [4.6], ["net section: hidden must be a non-empty list of integers",
                              "got [4.6]"]),
    ("algo", "T", 0, ["algo section: T must be an integer >= 1, got 0"]),
    (None, "strict_gate", "no", ["top level: strict_gate must be true or false, got 'no'"]),
    ("net", "init", 5, ["net section: init must be a JSON object, got 5"]),
    ("net", "init", {"seed": 1.7}, ["net section: init.seed must be an integer >= 0, got 1.7"]),
    ("net", "init", {"seed": "3"}, ["net section: init.seed must be an integer >= 0, got '3'"]),
    ("net", "init", {"stddev": True},
     ["net section: init.stddev must be a finite number >= 0, got True"]),
    ("net", "init", {"stddev": -1}, ["net section: init.stddev must be a finite number >= 0"]),
    ("net", "theta0", "abc", ["net section: theta0 must be a list of d = ", "got 'abc'"]),
    ("net", "theta0", [0.0, True], ["net section: theta0 must be a list of d = "]),
    (None, "n_trajs", 5, ["top level: unknown keys ['n_trajs']"]),
    ("algo", "rhoo", 40, ["algo section: unknown keys ['rhoo']"]),
    ("net", "hiden", [16], ["net section: unknown keys ['hiden']"]),
    ("net", "init", {"stdev": 3.0}, ["net section: unknown keys ['init.stdev']"]),
])
def test_bad_top_level_value_is_one_error_before_the_manifest(tmp_path, section, key, value,
                                                              words):
    doc = _config_doc()
    (doc[section] if section else doc)[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    res = CliRunner().invoke(main, ["simulate-dqn", "--config", str(path), "--out", str(out)])
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit), res.exception  # no traceback
    assert res.output.count("\n  - ") == 1, res.output
    assert all(w in res.output for w in words), res.output
    assert not out.exists()


def test_top_level_checkpoints_sorted_and_deduplicated(config_file):
    doc = json.loads(config_file.read_text())
    cfg = load_config({**doc, "checkpoints": [12, 0, 6, 6]})
    assert cfg.checkpoints == (0, 6, 12)
    assert load_config({k: v for k, v in doc.items() if k != "checkpoints"}).checkpoints \
        == (0, 12)


@pytest.mark.parametrize("n_traj", [0, -3])
def test_nonpositive_n_traj_is_a_config_error(tmp_path, n_traj):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config_doc(n_traj=n_traj)))
    res = CliRunner().invoke(main, ["simulate-dqn", "--config", str(path),
                                    "--out", str(tmp_path / "out")])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert "n_traj must be an integer >= 1" in res.output
    assert not (tmp_path / "out").exists()


def test_a_block_no_command_reads_does_not_matter(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config_doc(moment_suite={"eta": 0, "n_trajs": 1})))
    res = CliRunner().invoke(main, ["simulate-dqn", "--config", str(path),
                                    "--out", str(tmp_path / "out")])
    assert res.exit_code == 0, res.output


def test_threads_must_be_positive(tmp_path, config_file):
    res = CliRunner().invoke(main, ["variance-study", "--config", str(config_file),
                                    "--out", str(tmp_path / "out"), "--threads", "0"])
    assert res.exit_code == 2 and "--threads" in res.output and ">=1" in res.output
    assert not (tmp_path / "out").exists()


def test_one_constants_estimate_per_rate_sweep(tmp_path, monkeypatch):
    # the grid's gate and its record in the manifest share one estimate
    import sys
    import qsdde.coeffs as coeffs
    calls = []
    estimate = coeffs.estimate_constants

    def counted(*args, **kwargs):
        calls.append(args)
        return estimate(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("qsdde") and getattr(mod, "estimate_constants", None) is estimate:
            monkeypatch.setattr(mod, "estimate_constants", counted)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config_doc(
        strict_gate=True, rate_sweep={"eta_grid": [0.08, 0.04], "n_traj": 8, "n_proj": 4,
                                      "assignment_cap": 8})))
    out = tmp_path / "sweep"
    res = CliRunner().invoke(main, ["rate-sweep", "--config", str(path), "--out", str(out),
                                    "--force"])
    assert res.exit_code == 0, res.output
    assert len(calls) == 1
    assert "gate" not in json.loads((out / "rate_sweep.json").read_text())["meta"]
    gate = json.loads((out / "manifest.json").read_text())["gate"]
    assert set(gate) == {"source", "etas", "delta", "eta_max", "constraints", "binding",
                         "rejected", "enforced", "forced", "estimates"}
    assert gate["etas"] == gate["rejected"] == [0.08, 0.04] and gate["forced"]


# the etas each command runs, where they come from, and whether the gate
# applies without strict_gate
_GATE_TABLE = [
    ("simulate-dqn", "algo section: eta", False),
    ("simulate-sdde", "algo section: eta", False),
    ("dump-coefficients", "algo section: eta", False),
    ("variance-study", "algo section: eta", False),
    ("moment-suite", "moment_suite section: eta", False),
    ("generator-gap", "etas", False),
    ("rate-sweep", "rate_sweep section: eta_grid", True),
    ("check-assumptions", "algo section: eta", True),
]


def _eta_max(delta: float = 0.5) -> float:
    """The gate's eta_max on the test config at delta."""
    return step_size_gate(load_config(_config_doc()).estimates, delta)["eta_max"]


def _gate_run(tmp_path, cmd: str, strict: bool, run_eta: float, algo_eta: float, *extra):
    """cmd on the test config at algo.eta = algo_eta, running the eta run_eta."""
    doc = _config_doc(strict_gate=strict)
    doc["algo"]["eta"] = algo_eta
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    args = [cmd, "--config", str(path), "--out", str(out), *extra]
    if cmd == "moment-suite":
        doc["moment_suite"] = {"eta": run_eta, "n_traj": 8, "T": 4, "rho": 2,
                               "checkpoints": [2, 4]}
    elif cmd == "rate-sweep":  # algo.eta only sets the horizon T * eta = 0.6
        doc["algo"]["T"] = round(0.6 / algo_eta)
        doc["rate_sweep"] = {"eta_grid": [run_eta], "n_traj": 8, "n_proj": 4,
                             "assignment_cap": 8}
    elif cmd == "generator-gap":
        points = tmp_path / "points.json"
        points.write_text(json.dumps({"points": [[0.0] * load_config(doc).net.d],
                                      "n_mc": 1000, "etas": [run_eta]}))
        args += ["--points", str(points)]
    else:
        assert run_eta == algo_eta
    path.write_text(json.dumps(doc))
    return CliRunner().invoke(main, args), out


@pytest.mark.parametrize("verdict", ["admitted", "rejected", "forced"])
@pytest.mark.parametrize("cmd, source, always, strict", [
    (cmd, source, always, strict) for cmd, source, always in _GATE_TABLE
    for strict in ((True, False) if always else (True,))])
def test_every_command_gates_the_etas_it_runs(tmp_path, cmd, source, always, strict,
                                              verdict):
    # the eta a command does not run (algo.eta of moment-suite, rate-sweep and
    # generator-gap) gets the other verdict, and does not count
    eta_max = _eta_max()
    good, bad = eta_max / 2, 0.05
    assert bad > 10 * eta_max
    run_eta = good if verdict == "admitted" else bad
    algo_eta = run_eta if source == "algo section: eta" else (bad if run_eta == good else good)
    res, out = _gate_run(tmp_path, cmd, strict, run_eta, algo_eta,
                         *(["--force"] if verdict == "forced" else []))
    if verdict == "rejected":
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.output.count("\n  - ") == 1, res.output
        assert f"{source} [{bad}] rejected by the step-size gate" in res.output, res.output
        assert "binding constraint: " in res.output and "pass --force" in res.output
        if cmd == "check-assumptions":  # the report and --out come first
            assert "FAIL (binding: " in res.output
            assert json.loads(out.read_text())["rejected"] == [bad]
        else:
            assert not out.exists()
        return
    assert res.exit_code == 0, res.output
    assert res.output.count("[forced]") == (verdict == "forced"), res.output
    assert out.exists()


def test_moment_suite_gates_its_eta_at_its_own_delta(tmp_path):
    # the block's delta > 1 fails the gate's delta constraint, whatever algo.delta
    good = _eta_max() / 2
    doc = _config_doc(strict_gate=True, moment_suite={
        "eta": good, "delta": 1.5, "n_traj": 8, "T": 4, "rho": 2, "checkpoints": [2, 4]})
    doc["algo"]["eta"] = good
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, ["moment-suite", "--config", str(path), "--out", str(out)])
    assert res.exit_code == 1, res.output
    assert "moment_suite section: eta" in res.output
    assert "binding constraint: delta" in res.output and not out.exists()


# the commands that write a manifest, and whether they enforce the gate
# without strict_gate (the table under "Command line" in README.md)
_RECORDED = [("simulate-dqn", False), ("simulate-sdde", False), ("variance-study", False),
             ("moment-suite", False), ("rate-sweep", True)]


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("cmd, always", _RECORDED)
def test_manifest_gate_record_holds_what_the_command_ran(tmp_path, cmd, always, strict):
    # algo.eta = 0.05 is rejected; the grid and the moment block run an admitted eta too
    good = _eta_max(0.25) / 2
    doc = _config_doc(strict_gate=strict,
                      rate_sweep={"eta_grid": [good, 0.05], "n_traj": 8, "n_proj": 4,
                                  "assignment_cap": 8},
                      variance_study={"n_traj": 8},
                      moment_suite={"eta": good, "delta": 0.25, "n_traj": 8, "T": 4,
                                    "rho": 2, "checkpoints": [2, 4]})
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, [cmd, "--config", str(path), "--out", str(out), "--force"])
    assert res.exit_code == 0, res.output
    manifest = json.loads((out / "manifest.json").read_text())
    gate = manifest["gate"]
    ran = {"rate-sweep": ([0.05, good], 0.5), "moment-suite": ([good], 0.25)}
    assert (gate["etas"], gate["delta"]) == ran.get(cmd, ([0.05], 0.5))
    assert gate["enforced"] == (always or strict)
    assert set(gate["rejected"]) <= set(gate["etas"])
    assert gate["rejected"] == ([] if cmd == "moment-suite" else [0.05])
    assert gate["forced"] == (gate["enforced"] and bool(gate["rejected"]))
    assert res.output.count("[forced]") == gate["forced"], res.output
    assert "assumption_report" not in manifest
    for name in manifest["outputs"]:  # no study JSON restates the record
        if name.endswith(".json"):
            assert "gate" not in json.loads((out / name).read_text())["meta"]


def test_two_point_sweep_writes_strict_json(tmp_path):
    # a two-point fit has no slope stderr: null, never a NaN token
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    path, out = tmp_path / "cfg.json", tmp_path / "sweep"
    path.write_text(json.dumps(_config_doc(rate_sweep={
        "eta_grid": [0.08, 0.04], "n_traj": 8, "n_proj": 4, "assignment_cap": 8})))
    res = CliRunner().invoke(main, ["rate-sweep", "--config", str(path), "--out", str(out),
                                    "--force"])
    assert res.exit_code == 0, res.output
    docs = {p.name: json.loads(p.read_text(), parse_constant=refuse)
            for p in out.iterdir() if p.suffix == ".json"}
    assert set(docs) == {"manifest.json", "rate_sweep.json"}
    sweep = docs["rate_sweep.json"]
    assert sweep["slope_stderr"] is None and sweep["slope_ci95"] == [None, None]
    # a saturated network has L = K = 0, so its gate constraints 1/(64 L) and
    # L/(8 K^2) are infinite: null in the record
    saturated = _config_doc()
    saturated["net"]["bound_C"] = 1e-300
    path.write_text(json.dumps(saturated))
    out_file = tmp_path / "assumptions.json"
    res = CliRunner().invoke(main, ["check-assumptions", "--config", str(path),
                                    "--out", str(out_file)])
    assert res.exit_code == 0, res.output
    gate = json.loads(out_file.read_text(), parse_constant=refuse)
    assert gate["constraints"] == {"delta": 0.5, "lipschitz_1_over_64L": None,
                                   "growth_L_over_8K2": None}


@pytest.mark.parametrize("cmd", ["dump-coefficients", "generator-gap"])
def test_no_constants_estimate_without_a_gate_or_manifest(tmp_path, cmd, monkeypatch):
    import qsdde.diagnostics as diagnostics
    calls = []
    monkeypatch.setattr(diagnostics, "estimate_constants", lambda *a, **k: calls.append(a))
    res, out = _gate_run(tmp_path, cmd, False, 0.05, 0.05)
    assert calls == []
    assert res.exit_code == 0 and out.exists(), res.output


@pytest.mark.parametrize("doc, words", [
    (5, ["the MDP document must be a JSON object, got 5"]),
    ({"gamma": None}, ["gamma must be a finite number, got None"]),
    ({"gamma": "0.9"}, ["gamma must be a finite number, got '0.9'"]),
    ({"states": "2"}, ["states must be an integer >= 1, got '2'"]),
    ({"replay": 5}, ["replay must be a JSON object, got 5"]),
    ({"replay": {"mode": "online_buffer", "capacity": 7.9, "epsilon": 0.3}},
     ["capacity must be an integer >= 1, got 7.9"]),
    ({"replay": {"mode": "online_buffer", "capacity": True, "epsilon": 0.3}},
     ["capacity must be an integer >= 1, got True"]),
    ({"replay": {"mode": "online_buffer", "capacity": "7", "epsilon": 0.3}},
     ["capacity must be an integer >= 1, got '7'"]),
    ({"replay": {"mode": "online_buffer", "capacity": 7, "epsilon": "0.3"}},
     ["epsilon must be a finite number, got '0.3'"]),
    ({"R": [[0.0, True], [0.0, 0.0]]}, ["R[0][1] must be a number, got True"]),
    ({"V": [["0.1", "0.1"], ["0.1", "0.1"]]}, ["V[0][0] must be a number, got '0.1'"]),
    ({"replay": {"mode": "idealized", "q": [[0.25, 0.25], [0.25, True]]}},
     ["q[1][1] must be a number, got True"]),
    ({"p": [[[1.0, 0.0], [0.5, "0.5"]], [[0.0, 1.0], [1.0, 0.0]]]},
     ["p[0][1][1] must be a number, got '0.5'"]),
    ({"gama": 0.9}, ["unknown keys ['gama']"]),
    ({"replay": {"mode": "idealized", "q": [[0.25, 0.25], [0.25, 0.25]], "capcity": 5}},
     ["unknown keys ['replay.capcity']"]),
    ({"replay": {"mode": "online_buffer", "capacity": 7, "epsilon": 0.3, "capcity": 5}},
     ["unknown keys ['replay.capcity']"]),
])
@pytest.mark.parametrize("cmd", ["validate-mdp", "simulate-dqn"])
def test_bad_mdp_value_is_one_error(tmp_path, cmd, doc, words):
    cfg = _config_doc()
    cfg["mdp"] = doc if not isinstance(doc, dict) else {**cfg["mdp"], **doc}
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(json.dumps(cfg))
    args = ([cmd, str(path)] if cmd == "validate-mdp"
            else [cmd, "--config", str(path), "--out", str(out)])
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit), res.exception  # no traceback
    assert all(w in res.output for w in words), res.output
    assert res.output.count("\n  - ") == (cmd == "simulate-dqn"), res.output
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["dump-coefficients", "estimate-w1", "check-assumptions",
                                 "generator-gap"])
def test_out_file_in_a_missing_directory_is_one_error(tmp_path, config_file, cmd):
    missing = tmp_path / "missing"
    args = [cmd, "--out", str(missing / "out.json")]
    if cmd == "estimate-w1":
        path_a, path_b = _two_chains(tmp_path, config_file)
        args += ["--a", str(path_a), "--b", str(path_b), "--checkpoint", "12"]
    else:
        args += ["--config", str(config_file), "--force"]
    if cmd == "generator-gap":
        points = tmp_path / "points.json"
        points.write_text(json.dumps({"points": [load_config(config_file).theta0.tolist()],
                                      "n_mc": 1000, "etas": [0.05]}))
        args += ["--points", str(points)]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit), res.exception  # no traceback
    assert f"{missing / 'out.json'}: No such file or directory" in res.output
    assert not missing.exists()
