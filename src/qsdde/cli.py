"""Command-line entry point.

Every subcommand is reproducible from (config, master seed): the manifest is
written before the outputs, outputs are written atomically, and a re-run
with identical inputs produces byte-identical CSVs on the same platform.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

from .chain import run_algorithm1, run_dqn
from .coeffs import sigma_matrix
from .config import ConfigError, ExperimentConfig, load_config
from .diagnostics import Quadratic, assumption_report, generator_gap
from .experiments import GateError, moment_suite, rate_sweep, variance_study
from .manifest import (atomic_write_text, ensemble_to_csv, read_ensemble_csv,
                       rows_to_csv, write_manifest)
from .mdp import OnlineBufferReplay, load_mdp, validate_mdp
from .rng import spawn_generator
from .wasserstein import w1_assignment_subsampled, w1_sliced

_SNAPSHOT_PATH = (9, 1)  # assumption report in manifests and check-assumptions


def _config_options(fn):
    fn = click.option("--config", "config_path", required=True,
                      type=click.Path(exists=True), help="Experiment config JSON.")(fn)
    fn = click.option("--seed", "seed_override", type=int, default=None,
                      help="Override the config master seed.")(fn)
    fn = click.option("--force", is_flag=True,
                      help="Downgrade the step-size gate to a warning.")(fn)
    return fn


_threads_option = click.option("--threads", type=int, default=1,
                                help="Worker threads for independent experiment arms.")


def _load(config_path, seed_override, force) -> ExperimentConfig:
    try:
        cfg = load_config(config_path, seed_override=seed_override, force=force)
    except ConfigError as err:
        raise click.ClickException(str(err)) from err
    for w in cfg.warnings:
        click.echo(f"warning: {w}", err=True)
    return cfg


def _json_object(path) -> dict:
    """The JSON object in path, else a ClickException naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise click.ClickException(f"{path}: JSON parse error at line {err.lineno}, "
                                       f"column {err.colno}: {err.msg}") from None
    if not isinstance(doc, dict):
        raise click.ClickException(f"{path}: expected a JSON object")
    return doc


def _vector(path, value, name: str, d: int) -> np.ndarray:
    """value as a (d,) float vector, else a ClickException naming the file."""
    try:
        v = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        v = None
    if v is None or v.shape != (d,):
        raise click.ClickException(f"{path}: {name} must be a list of d = {d} numbers")
    return v


def _snapshot(cfg: ExperimentConfig) -> dict:
    rng = spawn_generator(cfg.seed, _SNAPSHOT_PATH)
    return assumption_report(cfg.net, cfg.mdp, cfg.q, cfg.algo, rng).as_dict()


@click.group()
def main():
    """Simulate noisy deep-Q parameter chains and their delay diffusions."""


@main.command("validate-mdp")
@click.argument("file", type=click.Path(exists=True))
def validate_mdp_cmd(file):
    """Validate an MDP JSON document (or the mdp section of a config)."""
    doc = _json_object(file)
    if "mdp" in doc:
        doc = doc["mdp"]
    try:
        spec, replay = load_mdp(doc)
    except ValueError as err:
        raise click.ClickException(str(err))
    report = validate_mdp(spec, replay)
    click.echo(str(report))
    if not report.ok:
        sys.exit(1)


@main.command("simulate-dqn")
@_config_options
@click.option("--out", "out_dir", required=True, type=click.Path())
def simulate_dqn_cmd(config_path, seed_override, force, out_dir):
    """Simulate the noisy parameter chain; write manifest plus checkpoint CSV."""
    cfg = _load(config_path, seed_override, force)
    out = Path(out_dir)
    write_manifest(out, "simulate-dqn", cfg.raw, cfg.seed, ["chain.csv"], _snapshot(cfg))
    if isinstance(cfg.replay, OnlineBufferReplay):
        ens = run_algorithm1(cfg.net, cfg.mdp, cfg.replay, cfg.algo, cfg.n_traj,
                             cfg.checkpoints, cfg.theta0)
    else:
        ens = run_dqn(cfg.net, cfg.mdp, cfg.q, cfg.theta0, cfg.algo, cfg.n_traj,
                      cfg.checkpoints)
    ensemble_to_csv(out / "chain.csv", ens)
    click.echo(f"wrote {out / 'chain.csv'}")


@main.command("simulate-sdde")
@_config_options
@click.option("--out", "out_dir", required=True, type=click.Path())
def simulate_sdde_cmd(config_path, seed_override, force, out_dir):
    """Integrate the delay diffusion; write manifest plus checkpoint CSV."""
    from .sdde import run_sdde
    cfg = _load(config_path, seed_override, force)
    out = Path(out_dir)
    write_manifest(out, "simulate-sdde", cfg.raw, cfg.seed, ["sdde.csv"], _snapshot(cfg))
    ens = run_sdde(cfg.net, cfg.mdp, cfg.q, cfg.theta0, cfg.sdde, cfg.n_traj,
                   cfg.checkpoints)
    ensemble_to_csv(out / "sdde.csv", ens)
    click.echo(f"wrote {out / 'sdde.csv'}")


@main.command("dump-coefficients")
@_config_options
@click.option("--out", "out_file", type=click.Path(), default=None,
              help="Output JSON path (stdout when omitted).")
@click.option("--points", "points_file", type=click.Path(exists=True), default=None,
              help="JSON {\"x\": [...], \"y\": [...]}; defaults to x = y = theta0.")
def dump_coefficients_cmd(config_path, seed_override, force, out_file, points_file):
    """Emit (b, Sigma, beta_bar, sigma, eigenvalues) at a point pair as JSON."""
    cfg = _load(config_path, seed_override, force)
    x = y = cfg.theta0
    if points_file:
        pts = _json_object(points_file)
        x = _vector(points_file, pts.get("x"), "x", cfg.net.d)
        y = _vector(points_file, pts.get("y", x), "y", cfg.net.d)
    cs = sigma_matrix(cfg.net, cfg.mdp, cfg.q, x, y, cfg.algo.eta, cfg.algo.delta)
    payload = {
        "eta": cs.eta, "delta": cs.delta,
        "b": cs.b.tolist(), "Sigma": cs.Sigma.tolist(),
        "beta_bar": cs.beta_bar.tolist(), "sigma": cs.sigma.tolist(),
        "sigma_sq_eigenvalues": np.linalg.eigvalsh(cs.sigma @ cs.sigma.T).tolist(),
    }
    text = json.dumps(payload, indent=2) + "\n"
    if out_file:
        atomic_write_text(Path(out_file), text)
        click.echo(f"wrote {out_file}")
    else:
        click.echo(text, nl=False)


@main.command("estimate-w1")
@click.option("--a", "file_a", required=True, type=click.Path(exists=True))
@click.option("--b", "file_b", required=True, type=click.Path(exists=True))
@click.option("--checkpoint", required=True, type=int)
@click.option("--method", type=click.Choice(["sliced", "assignment", "both"]),
              default="both")
@click.option("--n-proj", type=click.IntRange(min=1), default=64)
@click.option("--cap", type=click.IntRange(min=1), default=512)
@click.option("--seed", type=int, default=0)
@click.option("--out", "out_file", type=click.Path(), default=None)
def estimate_w1_cmd(file_a, file_b, checkpoint, method, n_proj, cap, seed, out_file):
    """Wasserstein-1 between two ensemble CSVs at a shared checkpoint."""
    try:
        _, by_a = read_ensemble_csv(Path(file_a), [checkpoint])
        _, by_b = read_ensemble_csv(Path(file_b), [checkpoint])
    except ValueError as err:
        raise click.ClickException(str(err)) from err
    if checkpoint not in by_a or checkpoint not in by_b:
        raise click.ClickException(f"checkpoint {checkpoint} missing from an input")
    A, B = by_a[checkpoint], by_b[checkpoint]
    if A.shape[1] != B.shape[1]:
        raise click.ClickException(f"dimension mismatch: {file_a} has d = {A.shape[1]}, "
                                   f"{file_b} has d = {B.shape[1]}")
    result = {}
    if method in ("sliced", "both"):
        est = w1_sliced(A, B, n_proj, spawn_generator(seed, (3, 0)))
        result["sliced"] = est.as_dict()
    if method in ("assignment", "both"):
        est = w1_assignment_subsampled(A, B, cap, spawn_generator(seed, (3, 1)))
        result["assignment"] = est.as_dict()
    text = json.dumps(result, indent=2) + "\n"
    if out_file:
        atomic_write_text(Path(out_file), text)
    else:
        click.echo(text, nl=False)


@main.command("generator-gap")
@_config_options
@click.option("--points", "points_file", required=True, type=click.Path(exists=True),
              help="JSON {\"points\": [[...], ...], \"target\": [...], \"n_mc\": n}.")
@click.option("--out", "out_file", type=click.Path(), default=None)
def generator_gap_cmd(config_path, seed_override, force, points_file, out_file):
    """Pointwise |eta A_X f - A_theta f| for quadratic f at probe points."""
    cfg = _load(config_path, seed_override, force)
    probes = _json_object(points_file)
    d = cfg.net.d
    if not isinstance(probes.get("points"), list):
        raise click.ClickException(f'{points_file}: "points" must be a list of '
                                   f"points of d = {d} numbers")
    points = [_vector(points_file, p, f"points[{i}]", d)
              for i, p in enumerate(probes["points"])]
    target = _vector(points_file, probes.get("target", cfg.theta0), "target", d)
    f = Quadratic(A=np.eye(d), b=np.zeros(d))
    reports = []
    try:  # n_mc below 1e3 or a non-positive eta
        n_mc = int(probes.get("n_mc", 100000))
        etas = tuple(probes.get("etas", [cfg.algo.eta, cfg.algo.eta / 2, cfg.algo.eta / 4]))
        for i, x in enumerate(points):
            rng = spawn_generator(cfg.seed, (4, i))
            rep = generator_gap(f, cfg.net, cfg.mdp, cfg.q, x, target, cfg.algo,
                                n_mc, rng, etas=etas)
            reports.append(rep.as_dict())
    except (TypeError, ValueError) as err:
        raise click.ClickException(f"{points_file}: {err}") from err
    text = json.dumps({"reports": reports}, indent=2) + "\n"
    if out_file:
        atomic_write_text(Path(out_file), text)
    else:
        click.echo(text, nl=False)


@main.command("check-assumptions")
@_config_options
@click.option("--out", "out_file", type=click.Path(), default=None)
def check_assumptions_cmd(config_path, seed_override, force, out_file):
    """Estimate regularity constants and report the step-size gate."""
    cfg = _load(config_path, seed_override, force)
    rng = spawn_generator(cfg.seed, _SNAPSHOT_PATH)
    rep = assumption_report(cfg.net, cfg.mdp, cfg.q, cfg.algo, rng)
    click.echo(str(rep))
    if out_file:
        atomic_write_text(Path(out_file), json.dumps(rep.as_dict(), indent=2) + "\n")
    if not rep.passes and not force:
        sys.exit(1)


def _sweep_params(cfg: ExperimentConfig) -> dict:
    block = cfg.raw.get("rate_sweep", {})
    return {
        "eta_grid": block.get("eta_grid", [0.1, 0.05, 0.025, 0.0125]),
        "n_traj": int(block.get("n_traj", 4096)),
        "n_proj": int(block.get("n_proj", 64)),
        "assignment_cap": int(block.get("assignment_cap", 512)),
        "tracked": int(block.get("tracked_coords", 4)),
    }


@main.command("rate-sweep")
@_config_options
@_threads_option
@click.option("--out", "out_dir", required=True, type=click.Path())
def rate_sweep_cmd(config_path, seed_override, force, threads, out_dir):
    """W1 scaling study across a step-size grid at fixed horizon T*eta."""
    cfg = _load(config_path, seed_override, force)
    p = _sweep_params(cfg)
    out = Path(out_dir)
    write_manifest(out, "rate-sweep", cfg.raw, cfg.seed,
                   ["rate_sweep.csv", "rate_sweep.json", "plot_data.csv"],
                   _snapshot(cfg))
    try:
        res = rate_sweep(cfg.net, cfg.mdp, cfg.q, cfg.theta0,
                         eta_grid=p["eta_grid"], delta=cfg.algo.delta, m=cfg.algo.m,
                         T0=cfg.algo.T, eta0=cfg.algo.eta, n_traj=p["n_traj"],
                         seed=cfg.seed, rho=cfg.sdde.rho, n_proj=p["n_proj"],
                         assignment_cap=p["assignment_cap"], tracked=p["tracked"],
                         force=force, threads=threads)
    except GateError as err:
        raise click.ClickException(str(err))
    cols = list(res.rows[0].as_dict().keys())
    rows_to_csv(out / "rate_sweep.csv", [r.as_dict() for r in res.rows], cols)
    atomic_write_text(out / "rate_sweep.json", json.dumps(res.as_dict(), indent=2) + "\n")
    rows_to_csv(out / "plot_data.csv",
                [{"x": r.eta, "y": r.w1_sliced, "err": r.sliced_stderr}
                 for r in res.rows], ["x", "y", "err"])
    click.echo(f"slope = {res.slope:.3f} (95% CI {res.slope_ci95[0]:.3f}.."
               f"{res.slope_ci95[1]:.3f}); wrote {out}")


@main.command("variance-study")
@_config_options
@_threads_option
@click.option("--out", "out_dir", required=True, type=click.Path())
def variance_study_cmd(config_path, seed_override, force, threads, out_dir):
    """Delayed vs undelayed trace-of-covariance comparison table."""
    cfg = _load(config_path, seed_override, force)
    block = cfg.raw.get("variance_study", {})
    m_values = block.get("m_values", [1, cfg.algo.m])
    n_traj = int(block.get("n_traj", cfg.n_traj))
    checkpoints = block.get("checkpoints", list(cfg.checkpoints))
    out = Path(out_dir)
    write_manifest(out, "variance-study", cfg.raw, cfg.seed,
                   ["variance_study.csv", "variance_study.json", "plot_data.csv"],
                   _snapshot(cfg))
    res = variance_study(cfg.net, cfg.mdp, cfg.q, cfg.theta0, m_values=m_values,
                         eta=cfg.algo.eta, delta=cfg.algo.delta, T=cfg.algo.T,
                         n_traj=n_traj, seed=cfg.seed, checkpoints=checkpoints,
                         rho=cfg.sdde.rho, threads=threads)
    cols = list(res.rows[0].as_dict().keys())
    rows_to_csv(out / "variance_study.csv", [r.as_dict() for r in res.rows], cols)
    atomic_write_text(out / "variance_study.json",
                      json.dumps(res.as_dict(), indent=2) + "\n")
    rows_to_csv(out / "plot_data.csv",
                [{"x": r.time, "y": r.trace_cov_theta, "err": r.m}
                 for r in res.rows], ["x", "y", "err"])
    click.echo(f"trace ratios vs m=1 (chain): {res.ratios_theta}; wrote {out}")


@main.command("moment-suite")
@_config_options
@click.option("--out", "out_dir", required=True, type=click.Path())
def moment_suite_cmd(config_path, seed_override, force, out_dir):
    """Moment-bound suite over initial conditions {0, e1, 5 e1}."""
    cfg = _load(config_path, seed_override, force)
    block = cfg.raw.get("moment_suite", {})
    n_traj = int(block.get("n_traj", cfg.n_traj))
    checkpoints = block.get("checkpoints", list(cfg.checkpoints))
    scales = tuple(block.get("ic_scales", [0.0, 1.0, 5.0]))
    out = Path(out_dir)
    write_manifest(out, "moment-suite", cfg.raw, cfg.seed,
                   ["moment_suite.json", "plot_data.csv"], _snapshot(cfg))
    # the block may pin its own regime (moment envelopes want a gentler one)
    res = moment_suite(cfg.net, cfg.mdp, cfg.q,
                       eta=float(block.get("eta", cfg.algo.eta)),
                       delta=float(block.get("delta", cfg.algo.delta)),
                       m=int(block.get("m", cfg.algo.m)),
                       T=int(block.get("T", cfg.algo.T)),
                       n_traj=n_traj, seed=cfg.seed, checkpoints=checkpoints,
                       rho=int(block.get("rho", cfg.sdde.rho)), ic_scales=scales)
    atomic_write_text(out / "moment_suite.json",
                      json.dumps(res.as_dict(), indent=2) + "\n")
    plot_rows = []
    for s in res.ic_scales:
        for c, v in zip(res.checkpoints, res.theta_fourth[s]):
            plot_rows.append({"x": c, "y": v, "err": s})
    rows_to_csv(out / "plot_data.csv", plot_rows, ["x", "y", "err"])
    click.echo(f"stability: theta x{res.stability_theta:.2f}, "
               f"X x{res.stability_X:.2f}; wrote {out}")


if __name__ == "__main__":
    main()
