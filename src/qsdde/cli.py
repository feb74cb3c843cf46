"""Command-line entry point.

Every subcommand is reproducible from (config, master seed): the manifest is
written before the outputs, outputs are written atomically, and a re-run
with identical inputs produces byte-identical CSVs on the same platform.
"""

from __future__ import annotations

import sys
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

from .chain import run_algorithm1, run_dqn
from .coeffs import GATE_SAFETY, sigma_matrix, step_size_gate
from .config import ConfigError, ExperimentConfig, _floats, _index, load_config
from .diagnostics import Quadratic, generator_gap
from .experiments import (MomentSuiteSpec, RateSweepSpec, VarianceStudySpec, moment_suite,
                          rate_sweep, variance_study)
from .manifest import (atomic_write_text, ensemble_to_csv, json_text, read_ensemble_csv,
                       rows_to_csv, write_manifest)
from .mdp import OnlineBufferReplay, _convert, _json_file, _real, load_mdp, validate_mdp
from .rng import GAP_PROBE, W1_ASSIGNMENT_PATH, W1_SLICED_PATH, spawn_generator
from .wasserstein import w1_assignment_subsampled, w1_sliced


def _config_options(fn):
    fn = click.option("--config", "config_path", required=True,
                      type=click.Path(exists=True), help="Experiment config JSON.")(fn)
    fn = click.option("--seed", "seed_override", type=int, default=None,
                      help="Override the config master seed.")(fn)
    fn = click.option("--force", is_flag=True,
                      help="Downgrade the step-size gate to a warning.")(fn)
    return fn


_threads_option = click.option("--threads", type=click.IntRange(min=1), default=1,
                                help="Worker threads for independent experiment arms.")


def _gate(cfg: ExperimentConfig, force: bool, source: str, etas, delta: float | None = None,
          always: bool = False, record: bool = True, show=None) -> dict | None:
    """The run's gate record: the etas a command runs, named by source, judged at
    delta (default algo.delta) on the run's one estimate of the constants.

    The gate is enforced under strict_gate or always: a rejected eta is then one
    ConfigError naming source, or under force one [forced] warning.  A command
    that neither enforces the gate nor stores the record (record=False) gets
    None and makes no estimate.  show(record) runs before any refusal.
    """
    enforced = always or cfg.strict_gate
    if not (enforced or record):
        return None
    verdict = step_size_gate(cfg.estimates, cfg.algo.delta if delta is None else delta, etas)
    rejected = verdict["rejected"]
    rec = {"source": source, **verdict, "enforced": enforced,
           "forced": bool(force and enforced and rejected), "estimates": asdict(cfg.estimates)}
    if show:
        show(rec)
    if enforced and rejected:
        msg = (f"{source} {rejected} rejected by the step-size gate: eta_max = "
               f"{rec['eta_max']:.6g} (binding constraint: {rec['binding']})")
        if not force:
            raise ConfigError([f"{msg}; pass --force to override"])
        click.echo(f"warning: {msg} [forced]", err=True)
    return rec


def _json_object(path) -> dict:
    """The JSON object in path, else a ClickException naming the file."""
    try:
        doc = _json_file(path)
    except ValueError as err:
        raise click.ClickException(f"{path}: {err}") from None
    if not isinstance(doc, dict):
        raise click.ClickException(f"{path}: expected a JSON object")
    return doc


def _vector(path, value, name: str, d: int) -> np.ndarray:
    """value as a point of R^d, else a ClickException naming the file."""
    try:
        return _convert(name, value, *_floats(d))
    except ValueError as err:
        raise click.ClickException(f"{path}: {err}") from err


def _manifest(out_dir, subcommand: str, cfg: ExperimentConfig, gate: dict,
              outputs: list[str]) -> Path:
    """Write out_dir/manifest.json before any output; returns out_dir as a Path."""
    out = Path(out_dir)
    write_manifest(out, subcommand, cfg.raw, cfg.algo.seed, outputs, gate)
    return out


def _dump(path: Path, obj) -> None:
    try:
        atomic_write_text(path, json_text(obj))
    except OSError as err:
        raise click.ClickException(f"{path}: {err.strerror}") from err


def _emit(obj, out_file) -> None:
    """obj as JSON to out_file, or to stdout when out_file is None."""
    if out_file:
        _dump(Path(out_file), obj)
    else:
        click.echo(json_text(obj), nl=False)


def _write_study(out: Path, name: str, res, plot_rows: list[dict]) -> None:
    """<name>.csv of res.rows, <name>.json of res, and plot_data.csv."""
    rows = [asdict(r) for r in res.rows]
    rows_to_csv(out / f"{name}.csv", rows, list(rows[0]))
    _dump(out / f"{name}.json", asdict(res))
    rows_to_csv(out / "plot_data.csv", plot_rows, ["x", "y", "err"])


class _Commands(click.Group):
    """A bad config, gate refusals included, ends a command with its message."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ConfigError as err:
            raise click.ClickException(str(err)) from err


@click.group(cls=_Commands)
def main():
    """Simulate noisy deep-Q parameter chains and their delay diffusions."""


@main.command("validate-mdp")
@click.argument("file", type=click.Path(exists=True))
def validate_mdp_cmd(file):
    """Validate an MDP JSON document (or the mdp section of a config)."""
    doc = _json_object(file)
    try:
        spec, replay = load_mdp(doc.get("mdp", doc))
    except (TypeError, ValueError) as err:
        raise click.ClickException(f"{file}: {err}") from err
    report = validate_mdp(spec, replay)
    click.echo(str(report))
    if not report.ok:
        sys.exit(1)


@main.command("simulate-dqn")
@_config_options
@click.option("--out", "out_dir", required=True, type=click.Path())
def simulate_dqn_cmd(config_path, seed_override, force, out_dir):
    """Simulate the noisy parameter chain; write manifest plus checkpoint CSV."""
    cfg = load_config(config_path, seed_override=seed_override)
    gate = _gate(cfg, force, "algo section: eta", [cfg.algo.eta])
    out = _manifest(out_dir, "simulate-dqn", cfg, gate, ["chain.csv"])
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
    cfg = load_config(config_path, seed_override=seed_override)
    gate = _gate(cfg, force, "algo section: eta", [cfg.algo.eta])
    out = _manifest(out_dir, "simulate-sdde", cfg, gate, ["sdde.csv"])
    ens = run_sdde(cfg.net, cfg.mdp, cfg.q, cfg.theta0, cfg.algo, cfg.n_traj,
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
    cfg = load_config(config_path, seed_override=seed_override)
    _gate(cfg, force, "algo section: eta", [cfg.algo.eta], record=False)
    x = y = cfg.theta0
    if points_file:
        pts = _json_object(points_file)
        x = _vector(points_file, pts.get("x"), "x", cfg.net.d)
        y = _vector(points_file, pts.get("y", x), "y", cfg.net.d)
    cs = sigma_matrix(cfg.net, cfg.mdp, cfg.q, x, y, cfg.algo.eta, cfg.algo.delta)
    payload = {"eta": cs.eta, "delta": cs.delta,
               **{k: getattr(cs, k).tolist() for k in ("b", "Sigma", "beta_bar", "sigma")},
               "sigma_sq_eigenvalues": np.linalg.eigvalsh(cs.sigma @ cs.sigma.T).tolist()}
    _emit(payload, out_file)
    if out_file:
        click.echo(f"wrote {out_file}")


@main.command("estimate-w1")
@click.option("--a", "file_a", required=True, type=click.Path(exists=True))
@click.option("--b", "file_b", required=True, type=click.Path(exists=True))
@click.option("--checkpoint", required=True, type=int)
@click.option("--method", type=click.Choice(["sliced", "assignment", "both"]),
              default="both")
@click.option("--n-proj", type=click.IntRange(min=1), default=64)
@click.option("--cap", type=click.IntRange(min=1), default=512)
@click.option("--seed", type=click.IntRange(min=0), default=0)
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
        est = w1_sliced(A, B, n_proj, spawn_generator(seed, W1_SLICED_PATH))
        result["sliced"] = est.as_dict()
    if method in ("assignment", "both"):
        est = w1_assignment_subsampled(A, B, cap, spawn_generator(seed, W1_ASSIGNMENT_PATH))
        result["assignment"] = est.as_dict()
    _emit(result, out_file)


@main.command("generator-gap")
@_config_options
@click.option("--points", "points_file", required=True, type=click.Path(exists=True),
              help="JSON {\"points\": [[...], ...], \"target\": [...], \"n_mc\": n}.")
@click.option("--out", "out_file", type=click.Path(), default=None)
def generator_gap_cmd(config_path, seed_override, force, points_file, out_file):
    """Pointwise |eta A_X f - A_theta f| for quadratic f at probe points."""
    cfg = load_config(config_path, seed_override=seed_override)
    probes = _json_object(points_file)
    d = cfg.net.d
    if not isinstance(probes.get("points"), list):
        raise click.ClickException(f'{points_file}: "points" must be a list of '
                                   f"points of d = {d} numbers")
    points = [_vector(points_file, p, f"points[{i}]", d)
              for i, p in enumerate(probes["points"])]
    target = _vector(points_file, probes.get("target", cfg.theta0), "target", d)
    f = Quadratic(A=np.eye(d), b=np.zeros(d))
    eta, reports = cfg.algo.eta, []
    try:
        n_mc = _convert("n_mc", probes.get("n_mc", 100000), _index, lambda n: n >= 1000,
                        "an integer >= 1000")
        etas = _convert("etas", probes.get("etas", [eta, eta / 2, eta / 4]),
                        lambda es: tuple(map(_real, es)),
                        lambda es: es and all(e > 0.0 for e in es),
                        "a non-empty list of positive numbers")
        _gate(cfg, force, f"{points_file}: etas", etas, record=False)
        for i, x in enumerate(points):
            rng = spawn_generator(cfg.algo.seed, (GAP_PROBE, i))
            rep = generator_gap(f, cfg.net, cfg.mdp, cfg.q, x, target, cfg.algo,
                                n_mc, rng, etas=etas)
            reports.append(asdict(rep))
    except ConfigError:
        raise
    except (TypeError, ValueError) as err:
        raise click.ClickException(f"{points_file}: {err}") from err
    _emit({"reports": reports}, out_file)


@main.command("check-assumptions")
@_config_options
@click.option("--out", "out_file", type=click.Path(), default=None)
def check_assumptions_cmd(config_path, seed_override, force, out_file):
    """Estimate regularity constants and report the step-size gate; a failing
    gate exits 1 after the report (and --out, the gate record) unless --force."""
    cfg = load_config(config_path, seed_override=seed_override)
    eta, e = cfg.algo.eta, cfg.estimates

    def report(rec):
        click.echo("\n".join([
            "assumption report",
            f"  L_hat        = {e.L_hat:.6g}",
            f"  K_hat        = {e.K_hat:.6g}",
            f"  beta_max_hat = {e.beta_max_hat:.6g}",
            f"  |b(0,0)|     = {e.b00_norm:.6g}",
            f"  gate: eta <= {rec['eta_max']:.6g} (safety x{GATE_SAFETY:g}), "
            f"delta <= 1: {'yes' if 0.0 < rec['delta'] <= 1.0 else 'NO'}",
            f"  eta = {eta:.6g}, delta = {rec['delta']:.6g} -> "
            + (f"FAIL (binding: {rec['binding']})" if rec["rejected"] else "PASS")]))
        if out_file:
            _dump(Path(out_file), rec)

    _gate(cfg, force, "algo section: eta", [eta], always=True, show=report)


@main.command("rate-sweep")
@_config_options
@_threads_option
@click.option("--out", "out_dir", required=True, type=click.Path())
def rate_sweep_cmd(config_path, seed_override, force, threads, out_dir):
    """W1 scaling study across a step-size grid at fixed horizon T*eta."""
    cfg = load_config(config_path, seed_override=seed_override)
    sweep = cfg.study(RateSweepSpec)
    gate = _gate(cfg, force, "rate_sweep section: eta_grid", sweep.eta_grid, always=True)
    out = _manifest(out_dir, "rate-sweep", cfg, gate,
                    ["rate_sweep.csv", "rate_sweep.json", "plot_data.csv"])
    res = rate_sweep(cfg.net, cfg.mdp, cfg.q, cfg.theta0, cfg.algo, sweep, threads=threads)
    _write_study(out, "rate_sweep", res,
                 [{"x": r.eta, "y": r.w1_sliced, "err": r.sliced_stderr} for r in res.rows])
    click.echo(f"slope = {res.slope:.3f} (95% CI {res.slope_ci95[0]:.3f}.."
               f"{res.slope_ci95[1]:.3f}); wrote {out}")


@main.command("variance-study")
@_config_options
@_threads_option
@click.option("--out", "out_dir", required=True, type=click.Path())
def variance_study_cmd(config_path, seed_override, force, threads, out_dir):
    """Delayed vs undelayed trace-of-covariance comparison table."""
    cfg = load_config(config_path, seed_override=seed_override)
    gate = _gate(cfg, force, "algo section: eta", [cfg.algo.eta])
    study = cfg.study(VarianceStudySpec)
    out = _manifest(out_dir, "variance-study", cfg, gate,
                    ["variance_study.csv", "variance_study.json", "plot_data.csv"])
    res = variance_study(cfg.net, cfg.mdp, cfg.q, cfg.theta0, cfg.algo, study,
                         threads=threads)
    _write_study(out, "variance_study", res,
                 [{"x": r.time, "y": r.trace_cov_theta, "err": r.m} for r in res.rows])
    click.echo(f"trace ratios vs m=1 (chain): {res.ratios_theta}; wrote {out}")


@main.command("moment-suite")
@_config_options
@click.option("--out", "out_dir", required=True, type=click.Path())
def moment_suite_cmd(config_path, seed_override, force, out_dir):
    """Moment-bound suite over initial conditions scale * e1, one per ic_scales entry."""
    cfg = load_config(config_path, seed_override=seed_override)
    suite = cfg.study(MomentSuiteSpec)
    gate = _gate(cfg, force, "moment_suite section: eta", [suite.eta], suite.delta)
    out = _manifest(out_dir, "moment-suite", cfg, gate, ["moment_suite.json", "plot_data.csv"])
    res = moment_suite(cfg.net, cfg.mdp, cfg.q, cfg.algo, suite)
    _dump(out / "moment_suite.json", asdict(res))
    rows_to_csv(out / "plot_data.csv",
                [{"x": c, "y": v, "err": s} for s in res.ic_scales
                 for c, v in zip(res.checkpoints, res.theta_fourth[s])], ["x", "y", "err"])
    click.echo(f"stability: theta x{res.stability_theta:.2f}, "
               f"X x{res.stability_X:.2f}; wrote {out}")


if __name__ == "__main__":
    main()
