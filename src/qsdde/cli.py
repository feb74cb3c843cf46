"""Command-line entry point.

Every subcommand is reproducible from (config, master seed): the manifest is
written before the outputs and removed again if the run fails, outputs are
written atomically, and a re-run with identical inputs produces
byte-identical CSVs on the same platform.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from .chain import SimulationError, run_algorithm1, run_dqn
from .coeffs import GATE_SAFETY, sigma_matrix, step_size_gate
from .config import ConfigError, ExperimentConfig, _floats, load_config
from .diagnostics import Quadratic, generator_gap
from .experiments import (MomentSuiteSpec, RateSweepSpec, VarianceStudySpec, moment_suite,
                          rate_sweep, variance_study)
from .manifest import (atomic_write_text, ensemble_to_csv, json_text, read_ensemble_csv,
                       rows_to_csv, write_manifest)
from .mdp import (OnlineBufferReplay, _convert, _json_file, _known, _real, load_mdp,
                  validate_mdp)
from .rng import W1_ASSIGNMENT_PATH, W1_SLICED_PATH, spawn_generator
from .sdde import run_sdde
from .wasserstein import w1_assignment_subsampled, w1_sliced


_INPUT = click.Path(exists=True, dir_okay=False)  # a directory is a usage error, not a traceback


def _config_options(fn):
    fn = click.option("--config", "config_path", required=True,
                      type=_INPUT, help="Experiment config JSON.")(fn)
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
           "forced": bool(force and enforced and rejected), "estimates": dict(cfg.estimates)}
    if show:
        show(rec)
    if enforced and rejected:
        msg = (f"{source} {rejected} rejected by the step-size gate: eta_max = "
               f"{rec['eta_max']:.6g} (binding constraint: {rec['binding']})")
        if not force:
            raise ConfigError([f"{msg}; pass --force to override"])
        click.echo(f"warning: {msg} [forced]", err=True)
    return rec


@contextmanager
def _manifest(out_dir, subcommand: str, cfg: ExperimentConfig, gate: dict,
              outputs: list[str]):
    """Write out_dir/manifest.json before any output and yield out_dir as a
    Path; if the block raises, the manifest is removed, so a failed run
    leaves none."""
    out = Path(out_dir)
    path = write_manifest(out, subcommand, cfg.raw, cfg.algo.seed, outputs, gate)
    try:
        yield out
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def _dump(path: Path, obj) -> None:
    atomic_write_text(path, json_text(obj))


def _emit(obj, out_file) -> None:
    """obj as JSON to out_file, or to stdout when out_file is None."""
    if out_file:
        _dump(Path(out_file), obj)
    else:
        click.echo(json_text(obj), nl=False)


def _write_study(out: Path, name: str, res: dict, x: str, y: str, err: str) -> None:
    """The study document res as <name>.json, its rows as <name>.csv (columns
    in key order), and their x, y and err keys as plot_data.csv."""
    rows_to_csv(out / f"{name}.csv", res["rows"], list(res["rows"][0]))
    _dump(out / f"{name}.json", res)
    rows_to_csv(out / "plot_data.csv", [{"x": r[x], "y": r[y], "err": r[err]}
                                        for r in res["rows"]], ["x", "y", "err"])


class _Commands(click.Group):
    """A bad config, gate refusals included, or a diverging run ends with its message,
    and a file that cannot be read or written with its name and the system's reason."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ConfigError, SimulationError) as err:
            raise click.ClickException(str(err)) from err
        except OSError as err:
            if err.filename is None:
                raise
            raise click.ClickException(f"{err.filename}: {err.strerror}") from err


@click.group(cls=_Commands)
def main():
    """Simulate noisy deep-Q parameter chains and their delay diffusions."""


@main.command("validate-mdp")
@click.argument("file", type=_INPUT)
def validate_mdp_cmd(file):
    """Validate an MDP JSON document (or the mdp section of a config)."""
    try:
        doc = _json_file(file)
        spec, replay = load_mdp(doc.get("mdp", doc))
    except (TypeError, ValueError) as err:
        raise click.ClickException(f"{file}: {err}") from err
    failures = validate_mdp(spec, replay)
    click.echo("invalid:\n" + "\n".join(f"  - {f}" for f in failures) if failures else "ok")
    if failures:
        sys.exit(1)


@main.command("simulate-dqn")
@_config_options
@click.option("--out", "out_dir", required=True, type=click.Path())
def simulate_dqn_cmd(config_path, seed_override, force, out_dir):
    """Simulate the noisy parameter chain; write manifest plus checkpoint CSV."""
    cfg = load_config(config_path, seed_override=seed_override)
    gate = _gate(cfg, force, "algo section: eta", [cfg.algo.eta])
    with _manifest(out_dir, "simulate-dqn", cfg, gate, ["chain.csv"]) as out:
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
    cfg = load_config(config_path, seed_override=seed_override)
    gate = _gate(cfg, force, "algo section: eta", [cfg.algo.eta])
    with _manifest(out_dir, "simulate-sdde", cfg, gate, ["sdde.csv"]) as out:
        ens = run_sdde(cfg.net, cfg.mdp, cfg.q, cfg.theta0, cfg.algo, cfg.n_traj,
                       cfg.checkpoints)
        ensemble_to_csv(out / "sdde.csv", ens)
    click.echo(f"wrote {out / 'sdde.csv'}")


@main.command("dump-coefficients")
@_config_options
@click.option("--out", "out_file", type=click.Path(), default=None,
              help="Output JSON path (stdout when omitted).")
@click.option("--points", "points_file", type=_INPUT, default=None,
              help="JSON {\"x\": [...], \"y\": [...]}; defaults to x = y = theta0.")
def dump_coefficients_cmd(config_path, seed_override, force, out_file, points_file):
    """Emit (b, Sigma, beta_bar, sigma, eigenvalues) at a point pair as JSON."""
    cfg = load_config(config_path, seed_override=seed_override)
    _gate(cfg, force, "algo section: eta", [cfg.algo.eta], record=False)
    x = y = cfg.theta0
    if points_file:
        try:
            pts = _json_file(points_file)
            x = _convert("x", pts.get("x"), *_floats(cfg.net.d))
            y = _convert("y", pts.get("y", x), *_floats(cfg.net.d))
            _known(pts, ("x", "y"))
        except ValueError as err:
            raise click.ClickException(f"{points_file}: {err}") from err
    doc = sigma_matrix(cfg.net, cfg.mdp, cfg.q, x, y, cfg.algo.eta, cfg.algo.delta)
    sig = doc["sigma"]
    _emit({**{k: np.asarray(v).tolist() for k, v in doc.items()},
           "sigma_sq_eigenvalues": np.linalg.eigvalsh(sig @ sig.T).tolist()}, out_file)
    if out_file:
        click.echo(f"wrote {out_file}")


@main.command("estimate-w1")
@click.option("--a", "file_a", required=True, type=_INPUT)
@click.option("--b", "file_b", required=True, type=_INPUT)
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
@click.option("--points", "points_file", required=True, type=_INPUT,
              help="JSON {\"points\": [[...], ...], \"target\": [...], \"etas\": [...]}.")
@click.option("--out", "out_file", type=click.Path(), default=None)
def generator_gap_cmd(config_path, seed_override, force, points_file, out_file):
    """Pointwise |eta A_X f - A_theta f| for quadratic f at probe points."""
    cfg = load_config(config_path, seed_override=seed_override)
    d, eta, delta = cfg.net.d, cfg.algo.eta, cfg.algo.delta
    try:
        probes = _json_file(points_file)
        points = _convert("points", probes.get("points"), lambda ps: ps,
                          lambda ps: isinstance(ps, list) and ps,
                          f"a non-empty list of points of d = {d} numbers")
        points = [_convert(f"points[{i}]", p, *_floats(d)) for i, p in enumerate(points)]
        target = _convert("target", probes.get("target", cfg.theta0), *_floats(d))
        etas = _convert("etas", probes.get("etas", [eta, eta / 2, eta / 4]),
                        lambda es: tuple(dict.fromkeys(map(_real, es))),
                        lambda es: es and all(e > 0.0 and np.isfinite(delta / e) for e in es),
                        f"a non-empty list of positive numbers with delta/eta finite at "
                        f"delta = {delta!r}")
        _known(probes, ("points", "target", "etas"))
    except ValueError as err:
        raise click.ClickException(f"{points_file}: {err}") from err
    _gate(cfg, force, f"{points_file}: etas", etas, record=False)
    f = Quadratic(A=np.eye(d), b=np.zeros(d))
    reports = [generator_gap(f, cfg.net, cfg.mdp, cfg.q, x, target, delta, etas)
               for x in points]
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
            f"  L_hat        = {e['L_hat']:.6g}",
            f"  K_hat        = {e['K_hat']:.6g}",
            f"  beta_max_hat = {e['beta_max_hat']:.6g}",
            f"  |b(0,0)|     = {e['b00_norm']:.6g}",
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
    with _manifest(out_dir, "rate-sweep", cfg, gate,
                   ["rate_sweep.csv", "rate_sweep.json", "plot_data.csv"]) as out:
        res = rate_sweep(cfg.net, cfg.mdp, cfg.q, cfg.theta0, cfg.algo, sweep, threads=threads)
        _write_study(out, "rate_sweep", res, "eta", "w1_sliced", "sliced_stderr")
    lo, hi = res["slope_ci95"]
    click.echo(f"slope = {res['slope']:.3f} (95% CI {lo:.3f}..{hi:.3f}); wrote {out}")


@main.command("variance-study")
@_config_options
@_threads_option
@click.option("--out", "out_dir", required=True, type=click.Path())
def variance_study_cmd(config_path, seed_override, force, threads, out_dir):
    """Delayed vs undelayed trace-of-covariance comparison table."""
    cfg = load_config(config_path, seed_override=seed_override)
    gate = _gate(cfg, force, "algo section: eta", [cfg.algo.eta])
    study = cfg.study(VarianceStudySpec)
    with _manifest(out_dir, "variance-study", cfg, gate,
                   ["variance_study.csv", "variance_study.json", "plot_data.csv"]) as out:
        res = variance_study(cfg.net, cfg.mdp, cfg.q, cfg.theta0, cfg.algo, study,
                             threads=threads)
        _write_study(out, "variance_study", res, "time", "trace_cov_theta", "m")
    click.echo(f"trace ratios vs m=1 (chain): {res['ratios_theta']}; wrote {out}")


@main.command("moment-suite")
@_config_options
@click.option("--out", "out_dir", required=True, type=click.Path())
def moment_suite_cmd(config_path, seed_override, force, out_dir):
    """Moment-bound suite over initial conditions scale * e1, one per ic_scales entry."""
    cfg = load_config(config_path, seed_override=seed_override)
    suite = cfg.study(MomentSuiteSpec)
    gate = _gate(cfg, force, "moment_suite section: eta", [suite.eta], suite.delta)
    with _manifest(out_dir, "moment-suite", cfg, gate,
                   ["moment_suite.json", "plot_data.csv"]) as out:
        res = moment_suite(cfg.net, cfg.mdp, cfg.q, cfg.algo, suite)
        _dump(out / "moment_suite.json", res)
        rows_to_csv(out / "plot_data.csv",
                    [{"x": c, "y": v, "err": s} for s in res["ic_scales"]
                     for c, v in zip(res["checkpoints"], res["theta_fourth"][s])],
                    ["x", "y", "err"])
    click.echo(f"stability: theta x{res['stability_theta']:.2f}, "
               f"X x{res['stability_X']:.2f}; wrote {out}")


if __name__ == "__main__":
    main()
