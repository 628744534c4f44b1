"""Command-line interface: run configurations in, CSV/report files out.

Subcommands
    thresholds   threshold report (key = value text document)
    simulate     one trajectory as CSV (t, regime, S, E, Q, I, R)
    ensemble     n trajectories with derived seeds + summary document
    chain        chain diagnostics: stationary law, transition matrix, occupancy
    compare-det  ensemble mean vs deterministic solution, paired columns

Exit codes: 0 success, 2 configuration error, 3 mathematical domain error,
4 output I/O error.  ``SEQIRSIM_OUT_DIR`` sets the default output directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis, chain, thresholds
from .config import RunConfig, load_config
from .errors import ConfigError, EmptyWindow, MathDomainError, NegativeState
from .integrate import Trajectory, derive_seed, simulate, simulate_deterministic, simulate_ensemble
from .model import RegimeParameterTable

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MATH = 3
EXIT_IO = 4


def _fmt(x: float) -> str:
    """Decimal text with full round-trip precision (no exponent notation)."""
    return np.format_float_positional(float(x), unique=True, trim="0")


def _fmt_vector(values) -> str:
    return ", ".join(_fmt(v) for v in values)


def _fmt_bools(values) -> str:
    return ", ".join("true" if v else "false" for v in values)


def _out_dir() -> Path:
    return Path(os.environ.get("SEQIRSIM_OUT_DIR", "."))


def write_trajectory_csv(traj: Trajectory, path: Path) -> None:
    """CSV with header t,regime,S,E,Q,I,R; one row per recorded sample."""
    with open(path, "w", newline="") as fh:
        fh.write("t,regime,S,E,Q,I,R\n")
        for i in range(len(traj)):
            row = ",".join(_fmt(v) for v in traj.states[i])
            fh.write(f"{_fmt(traj.times[i])},{int(traj.regimes[i])},{row}\n")


def _threshold_lines(report: thresholds.ThresholdReport) -> list[str]:
    lines = [
        f"rs_star = {_fmt(report.rs_star)}",
        f"rtilde_star = {_fmt(report.rtilde_star)}",
        f"lambda = {_fmt(report.lambda_)}",
        f"pi = {_fmt_vector(report.pi)}",
        f"psi1 = {_fmt_vector(report.psi1)}",
        f"psi2 = {_fmt_vector(report.psi2)}",
        f"psi3 = {_fmt_vector(report.psi3)}",
        f"condition_beta_extinction = {_fmt_bools(report.condition_beta_extinction)}",
        f"condition_beta_persistence_remark = "
        f"{_fmt_bools(report.condition_beta_persistence_remark)}",
    ]
    if report.bounds is not None:
        e_bound, q_bound, i_bound = report.bounds
        lines += [
            f"E_bound = {_fmt(e_bound)}",
            f"Q_bound = {_fmt(q_bound)}",
            f"I_bound = {_fmt(i_bound)}",
        ]
    else:
        lines.append("bounds_applicable = false")
    lines.append(f"verdict = {report.verdict}")
    return lines


def cmd_thresholds(cfg: RunConfig, out_path: Path, quiet: bool) -> int:
    report = thresholds.threshold_report(cfg.table, cfg.generator,
                                         cfg.policy.slope_at_zero)
    text = "\n".join(_threshold_lines(report)) + "\n"
    out_path.write_text(text)
    if not quiet:
        print(f"threshold report -> {out_path} (verdict: {report.verdict})")
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, out_path: Path, quiet: bool) -> int:
    traj = simulate(cfg.simulation, cfg.generator, cfg.table, cfg.policy)
    write_trajectory_csv(traj, out_path)
    if not quiet:
        print(f"trajectory ({len(traj)} samples, "
              f"{traj.metadata['clamp_events']} clamp events) -> {out_path}")
    return EXIT_OK


def cmd_ensemble(cfg: RunConfig, out_dir: Path, quiet: bool) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    trajectories = simulate_ensemble(cfg.simulation, cfg.generator, cfg.table,
                                     cfg.policy, cfg.ensemble_n, cfg.ensemble_base_seed)
    for i, traj in enumerate(trajectories):
        seed = derive_seed(cfg.ensemble_base_seed, i)
        write_trajectory_csv(traj, out_dir / f"traj_{i:03d}_seed_{seed}.csv")

    report = thresholds.threshold_report(cfg.table, cfg.generator,
                                         cfg.policy.slope_at_zero)
    pi = chain.StationaryDistribution(report.pi)
    summary = analysis.summarize_ensemble(trajectories, pi, report)
    lines = [
        f"n_trajectories = {summary.n_trajectories}",
        f"window = {_fmt(summary.window[0])}, {_fmt(summary.window[1])}",
        f"extinction_fraction = {_fmt(summary.extinction_fraction)}",
        f"occupancy_l1 = {_fmt(summary.occupancy_l1)}",
        f"verdict = {summary.verdict}",
    ]
    for name in Trajectory.COLUMNS:
        lines.append(f"tail_mean_{name} = {_fmt(summary.tail_means[name])}")
        lines.append(f"tail_std_{name} = {_fmt(summary.tail_stds[name])}")
    for name, violated in summary.bound_violations.items():
        lines.append(f"bound_violation_{name} = {'true' if violated else 'false'}")
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n")
    if not quiet:
        print(f"{summary.n_trajectories} trajectories -> {out_dir} "
              f"(extinction fraction {summary.extinction_fraction:.2f})")
    return EXIT_OK


def cmd_chain(cfg: RunConfig, out_path: Path, quiet: bool) -> int:
    pi = chain.stationary_distribution(cfg.generator)
    dt = cfg.simulation.dt
    p = chain.transition_matrix(cfg.generator, dt)
    path = chain.sample_path_exact(cfg.generator, cfg.simulation.initial_regime,
                                   max(cfg.simulation.horizon, dt), cfg.simulation.seed)
    occ = chain.occupancy(path)
    l1 = float(np.abs(occ - pi.probabilities).sum())
    lines = [
        f"n_states = {cfg.generator.n_states}",
        f"pi = {_fmt_vector(pi.probabilities)}",
        f"dt = {_fmt(dt)}",
    ]
    for i, row in enumerate(p):
        lines.append(f"P_row_{i + 1} = {_fmt_vector(row)}")
    lines += [
        f"sampled_horizon = {_fmt(path.horizon)}",
        f"sampled_jumps = {path.n_jumps}",
        f"sampled_occupancy = {_fmt_vector(occ)}",
        f"occupancy_l1_distance = {_fmt(l1)}",
    ]
    out_path.write_text("\n".join(lines) + "\n")
    if not quiet:
        print(f"chain diagnostics -> {out_path} (occupancy L1 {l1:.4f})")
    return EXIT_OK


def cmd_compare_det(cfg: RunConfig, out_path: Path, quiet: bool) -> int:
    """Ensemble mean of the frozen-regime stochastic model vs its
    deterministic solution, on the same recorded grid."""
    k = cfg.simulation.initial_regime
    params = cfg.table[k]
    frozen_gen = chain.validate_generator([[0.0]])
    frozen_table = RegimeParameterTable(rows=(params,))
    frozen_sim = replace(cfg.simulation, initial_regime=1)

    trajectories = simulate_ensemble(frozen_sim, frozen_gen, frozen_table,
                                     cfg.policy, cfg.ensemble_n, cfg.ensemble_base_seed)
    mean_states = np.mean([t.states for t in trajectories], axis=0)
    det = simulate_deterministic(cfg.simulation.initial_state, params, params.M,
                                 cfg.simulation.dt, cfg.simulation.horizon,
                                 cfg.simulation.output_stride)
    times = trajectories[0].times
    header = "t," + ",".join(f"{c}_mean,{c}_det" for c in Trajectory.COLUMNS)
    with open(out_path, "w", newline="") as fh:
        fh.write(header + "\n")
        for i in range(len(times)):
            cells = [_fmt(times[i])]
            for j in range(5):
                cells.append(_fmt(mean_states[i, j]))
                cells.append(_fmt(det.states[i, j]))
            fh.write(",".join(cells) + "\n")
    if not quiet:
        gap = float(np.abs(mean_states - det.states).max())
        print(f"comparison (regime {k}, n={cfg.ensemble_n}) -> {out_path} "
              f"(max |mean - det| = {gap:.3e})")
    return EXIT_OK


# one row per subcommand: name -> (help, default output suffix, handler)
COMMANDS = {
    "thresholds": ("write the threshold/certification report", "_thresholds.txt",
                   cmd_thresholds),
    "simulate": ("integrate one trajectory and write CSV", "_trajectory.csv", cmd_simulate),
    "ensemble": ("run an ensemble with derived seeds", "_ensemble", cmd_ensemble),
    "chain": ("write regime-chain diagnostics", "_chain.txt", cmd_chain),
    "compare-det": ("compare ensemble mean against the deterministic model",
                    "_compare_det.csv", cmd_compare_det),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqirsim",
        description="Regime-switching stochastic SEQIR simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON run configuration")
        p.add_argument("--out", help="output file (directory for 'ensemble')")
        p.add_argument("--seed", type=int, help="override the configured seeds")
        p.add_argument("--quiet", action="store_true", help="suppress status output")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if not 0 <= args.seed < (1 << 64):
                raise ConfigError("--seed must fit in 64 bits")
            cfg = replace(cfg, simulation=replace(cfg.simulation, seed=args.seed),
                          ensemble_base_seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    _, suffix, handler = COMMANDS[args.command]
    out = Path(args.out) if args.out else _out_dir() / (Path(args.config).stem + suffix)
    try:
        return handler(cfg, out, args.quiet)
    except EmptyWindow as exc:
        print(f"config error: the ensemble tail window holds too few samples ({exc}); "
              f"raise simulation.horizon or lower simulation.stride", file=sys.stderr)
        return EXIT_CONFIG
    except (MathDomainError, NegativeState, ZeroDivisionError) as exc:
        print(f"math domain error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
