"""Command-line interface: run configurations in, CSV/report files out.

Subcommands
    thresholds   threshold report (key = value text document)
    simulate     one trajectory as CSV (t, regime, S, E, Q, I, R)
    ensemble     n trajectories with derived seeds + summary document
    chain        chain diagnostics: stationary law, transition matrix, occupancy
    compare-det  ensemble mean vs deterministic solution, paired columns

Exit codes: 0 success, 2 configuration error (a run too large to allocate
among them), 3 mathematical domain error (arithmetic overflow and a
non-finite report value among them), 4 output I/O error.
``SEQIRSIM_OUT_DIR`` sets the default output directory.

Every number in an output file is written by :func:`_fmt`, full round-trip
precision with no exponent.  CSV files are written in chunks of rows, in
order.  Wherever ``x == 0`` or ``1e-4 <= |x| < 1e16`` (the guard), ``repr``
gives the same text as :func:`_fmt`, and a CSV float there is formatted as
``repr`` formats it: by the compiled kernel's exact shortest-digit search
when the kernel loads, else by ``repr`` itself.  Every other float goes
through :func:`_fmt`, on the thread that formats its chunk.  The chunks of a
file run through ``integrate._ordered``, the pipeline that ensemble members
run through: with the kernel they are formatted on the calling thread and on
helper threads, one per usable CPU in all, and the calling thread writes
every chunk, in order, so no byte depends on the thread count.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis, chain, integrate, thresholds
from .config import RunConfig, load_config
from .errors import ConfigError, EmptyWindow, MathDomainError, NonFiniteState
from .integrate import Trajectory, derive_seed, iter_ensemble, simulate, simulate_deterministic
from .model import RegimeParameterTable

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MATH = 3
EXIT_IO = 4

#: rows per CSV write.  A kernel-written file holds 2 x threads chunk slots (one
#: slot on one thread), each of _CSV_CHUNK x columns x _CELL_BYTES bytes and a
#: splice table of the same size; the Python writer holds one chunk's strings
_CSV_CHUNK = 1024
#: the most bytes that seqir_csv writes for one cell, its separator included; its
#: fixed-size stores stay inside them too, so a chunk's buffer needs no slack
_CELL_BYTES = 24


def _fmt(x: float) -> str:
    """Decimal text with full round-trip precision (no exponent notation)."""
    return np.format_float_positional(float(x), unique=True, trim="0")


def _cell(value) -> str:
    """Report text of one value: true/false, strings and integers as they are,
    vectors joined by ", ", every other number through :func:`_fmt`."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (str, int, np.integer)):
        return str(value)
    if np.ndim(value) > 0:
        return ", ".join(_cell(v) for v in value)
    return _fmt(value)


def _write_report(path: Path, fields: dict) -> None:
    """One ``key = value`` line per field, in order.  A nan or infinite value
    raises :class:`MathDomainError` naming its key, before the file is opened."""
    for key, value in fields.items():
        if not isinstance(value, str) and not np.isfinite(value).all():
            raise MathDomainError(f"report value {key} = {_cell(value)} is not finite")
    path.write_text("".join(f"{key} = {_cell(value)}\n" for key, value in fields.items()))


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """One row per index of equal-length 1-D columns; integer columns
    (whose values fit in int64) are printed with ``str``, the others with
    :func:`_fmt`.

    Rows are formatted and written ``_CSV_CHUNK`` at a time, in index order:
    the chunks are the tasks of ``integrate._ordered``, and a task's work is
    ``fill(lo, hi, slot)``, which returns the chunk's finished bytes: that of
    :func:`_kernel_rows` when the compiled kernel loads, else that of
    :func:`_python_rows`.  With the kernel the chunks are formatted on
    ``integrate._workers(n_chunks)`` threads, the calling thread among them,
    each into buffer slot ``i % window``, which is not refilled before its
    chunk is written.  Without it they are formatted inline on the calling
    thread, since :func:`_cells` holds the GIL.  The calling thread writes
    each chunk, in order, so no byte depends on the thread count, and both
    formatters write the same bytes.  A file of one chunk is formatted and
    written inline, with no thread."""
    n_rows = len(columns[0])
    if any(np.shape(col) != (n_rows,) for col in columns):
        raise ValueError("CSV columns must be 1-D and of equal length")
    from . import _kernel  # imported on first use: start-up does not pay for it
    kernel, _ = _kernel.load()
    n_chunks = -(-n_rows // _CSV_CHUNK)
    threads = 1 if kernel is None or n_chunks < 2 else integrate._workers(n_chunks)
    n_slots = integrate._window(threads)
    fill = _python_rows(columns) if kernel is None else _kernel_rows(kernel, columns, n_slots)

    def chunk(i: int):
        lo = i * _CSV_CHUNK
        return fill(lo, min(lo + _CSV_CHUNK, n_rows), i % n_slots)

    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for _, data in integrate._ordered(n_chunks, lambda i: i, chunk, threads,
                                          "seqirsim-csv"):
            fh.write(data)


def _python_rows(columns: list[np.ndarray]):
    """The ``fill`` of :func:`_write_csv` for :func:`_cells`: the bytes of
    rows lo..hi-1, whatever the slot."""

    def fill(lo: int, hi: int, slot: int) -> bytes:
        cells = [_cells(col[lo:hi]) for col in columns]
        return "".join([",".join(row) + "\n" for row in zip(*cells)]).encode()

    return fill


def _kernel_rows(kernel, columns: list[np.ndarray], n_slots: int):
    """The ``fill`` of :func:`_write_csv` for the kernel's ``seqir_csv``,
    with ``n_slots`` buffer slots.  ``fill(lo, hi, slot)`` formats rows
    lo..hi-1 (at most ``_CSV_CHUNK``) into the slot and returns their bytes:
    a view of the slot, which is written before the slot is filled again,
    or, where ``seqir_csv`` left cells empty, a copy with those cells filled
    in.  The ``seqir_csv`` call releases the GIL, so helper threads run it.

    ``seqir_csv`` writes integers in decimal, and each float inside the
    guard of :func:`_cells` with the shortest round-trip digits, found by an
    exact integer search, in ``repr``'s positional form.  It leaves every
    other float as an empty cell and records where, and ``fill`` fills it in
    with :func:`_fmt`.  Integer columns are passed as int64 and the others
    as float64, in place when they already are.  The column table
    (addresses, strides and integer flags) is one array, built once; each
    slot is one more, holding its splice table, its byte count and its
    buffer."""
    ints = [col.dtype.kind in "iu" for col in columns]
    cols = [np.asarray(col, dtype=np.int64 if is_int else np.float64)
            for col, is_int in zip(columns, ints)]
    n_cols = len(cols)
    table = np.array([col.ctypes.data for col in cols] + [col.strides[0] for col in cols]
                     + ints, dtype=np.uint64)
    words = table.ctypes.data
    table_args = (words, words + 8 * n_cols, words + 16 * n_cols, n_cols)
    cells = min(_CSV_CHUNK, len(cols[0])) * n_cols
    slots = []
    for _ in range(n_slots):
        # 3 words a splice (byte offset, row, column), the byte count, the buffer
        slot = np.empty(3 * cells + 1 + cells * _CELL_BYTES // 8, dtype=np.int64)
        base = slot.ctypes.data
        slots.append(((base + 8 * (3 * cells + 1), base, base + 8 * 3 * cells),
                      memoryview(slot[3 * cells + 1:].view(np.uint8)),
                      slot[:3 * cells].reshape(cells, 3), slot[3 * cells:3 * cells + 1]))

    def fill(lo: int, hi: int, slot: int):
        addrs, view, splices, n_bytes = slots[slot]
        n = kernel.seqir_csv(*table_args, lo, hi, *addrs)
        if not n:
            return view[:n_bytes[0]]
        parts, start = [], 0
        for offset, row, col in splices[:n].tolist():
            parts += (view[start:offset], _fmt(cols[col][row]).encode())
            start = offset
        return b"".join([*parts, view[start:n_bytes[0]]])

    # plain addresses hold nothing: fill holds every array the kernel reads
    fill.arrays = (cols, table, slots)
    return fill


def _cells(col: np.ndarray) -> list[str]:
    """The text of each value of a 1-D column: ``str`` of integers, and
    :func:`_fmt` of floats.  Where ``x == 0`` or ``1e-4 <= |x| < 1e16`` (the
    guard), ``repr`` prints the same shortest round-trip digits with no
    exponent, so it stands in for :func:`_fmt`; the other values (nan and
    inf among them) go through :func:`_fmt` itself.  This is the reference
    that the kernel's writer is tested against, and the writer when the
    kernel does not load."""
    if np.issubdtype(col.dtype, np.integer):
        return list(map(str, col.tolist()))
    cells = list(map(repr, col.tolist()))
    mag = np.abs(col)
    for j in np.flatnonzero(~((col == 0) | ((mag >= 1e-4) & (mag < 1e16)))).tolist():
        cells[j] = _fmt(col[j])
    return cells


def _out_dir() -> Path:
    return Path(os.environ.get("SEQIRSIM_OUT_DIR", "."))


def write_trajectory_csv(traj: Trajectory, path: Path) -> None:
    """CSV with header t,regime,S,E,Q,I,R; one row per recorded sample."""
    _write_csv(path, ["t", "regime", *Trajectory.COLUMNS],
               [traj.times, traj.regimes, *traj.states.T])


def _backend(traj: Trajectory) -> str:
    """The backend that stepped ``traj``, with the reason for a fallback."""
    reason = traj.metadata.get("backend_reason")
    return traj.metadata["backend"] + (f": {reason}" if reason else "")


def cmd_thresholds(cfg: RunConfig, out_path: Path, quiet: bool) -> int:
    report = thresholds.threshold_report(cfg.table, cfg.generator)
    fields = {
        "rs_star": report.rs_star,
        "rtilde_star": report.rtilde_star,
        "lambda": report.lambda_,
        "pi": report.pi,
        "psi1": report.psi1,
        "psi2": report.psi2,
        "psi3": report.psi3,
        "condition_beta_extinction": report.condition_beta_extinction,
        "condition_beta_persistence_remark": report.condition_beta_persistence_remark,
    }
    if report.bounds is not None:
        fields.update(zip(("E_bound", "Q_bound", "I_bound"), report.bounds))
    else:
        fields["bounds_applicable"] = False
    fields["verdict"] = report.verdict
    _write_report(out_path, fields)
    if not quiet:
        print(f"threshold report -> {out_path} (verdict: {report.verdict})")
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, out_path: Path, quiet: bool) -> int:
    traj = simulate(cfg.simulation, cfg.generator, cfg.table, cfg.policy)
    write_trajectory_csv(traj, out_path)
    if not quiet:
        print(f"trajectory ({len(traj)} samples, {traj.metadata['clamp_events']} "
              f"clamp events, backend {_backend(traj)}) -> {out_path}")
    return EXIT_OK


def cmd_ensemble(cfg: RunConfig, out_dir: Path, quiet: bool) -> int:
    """Write each member's CSV and reduce it as it arrives, in index order,
    then the summary of the reductions.  When a member fails, the CSVs of
    the members before it remain and no summary is written."""
    # an empty summary window is known from the grid alone, before any member runs
    times = cfg.simulation.record_times()
    window = analysis.tail_window(times)
    mask = analysis.window_mask(times, window)
    out_dir.mkdir(parents=True, exist_ok=True)
    members = []
    for i, traj in enumerate(iter_ensemble(cfg.simulation, cfg.generator, cfg.table,
                                           cfg.policy, cfg.ensemble_n,
                                           cfg.ensemble_base_seed)):
        seed = derive_seed(cfg.ensemble_base_seed, i)
        write_trajectory_csv(traj, out_dir / f"traj_{i:03d}_seed_{seed}.csv")
        members.append(analysis.member_statistics(traj, mask, cfg.generator.n_states))

    report = thresholds.threshold_report(cfg.table, cfg.generator)
    pi = chain.StationaryDistribution(report.pi)
    summary = analysis.aggregate_ensemble(members, window, pi, report)
    fields = {
        "n_trajectories": summary.n_trajectories,
        "window": summary.window,
        "extinction_fraction": summary.extinction_fraction,
        "occupancy_l1": summary.occupancy_l1,
        "verdict": summary.verdict,
    }
    for name in Trajectory.COLUMNS:
        fields[f"tail_mean_{name}"] = summary.tail_means[name]
        fields[f"tail_std_{name}"] = summary.tail_stds[name]
    for name, violated in summary.bound_violations.items():
        fields[f"bound_violation_{name}"] = violated
    _write_report(out_dir / "summary.txt", fields)
    if not quiet:
        print(f"{summary.n_trajectories} trajectories -> {out_dir} "
              f"(extinction fraction {summary.extinction_fraction:.2f})")
    return EXIT_OK


def cmd_chain(cfg: RunConfig, out_path: Path, quiet: bool) -> int:
    pi = chain.stationary_distribution(cfg.generator)
    dt = cfg.simulation.dt
    p = chain.transition_matrix(cfg.generator, dt)
    horizon = max(cfg.simulation.horizon, dt)
    n_jumps, occ = chain.sample_occupancy_exact(cfg.generator, cfg.simulation.initial_regime,
                                                horizon, cfg.simulation.seed)
    l1 = float(np.abs(occ - pi.probabilities).sum())
    fields = {"n_states": cfg.generator.n_states, "pi": pi.probabilities, "dt": dt}
    for i, row in enumerate(p):
        fields[f"P_row_{i + 1}"] = row
    fields.update(sampled_horizon=horizon, sampled_jumps=n_jumps,
                  sampled_occupancy=occ, occupancy_l1_distance=l1)
    _write_report(out_path, fields)
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

    first, mean_states = _member_mean(iter_ensemble(frozen_sim, frozen_gen, frozen_table,
                                                    cfg.policy, cfg.ensemble_n,
                                                    cfg.ensemble_base_seed))
    det = simulate_deterministic(cfg.simulation.initial_state, params, cfg.simulation.dt,
                                 cfg.simulation.horizon, cfg.simulation.output_stride)
    header = ["t", *(f"{c}_{kind}" for c in Trajectory.COLUMNS for kind in ("mean", "det"))]
    # column views, so no paired copy of the states is made
    columns = [states[:, j] for j in range(len(Trajectory.COLUMNS))
               for states in (mean_states, det.states)]
    _write_csv(out_path, header, [first.times, *columns])
    if not quiet:
        gap = float(np.abs(mean_states - det.states).max())
        print(f"comparison (regime {k}, n={cfg.ensemble_n}, ensemble backend "
              f"{_backend(first)}, rk4 backend {_backend(det)}) -> {out_path} "
              f"(max |mean - det| = {gap:.3e})")
    return EXIT_OK


def _member_mean(members) -> tuple[Trajectory, np.ndarray]:
    """The first of one or more members and the mean of all their states.
    The states are added in index order into a copy of the first member's
    and divided by the count, which gives the bytes of ``np.mean`` over the
    list of them (axis 0) while it holds the sum, the first member and the
    one being added.  Finite states may sum past the largest float: a mean
    that is not finite raises :class:`NonFiniteState`, naming its column
    and its first row."""
    members = iter(members)
    first = next(members)
    total = first.states.copy()
    n = 1
    with np.errstate(over="ignore"):  # the check below reports it
        for traj in members:
            total += traj.states
            n += 1
    mean = total / n
    bad = ~np.isfinite(mean)
    if bad.any():
        row, col = np.argwhere(bad)[0].tolist()
        raise NonFiniteState(f"ensemble mean {Trajectory.COLUMNS[col]}_mean = "
                             f"{_fmt(mean[row, col])} is not finite at sample {row} "
                             f"(t={first.times[row]:.6g})")
    return first, mean


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand in ``COMMANDS``, built once per process."""
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
    with warnings.catch_warnings(record=True) as caught:
        code = _run(handler, cfg, out, args.quiet)
    # each distinct warning once, as a status line rather than a source excerpt
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    return code


def _run(handler, cfg: RunConfig, out: Path, quiet: bool) -> int:
    """Run one subcommand handler and map its errors onto exit codes."""
    try:
        return handler(cfg, out, quiet)
    except EmptyWindow as exc:
        print(f"config error: the ensemble tail window holds too few samples ({exc}); "
              f"raise simulation.horizon or lower simulation.stride", file=sys.stderr)
        return EXIT_CONFIG
    except (MathDomainError, ArithmeticError) as exc:
        print(f"math domain error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except MemoryError as exc:
        print(f"config error: the run does not fit in memory ({exc}); lower "
              f"simulation.horizon or raise simulation.dt or simulation.stride",
              file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
