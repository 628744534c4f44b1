"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and runtimes as they complete.  Monte Carlo criteria use the fixed seed
sets written below; asymptotic claims are asserted as seed majorities.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from seqirsim import (
    EpidemicState,
    PolicyFunction,
    RegimeParameterTable,
    SimulationConfig,
    detect_extinction,
    invariant_set_bounds,
    persistence_bounds,
    simulate,
    stationary_distribution,
    time_average,
    transition_matrix,
    validate_generator,
)
from seqirsim.cli import main
from seqirsim.errors import NotPersistent
from seqirsim.integrate import _step
from seqirsim.model import regime_constants
from seqirsim.thresholds import (
    compute_lambda,
    compute_rs_star,
    compute_rtilde_star,
    psi1_vector,
    psi2_vector,
    psi3_vector,
    threshold_report,
)

from conftest import (
    EX1_PARAMS,
    EX2_PARAMS,
    GENERATOR_2,
    GENERATOR_4,
    P_4_PRINTED,
    PERSISTENT_PARAMS,
    PI_4_PRINTED,
    REPORTED_RS_STAR_EX1,
    REPORTED_RTILDE_STAR_EX2,
    table_from_lists,
)
from exact_oracle import exact_params, exact_stationary, exact_thresholds

LINEAR = PolicyFunction.linear()
SEEDS = tuple(range(20))


def report(num, name, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({detail}) [{elapsed:.2f}s]")


def coarse_config(initial_regime=3, **overrides):
    kwargs = dict(dt=1e-3, horizon=1000.0,
                  initial_state=EpidemicState(20, 20, 15, 10, 0),
                  initial_regime=initial_regime, scheme="milstein",
                  chain_mode="discretized", output_stride=1000)
    kwargs.update(overrides)
    return SimulationConfig(**kwargs)


@pytest.fixture(scope="module")
def gen4_():
    return validate_generator(GENERATOR_4)


@pytest.fixture(scope="module")
def tables():
    return table_from_lists(EX1_PARAMS), table_from_lists(EX2_PARAMS)


def test_c01_stationary_distribution(gen4_):
    t0 = time.perf_counter()
    pi = stationary_distribution(gen4_).probabilities
    dev = float(np.abs(pi - np.array(PI_4_PRINTED)).max())
    ok = dev < 5e-5 and (time.perf_counter() - t0) < 1.0
    report(1, "stationary-distribution", ok, f"max deviation {dev:.2e} < 5e-5", t0)
    assert ok


def test_c02_transition_matrix(gen4_):
    t0 = time.perf_counter()
    p = transition_matrix(gen4_, 1e-4)
    dev = float(np.abs(p - np.array(P_4_PRINTED)).max())
    ok = dev < 5e-5 and (time.perf_counter() - t0) < 1.0
    report(2, "transition-matrix", ok, f"entrywise deviation {dev:.2e} vs 4 d.p.", t0)
    assert ok


def test_c03_threshold_oracle_equivalence(gen4_, tables):
    t0 = time.perf_counter()
    pi = stationary_distribution(gen4_)
    exact_pi = exact_stationary(GENERATOR_4)
    rtol = 1e-10
    worst = 0.0

    def rel(a, b):
        return abs(a - float(b)) / abs(float(b))

    for table, params in zip(tables, (EX1_PARAMS, EX2_PARAMS)):
        oracle = exact_thresholds(exact_params(params), exact_pi)
        worst = max(worst, rel(compute_rs_star(table, pi), oracle["rs"]))
        worst = max(worst, rel(compute_rtilde_star(table, pi), oracle["rtilde"]))
        worst = max(worst, rel(compute_lambda(table, pi), oracle["lam"]))
        for vec, key in ((psi1_vector(table), "psi1"), (psi2_vector(table), "psi2"),
                         (psi3_vector(table), "psi3")):
            for lib, ex in zip(vec, oracle[key]):
                worst = max(worst, rel(lib, ex))
        # neither benchmark set sits in the certified-persistence region, so
        # the bounds must be consistently inapplicable on both routes
        assert oracle["bounds"] is None
        with pytest.raises(NotPersistent):
            persistence_bounds(table, pi)

    # the persistence bounds are exercised against the oracle on a table
    # inside the certified region
    pers_table = table_from_lists(PERSISTENT_PARAMS)
    pers_pi = stationary_distribution(validate_generator(GENERATOR_2))
    pers_oracle = exact_thresholds(exact_params(PERSISTENT_PARAMS),
                                   exact_stationary(GENERATOR_2))
    for lib, ex in zip(persistence_bounds(pers_table, pers_pi), pers_oracle["bounds"]):
        worst = max(worst, rel(lib, ex))

    rs1 = compute_rs_star(tables[0], pi)
    rt2 = compute_rtilde_star(tables[1], pi)
    ok = worst <= rtol and (time.perf_counter() - t0) < 1.0
    report(3, "threshold-oracle-equivalence", ok,
           f"worst relative error {worst:.2e} <= 1e-10", t0)
    # informational comparison against the reported headline values; the
    # printed formulas evaluated on the printed parameters give different
    # numbers, so the deviation is recorded rather than asserted
    print(f"  discrepancy record: rs_star(set 1) = {rs1:.6f}, reported "
          f"{REPORTED_RS_STAR_EX1}, deviation {rs1 - REPORTED_RS_STAR_EX1:+.6f}")
    print(f"  discrepancy record: rtilde_star(set 2) = {rt2:.6f}, reported "
          f"{REPORTED_RTILDE_STAR_EX2}, deviation {rt2 - REPORTED_RTILDE_STAR_EX2:+.6f}")
    assert ok


def test_c04_extinction_reproduction(gen4_, tables):
    t0 = time.perf_counter()
    ex1_table = tables[0]
    extinct = 0
    for seed in SEEDS:
        traj = simulate(coarse_config(seed=seed), gen4_, ex1_table, LINEAR)
        if detect_extinction(traj, threshold=1e-3, tail_fraction=0.1):
            extinct += 1
    # fine-step spot check on two seeds
    fine_ok = all(
        detect_extinction(
            simulate(coarse_config(seed=seed, dt=1e-4, output_stride=10000),
                     gen4_, ex1_table, LINEAR),
            threshold=1e-3, tail_fraction=0.1)
        for seed in SEEDS[:2]
    )
    ok = extinct >= 18 and fine_ok
    report(4, "extinction-reproduction", ok,
           f"{extinct}/20 extinct at dt=1e-3; fine-step spot check "
           f"{'agrees' if fine_ok else 'disagrees'}", t0)
    assert ok


def test_c05_persistence_reproduction(gen4_, tables):
    """Persistence reproduction on a table the persistence theorem certifies.

    The theorem promises persistence in mean, with the time averages of E, Q
    and I bounded below by ``persistence_bounds``, when rtilde_star > 1 and
    beta(k) >= sigma0(k)^2 * w1(k) * s_max holds in every regime.  The
    premise is asserted first, so a change that moves the table out of the
    certified region fails here with the cause named.  Then 20 seeds run on
    the coarse grid from a start inside the invariant interval; none may
    extinguish, and every seed's tail averages over [500, 1000] must reach
    the certified bounds.

    The second benchmark set meets neither premise (rtilde_star < 1 and
    regime 2 fails the noise condition, so its verdict is indeterminate) and
    most of its seeds do extinguish; its computed rtilde_star is printed
    against the reported value as a discrepancy record.
    """
    t0 = time.perf_counter()
    table = table_from_lists(PERSISTENT_PARAMS)
    gen2_ = validate_generator(GENERATOR_2)
    certificate = threshold_report(table, gen2_)
    assert certificate.verdict == "persistence_certified", (
        f"premise broken: verdict {certificate.verdict}, "
        f"rtilde_star = {certificate.rtilde_star:.6f}")
    failing = [k + 1 for k, ok in enumerate(certificate.condition_beta_extinction) if not ok]
    assert not failing, (
        f"premise broken: beta(k) < sigma0(k)^2 * w1(k) * s_max in regimes {failing}")
    init = EpidemicState(1.0, 0.2, 0.1, 0.1, 0.1)
    lower, upper = invariant_set_bounds(table)
    assert lower <= init.total <= upper, (
        f"premise broken: initial total {init.total} outside the invariant "
        f"interval [{lower:.6g}, {upper:.6g}]")
    bounds = dict(zip(("E", "Q", "I"), certificate.bounds))

    extinct = 0
    below_bound = 0
    clamps = 0
    tail_min = {name: math.inf for name in bounds}
    for seed in SEEDS:
        cfg = coarse_config(initial_regime=1, initial_state=init, seed=seed)
        traj = simulate(cfg, gen2_, table, LINEAR)
        clamps += traj.metadata["clamp_events"]
        if detect_extinction(traj, threshold=1e-3, tail_fraction=0.1):
            extinct += 1
        tails = {name: time_average(traj, name, (500.0, 1000.0)) for name in bounds}
        if any(tails[name] < bounds[name] for name in bounds):
            below_bound += 1
        for name in bounds:
            tail_min[name] = min(tail_min[name], tails[name])
    ok = extinct == 0 and below_bound == 0
    comparison = ", ".join(f"{name} {tail_min[name]:.4f} >= {bounds[name]:.5f}"
                           for name in bounds)
    report(5, "persistence-reproduction", ok,
           f"certified table, rtilde_star = {certificate.rtilde_star:.4f}; "
           f"extinction fraction {extinct}/20 (criterion requires 0/20); "
           f"smallest tail average vs certified bound: {comparison}; "
           f"{below_bound}/20 seeds below a bound; {clamps} clamp events", t0)
    set2 = threshold_report(tables[1], gen4_)
    print(f"  discrepancy record: rtilde_star(set 2) = {set2.rtilde_star:.6f}, "
          f"reported {REPORTED_RTILDE_STAR_EX2}, deviation "
          f"{set2.rtilde_star - REPORTED_RTILDE_STAR_EX2:+.6f}; verdict {set2.verdict}")
    assert ok, (
        f"persistence not reproduced on the certified table: {extinct}/20 seeds "
        f"extinguish and {below_bound}/20 have a tail average over [500, 1000] "
        f"below its certified persistence bound ({comparison})"
    )


def _milstein_endpoint(pars, init, dt, increments):
    s, e, q, i, r = init
    for dB in increments:
        s, e, q, i, r = _step(s, e, q, i, r, pars, dt, dB, True, s)
    return np.array([s, e, q, i, r])


def test_c06_milstein_strong_order(tables):
    t0 = time.perf_counter()
    params = tables[1][1]  # frozen single regime
    pars = regime_constants(params)
    init = (20.0, 20.0, 15.0, 10.0, 0.0)
    horizon = 1.0
    n_ref = 2 ** 14
    dt_ref = horizon / n_ref
    exponents = (6, 7, 8, 9, 10)
    n_paths = 200

    errors = np.zeros(len(exponents))
    for path_idx in range(n_paths):
        rng = np.random.default_rng(1000 + path_idx)
        fine = rng.standard_normal(n_ref) * math.sqrt(dt_ref)
        ref = _milstein_endpoint(pars, init, dt_ref, fine.tolist())
        for j, expo in enumerate(exponents):
            n_coarse = 2 ** expo
            block = n_ref // n_coarse
            coarse = fine.reshape(n_coarse, block).sum(axis=1)
            end = _milstein_endpoint(pars, init, horizon / n_coarse, coarse.tolist())
            errors[j] += np.linalg.norm(end - ref)
    errors /= n_paths

    dts = np.array([horizon / 2 ** e for e in exponents])
    slope = float(np.polyfit(np.log2(dts), np.log2(errors), 1)[0])
    ok = 0.8 <= slope <= 1.2
    err_text = ", ".join(f"{v:.2e}" for v in errors)
    report(6, "milstein-strong-order", ok,
           f"observed order {slope:.3f} in [0.8, 1.2], errors [{err_text}]", t0)
    assert ok


def test_c07_noise_off_consistency():
    t0 = time.perf_counter()
    params = replace(table_from_lists(EX1_PARAMS)[1], sigma0=0.0)
    init = EpidemicState(0.3, 0.2, 0.1, 0.05, 0.05)
    gen1 = validate_generator([[0.0]])
    table = RegimeParameterTable(rows=(params,))
    cfg = SimulationConfig(dt=1e-3, horizon=50.0, initial_state=init,
                           initial_regime=1, seed=0, output_stride=50)
    from seqirsim import simulate_deterministic
    stochastic = simulate(cfg, gen1, table, LINEAR)
    reference = simulate_deterministic(init, params, 1e-3, 50.0, output_stride=50)
    gap = float(np.abs(stochastic.states - reference.states).max())
    ok = gap < 1e-3
    report(7, "noise-off-consistency", ok, f"sup-norm gap {gap:.2e} < 1e-3", t0)
    assert ok


def _fuzzed_table(rng):
    n = 4
    draw = lambda lo, hi: rng.uniform(lo, hi, size=n)
    lists = {
        "A": draw(5e-4, 0.9), "beta": draw(0.004, 0.08),
        "rho1": draw(0.001, 0.02), "rho2": draw(0.001, 0.02),
        "b1": draw(0.01, 0.08), "b2": draw(0.03, 0.08), "c": draw(0.04, 0.1),
        "xi": draw(0.01, 0.02), "delta": draw(0.04, 0.08),
        "alpha": draw(0.001, 0.02), "sigma": draw(0.003, 0.006),
        "eta": draw(0.002, 0.02), "p": draw(0.001, 0.004),
        "M": draw(0.001, 0.004), "sigma0": draw(0.005, 0.065),
    }
    return table_from_lists({k: list(v) for k, v in lists.items()})


def test_c08_positivity(gen4_, tables):
    t0 = time.perf_counter()
    clamp_total = 0
    runs = 0
    for table in tables:
        for seed in SEEDS:
            traj = simulate(coarse_config(seed=seed, horizon=100.0, output_stride=100),
                            gen4_, table, LINEAR)
            clamp_total += traj.metadata["clamp_events"]
            runs += 1
    rng = np.random.default_rng(20260808)
    for _ in range(20):
        table = _fuzzed_table(rng)
        for seed in SEEDS:
            traj = simulate(coarse_config(seed=seed, horizon=50.0, output_stride=100),
                            gen4_, table, LINEAR)
            clamp_total += traj.metadata["clamp_events"]
            runs += 1
    ok = clamp_total == 0
    report(8, "positivity", ok,
           f"{clamp_total} clamp events across {runs} runs at dt=1e-3", t0)
    assert ok


def test_c09_invariant_set(gen4_, tables):
    t0 = time.perf_counter()
    setups = [
        (tables[0], EpidemicState(0.30, 0.05, 0.02, 0.02, 0.01)),
        (tables[1], EpidemicState(20, 20, 15, 10, 0)),
    ]
    worst_excursion = 0.0
    ok = True
    for table, init in setups:
        lower, upper = invariant_set_bounds(table)
        eps = 0.01 * upper
        assert lower <= init.total <= upper  # starts inside
        for seed in SEEDS:
            cfg = coarse_config(seed=seed, horizon=100.0, output_stride=100,
                                initial_state=init)
            totals = simulate(cfg, gen4_, table, LINEAR).total
            low_ex = max(0.0, (lower - eps) - totals.min())
            high_ex = max(0.0, totals.max() - (upper + eps))
            worst_excursion = max(worst_excursion, low_ex, high_ex)
            if low_ex > 0 or high_ex > 0:
                ok = False
    report(9, "invariant-set", ok,
           f"worst excursion beyond 1%-widened interval: {worst_excursion:.2e}", t0)
    assert ok


def test_c10_determinism(tmp_path, example1_config_path):
    t0 = time.perf_counter()
    import json

    doc = json.loads(example1_config_path.read_text())
    doc["simulation"].update({"dt": 1e-3, "horizon": 10.0, "stride": 100})
    cfg_path = tmp_path / "determinism.json"
    cfg_path.write_text(json.dumps(doc))
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out1), "--quiet"]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out2), "--quiet"]) == 0
    ok = out1.read_bytes() == out2.read_bytes() and (time.perf_counter() - t0) < 10.0
    report(10, "determinism", ok, "byte-identical CSVs across two runs", t0)
    assert ok
