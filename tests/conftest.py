"""Shared fixtures: the 4-state benchmark chain and its two parameter sets,
plus a 2-state table engineered to sit in the certified-persistence region."""

import os
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from seqirsim import _kernel, integrate
from seqirsim import (
    PolicyFunction,
    RegimeParameters,
    RegimeParameterTable,
    validate_generator,
)

GENERATOR_4 = [
    [-10, 3, 2, 5],
    [6, -9, 2, 1],
    [3, 3, -8, 2],
    [1, 5, 3, -9],
]

#: printed stationary distribution of GENERATOR_4 (4 decimal places)
PI_4_PRINTED = (0.2622, 0.2879, 0.2227, 0.2272)

#: printed transition matrix exp(0.0001 * GENERATOR_4) (4 decimal places)
P_4_PRINTED = [
    [0.9990, 0.0003, 0.0002, 0.0005],
    [0.0006, 0.9991, 0.0002, 0.0001],
    [0.0003, 0.0003, 0.9992, 0.0002],
    [0.0001, 0.0005, 0.0003, 0.9991],
]

EX1_PARAMS = {
    "A": [0.0008, 0.0005, 0.0070, 0.0010],
    "beta": [0.006, 0.018, 0.049, 0.08],
    "xi": [0.011, 0.010, 0.019, 0.02],
    "b1": [0.05, 0.06, 0.010, 0.08],
    "b2": [0.05, 0.04, 0.06, 0.07],
    "c": [0.08, 0.07, 0.09, 0.10],
    "sigma": [0.003, 0.005, 0.006, 0.004],
    "rho1": [0.001, 0.005, 0.010, 0.009],
    "rho2": [0.001, 0.005, 0.007, 0.003],
    "alpha": [0.016, 0.0015, 0.0017, 0.0019],
    "p": [0.001, 0.002, 0.003, 0.004],
    "eta": [0.02, 0.018, 0.019, 0.0021],
    "delta": [0.05, 0.06, 0.04, 0.08],
    "M": [0.001, 0.002, 0.003, 0.004],
    "sigma0": [0.008, 0.065, 0.007, 0.006],
}

# second benchmark set: only recruitment and transmission rates change.
# It meets neither persistence premise (rtilde_star < 1, regime 2 fails the
# noise condition); criterion 3 checks its thresholds against the oracle,
# criteria 6, 8 and 9 simulate it, and criterion 5 prints its discrepancy.
EX2_PARAMS = dict(EX1_PARAMS)
EX2_PARAMS["A"] = [0.70, 0.245, 0.890, 0.41]
EX2_PARAMS["beta"] = [0.016, 0.018, 0.019, 0.008]

#: values reported alongside the benchmark parameter sets; our faithful
#: evaluation of the formulas does not reproduce them.  Criterion 3 prints
#: the rs_star deviation for set 1, criterion 5 the rtilde_star deviation
#: for set 2; neither is asserted.
REPORTED_RS_STAR_EX1 = 0.1277
REPORTED_RTILDE_STAR_EX2 = 2.5861

GENERATOR_2 = [[-1.0, 1.0], [1.0, -1.0]]

#: 2-state table inside the certified-persistence region (rtilde_star > 1,
#: every regime passes the noise condition).  Criterion 3 checks its
#: persistence bounds against the oracle; criterion 5 simulates it with
#: GENERATOR_2 and asserts that it persists above those bounds.
PERSISTENT_PARAMS = {
    "A": [0.02, 0.018],
    "beta": [0.25, 0.22],
    "rho1": [0.01, 0.02],
    "rho2": [0.01, 0.02],
    "b1": [0.03, 0.04],
    "b2": [0.05, 0.04],
    "c": [0.04, 0.05],
    "xi": [0.01, 0.012],
    "delta": [0.01, 0.015],
    "alpha": [0.02, 0.015],
    "sigma": [0.01, 0.012],
    "eta": [0.02, 0.025],
    "p": [0.001, 0.001],
    "M": [0.01, 0.01],
    "sigma0": [0.01, 0.008],
}


def table_from_lists(lists: dict) -> RegimeParameterTable:
    n = len(lists["A"])
    rows = tuple(
        RegimeParameters(**{name: lists[name][k] for name in lists})
        for k in range(n)
    )
    return RegimeParameterTable(rows=rows)


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Build the compiled kernel into a fresh per-session cache directory."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        _kernel.load.cache_clear()
        yield
    _kernel.load.cache_clear()


def use_cpus(monkeypatch, n):
    """Make the ensemble and CSV code see n usable CPUs, so that they run on n threads."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def stepping_threads(monkeypatch):
    """The names of the threads that step each run, appended as runs start."""
    names = []
    advance = integrate._advance

    def spy(run, kernel):
        names.append(threading.current_thread().name)
        return advance(run, kernel)

    monkeypatch.setattr(integrate, "_advance", spy)
    return names


def started_threads(monkeypatch):
    """The names of the threads started from now on."""
    names = []
    start = threading.Thread.start

    def spy(thread):
        names.append(thread.name)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return names


@pytest.fixture(scope="session")
def gen4():
    return validate_generator(GENERATOR_4)


@pytest.fixture(scope="session")
def gen2():
    return validate_generator(GENERATOR_2)


@pytest.fixture(scope="session")
def ex1_table():
    return table_from_lists(EX1_PARAMS)


@pytest.fixture(scope="session")
def ex2_table():
    return table_from_lists(EX2_PARAMS)


@pytest.fixture(scope="session")
def persistent_table():
    return table_from_lists(PERSISTENT_PARAMS)


@pytest.fixture(scope="session")
def linear_policy():
    return PolicyFunction.linear()


@pytest.fixture(scope="session")
def example1_config_path():
    from importlib.resources import files

    return Path(str(files("seqirsim") / "configs" / "example1.json"))


@pytest.fixture(scope="session")
def example2_config_path():
    from importlib.resources import files

    return Path(str(files("seqirsim") / "configs" / "example2.json"))
