"""Independent arbitrary-precision evaluation of the threshold formulas.

Everything here uses exact rational arithmetic (``fractions.Fraction``) and
shares no code with the library: parameters given as decimal strings are
converted exactly, the stationary distribution is obtained by rational
Gaussian elimination, and each threshold formula is transliterated directly.
Results are exact rationals; convert with ``float`` at the comparison site.
"""

from __future__ import annotations

from fractions import Fraction

PARAM_KEYS = ("A", "beta", "rho1", "rho2", "b1", "b2", "c", "xi",
              "delta", "alpha", "sigma", "eta", "p", "M", "sigma0")


def dec(x) -> Fraction:
    """Exact rational from a decimal literal (string, int or float repr)."""
    return Fraction(str(x))


def exact_params(lists: dict) -> dict:
    """Convert {name: [decimals...]} to exact Fractions."""
    return {k: [dec(v) for v in vals] for k, vals in lists.items()}


def exact_stationary(generator) -> list[Fraction]:
    """Solve pi @ G = 0, sum(pi) = 1 by rational Gaussian elimination."""
    n = len(generator)
    # transpose, then replace the last balance equation with normalization
    aug = [[dec(generator[j][i]) for j in range(n)] + [Fraction(0)] for i in range(n)]
    aug[n - 1] = [Fraction(1)] * n + [Fraction(1)]

    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(col + 1, n):
            f = aug[r][col] / aug[col][col]
            if f:
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]

    pi = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = aug[r][n] - sum(aug[r][c] * pi[c] for c in range(r + 1, n))
        pi[r] = acc / aug[r][r]
    return pi


def exact_thresholds(par: dict, pi: list[Fraction]) -> dict:
    """All threshold quantities as exact rationals.

    Returns rs, rtilde, lam, psi1/2/3 lists, bounds (or None when
    rtilde <= 1), and the per-regime condition booleans.
    """
    n = len(pi)
    w1 = [(1 - par["rho1"][k]) * (1 - par["rho2"][k]) for k in range(n)]
    w2 = [par["b2"][k] + par["alpha"][k] + par["sigma"][k] + par["xi"][k]
          for k in range(n)]
    a_max = max(par["A"])
    xi_min = min(par["xi"])
    s = a_max / xi_min
    beta_max = max(par["beta"])
    sigma0_min = min(par["sigma0"])

    num = sum(pi[k] * par["beta"][k] * w1[k] * s for k in range(n))
    den_rs = sum(pi[k] * (w2[k] + par["sigma0"][k] ** 2 / 2 * w1[k] ** 2 * s ** 2)
                 for k in range(n))
    rs = num / den_rs

    common = [beta_max * w1[k] - sigma0_min ** 2 / 2 * w1[k] ** 2 * s for k in range(n)]
    bracket = [1 - par["A"][k] * xi_min / (a_max * par["xi"][k])
               + par["p"][k] * par["M"][k] / par["xi"][k]  # h'(0) = 1
               for k in range(n)]
    psi1 = [common[k] * (a_max ** 2 * par["xi"][k] / (par["A"][k] * xi_min ** 2))
            * bracket[k] for k in range(n)]
    psi2 = [common[k] * (a_max ** 2 / (par["A"][k] * xi_min ** 2)) * beta_max * w1[k]
            for k in range(n)]
    psi3 = [common[k] * a_max / (par["A"][k] * xi_min) for k in range(n)]

    lam = sum(pi[k] * (par["sigma0"][k] ** 2 / 2 * w1[k] ** 2 * s ** 2
                       + w2[k] + psi1[k]) for k in range(n))
    rtilde = num / lam

    bounds = None
    if rtilde > 1:
        psi2_avg = sum(pi[k] * psi2[k] for k in range(n))
        e_bound = lam * (rtilde - 1) / psi2_avg
        q_out = max(par["b1"]) + max(par["c"]) + max(par["xi"])
        q_bound = min(par["b2"]) * e_bound / q_out
        i_bound = ((min(par["alpha"]) + min(par["c"]) * min(par["b2"]) / q_out)
                   * e_bound / (max(par["eta"]) + max(par["xi"]) + max(par["delta"])))
        bounds = (e_bound, q_bound, i_bound)

    cond = [par["beta"][k] >= par["sigma0"][k] ** 2 * w1[k] * s for k in range(n)]
    cond_half = [par["beta"][k] >= par["sigma0"][k] ** 2 * w1[k] * s / 2 for k in range(n)]

    return {
        "s_max": s, "rs": rs, "rtilde": rtilde, "lam": lam,
        "psi1": psi1, "psi2": psi2, "psi3": psi3, "bounds": bounds,
        "cond_beta": cond, "cond_beta_half": cond_half,
    }


def exact_drift(par_row: dict, state, slope_linear: bool = True) -> list[Fraction]:
    """Exact drift vector with the linear policy function h(s) = s."""
    s, e, q, i, r = (dec(v) for v in state)
    p = {k: dec(v) for k, v in par_row.items()}
    w1 = (1 - p["rho1"]) * (1 - p["rho2"])
    w2 = p["b2"] + p["alpha"] + p["sigma"] + p["xi"]
    inc = p["beta"] * w1 * s * e
    pol = p["p"] * p["M"] * s
    return [
        p["A"] - inc + p["b1"] * q - p["xi"] * s - pol,
        inc - w2 * e,
        p["b2"] * e - (p["b1"] + p["c"] + p["xi"]) * q,
        p["alpha"] * e + p["c"] * q - (p["eta"] + p["xi"] + p["delta"]) * i,
        p["eta"] * i + p["sigma"] * e - p["xi"] * r + pol,
    ]
