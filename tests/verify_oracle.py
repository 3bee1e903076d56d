"""verify as it was before the five checks on the shared (d, p) stream
were fed one drawn instance per trial, kept verbatim, with its theory
and weight step taken from the frozen copies in tests/theory_oracle.py
and tests/weights_oracle.py. tests/test_verify.py checks run_all
against it result for result."""
from __future__ import annotations

from types import SimpleNamespace
from typing import Optional

import numpy as np

import theory_oracle as theory
import weights_oracle
from mwkmeans import weighting as _weighting
from mwkmeans.errors import InvalidConfigError
from mwkmeans.verify import CheckResult

weighting = SimpleNamespace(
    update_weights=weights_oracle.update_weights,
    weight_ratio=_weighting.weight_ratio,
    pairwise_suppression_bound=_weighting.pairwise_suppression_bound,
    global_suppression_bound=_weighting.global_suppression_bound,
)


def _random_dispersions(rng, max_k=5, max_m=8):
    k = int(rng.integers(1, max_k + 1))
    m = int(rng.integers(2, max_m + 1))
    return np.exp(rng.normal(0.0, 2.0, (k, m)))


def _random_p(rng) -> float:
    return float(rng.uniform(1.05, 6.0))


def check_triple_equality(rng, trials: int, fault: bool = False) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        d = _random_dispersions(rng)
        p = _random_p(rng)
        w = weighting.update_weights(d, p)
        direct = float(np.sum(w**p * d))
        if fault:
            direct *= 1.0 + 1e-6
        via_d = theory.objective_via_dispersions(d, p)
        via_pm = theory.objective_via_power_means(d, p)
        scale = max(direct, via_d, via_pm)
        worst = max(worst, abs(direct - via_d) / scale, abs(via_d - via_pm) / scale)
        if worst > 1e-9:
            return CheckResult("triple-equality", False, f"relative gap {worst:.3e}")
    return CheckResult("triple-equality", True, f"worst relative gap {worst:.3e}")


def check_bound_containment(rng, trials: int, fault: bool = False) -> CheckResult:
    for _ in range(trials):
        d = _random_dispersions(rng)
        p = _random_p(rng)
        obj = theory.objective_via_dispersions(d, p)
        if fault:
            obj *= 2.0
        b = theory.objective_bounds(d, p)
        eps = 1e-9 * b.upper
        if obj < b.lower - eps or obj > b.upper + eps:
            return CheckResult("bound-containment", False, f"{obj} outside [{b.lower}, {b.upper}]")
    return CheckResult("bound-containment", True)


def check_ratio_law(rng, trials: int, fault: bool = False) -> CheckResult:
    for _ in range(trials):
        d = _random_dispersions(rng)
        p = _random_p(rng)
        w = weighting.update_weights(d, p)
        l = int(rng.integers(d.shape[0]))
        u, v = rng.choice(d.shape[1], size=2, replace=False)
        expected = weighting.weight_ratio(d[l, u], d[l, v], p)
        if fault:
            expected *= 1.0 + 1e-6
        actual = w[l, u] / w[l, v]
        if abs(actual - expected) > 1e-9 * expected:
            return CheckResult("ratio-law", False, f"{actual} vs {expected}")
    return CheckResult("ratio-law", True)


def check_order_reversal(rng, trials: int, fault: bool = False) -> CheckResult:
    for _ in range(trials):
        d = _random_dispersions(rng)
        p = _random_p(rng)
        w = weighting.update_weights(d, p)
        if fault:
            w = w[:, ::-1] if d.shape[1] > 1 and not np.allclose(d, d[:, ::-1]) else 1.0 - w
        # one stable sort of every row at once; the first row that differs fails
        order_d = np.argsort(d, axis=1, kind="stable")
        order_w = np.argsort(-w, axis=1, kind="stable")
        differs = (order_d != order_w).any(axis=1)
        if differs.any():
            l = int(differs.argmax())
            return CheckResult("order-reversal", False, f"row {l}: {d[l]} vs {w[l]}")
    return CheckResult("order-reversal", True)


def check_scale_invariance(rng, trials: int, fault: bool = False) -> CheckResult:
    for _ in range(trials):
        d = _random_dispersions(rng)
        p = _random_p(rng)
        c = float(np.exp(rng.normal(0.0, 3.0)))
        w1 = weighting.update_weights(d, p)
        w2 = weighting.update_weights(d * c, p)
        if fault:
            w2 = weighting.update_weights(d + c, p)
        if np.max(np.abs(w1 - w2)) > 1e-12:
            return CheckResult("scale-invariance", False, f"max diff {np.max(np.abs(w1 - w2)):.3e}")
    return CheckResult("scale-invariance", True)


def check_pairwise_suppression(rng, trials: int, fault: bool = False) -> CheckResult:
    for _ in range(trials):
        d = _random_dispersions(rng)
        p = _random_p(rng)
        w = weighting.update_weights(d, p)
        # rows as Python floats: indexing numpy scalars costs more than the law
        for d_row, w_row in zip(d.tolist(), w.tolist()):
            for d_u, w_u in zip(d_row, w_row):
                for d_v, w_v in zip(d_row, w_row):
                    if d_u <= d_v:  # u == v among them
                        continue
                    C = d_u / d_v
                    if C <= 1.0:
                        continue
                    bound = weighting.pairwise_suppression_bound(C, p)
                    if fault:
                        bound *= 0.5
                    if w_u > bound * w_v * (1.0 + 1e-9):
                        return CheckResult(
                            "pairwise-suppression", False,
                            f"w={w_u:.3e} exceeds {bound:.3e} * {w_v:.3e}",
                        )
    return CheckResult("pairwise-suppression", True)


def check_global_suppression(rng, trials: int, fault: bool = False) -> CheckResult:
    for _ in range(trials):
        d = _random_dispersions(rng)
        p = _random_p(rng)
        m = d.shape[1]
        w = weighting.update_weights(d, p)
        for d_row, w_row in zip(d.tolist(), w.tolist()):
            top = max(d_row)
            u = d_row.index(top)  # the first maximum, as argmax takes
            C = top / max(d_row[:u] + d_row[u + 1:])
            if C <= 1.0:
                continue
            bound = weighting.global_suppression_bound(C, m, p)
            if fault:
                bound *= 0.5
            if w_row[u] > bound * (1.0 + 1e-9):
                return CheckResult(
                    "global-suppression", False, f"w={w_row[u]:.3e} exceeds {bound:.3e}"
                )
    return CheckResult("global-suppression", True)


def check_power_mean_ordering(rng, trials: int, fault: bool = False) -> CheckResult:
    for _ in range(trials):
        values = np.exp(rng.normal(0.0, 2.0, int(rng.integers(2, 9))))
        r = float(-np.exp(rng.normal(0.0, 2.0)))
        mr = theory.power_mean(values, r)
        if fault:
            mr *= 2.0
        lo = float(values.min())
        hi = theory.geometric_mean(values)
        if not (lo * (1 - 1e-12) <= mr <= hi * (1 + 1e-12)):
            return CheckResult("power-mean-ordering", False, f"{mr} outside [{lo}, {hi}]")
    return CheckResult("power-mean-ordering", True)


def check_power_mean_limits(rng, trials: int, fault: bool = False) -> CheckResult:
    for _ in range(trials):
        values = np.exp(rng.normal(0.0, 1.0, int(rng.integers(2, 9))))
        # make the minimum unique by a clear factor so the r -> -inf
        # limit is sharp
        values = np.sort(values)
        if values[1] < 1.1 * values[0]:
            values[0] = values[1] / 1.5
        m = values.size
        m_min = theory.power_mean(values, -200.0)
        m_geo = theory.power_mean(values, -1e-6)
        if fault:
            m_min *= 1.01
        # at finite r the mean sits at min * m^(-1/r) exactly in the
        # unique-minimum limit; check both that asymptote and the raw
        # limit at r large enough for the m^(-1/r) factor to vanish
        asymptote = values.min() * m ** (1.0 / 200.0)
        if abs(m_min - asymptote) > 1e-6 * asymptote:
            return CheckResult("power-mean-limits", False, f"r=-200 gave {m_min}, expected {asymptote}")
        m_far = theory.power_mean(values, -2e7)
        if abs(m_far - values.min()) > 1e-6 * values.min():
            return CheckResult("power-mean-limits", False, f"r=-2e7 gave {m_far}, min {values.min()}")
        geo = theory.geometric_mean(values)
        if abs(m_geo - geo) > 1e-5 * geo:
            return CheckResult("power-mean-limits", False, f"r=-1e-6 gave {m_geo}, geomean {geo}")
    return CheckResult("power-mean-limits", True)


def check_power_mean_monotonicity(rng, trials: int, fault: bool = False) -> CheckResult:
    for _ in range(trials):
        values = np.exp(rng.normal(0.0, 2.0, int(rng.integers(2, 9))))
        rs = np.sort(rng.uniform(-50.0, -1e-3, 4))
        means = [theory.power_mean(values, float(r)) for r in rs]
        if fault:
            means = means[::-1]
        for a, b in zip(means, means[1:]):
            if b < a * (1 - 1e-12):
                return CheckResult("power-mean-monotonicity", False, f"{means} not nondecreasing")
    return CheckResult("power-mean-monotonicity", True)


ALL_CHECKS = [
    check_triple_equality,
    check_bound_containment,
    check_ratio_law,
    check_order_reversal,
    check_scale_invariance,
    check_pairwise_suppression,
    check_global_suppression,
    check_power_mean_ordering,
    check_power_mean_limits,
    check_power_mean_monotonicity,
]
# the names of ALL_CHECKS in their results, and what inject_fault takes
CHECK_NAMES = [check.__name__.removeprefix("check_").replace("_", "-") for check in ALL_CHECKS]


def run_all(trials: int = 1000, seed: int = 0, inject_fault: Optional[str] = None) -> list[CheckResult]:
    """Run every check on fresh random instances; returns the results in
    a fixed order. inject_fault names a check to sabotage deliberately.

    Raises InvalidConfigError for trials < 1, which would check nothing,
    and for an inject_fault that names no check, which would sabotage
    nothing."""
    if trials < 1:
        raise InvalidConfigError(f"trials must be >= 1, got {trials}")
    if inject_fault is not None and inject_fault not in CHECK_NAMES:
        raise InvalidConfigError(f"inject_fault must be one of {', '.join(CHECK_NAMES)}, got {inject_fault!r}")
    results = []
    for check, name in zip(ALL_CHECKS, CHECK_NAMES):
        rng = np.random.default_rng(seed)
        results.append(check(rng, trials, fault=(inject_fault == name)))
    return results
