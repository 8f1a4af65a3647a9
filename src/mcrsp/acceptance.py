"""Executable acceptance checks for the whole package.

Each criterion is a self-contained function returning pass/fail plus a
one-line detail string; run_all executes them in order and prints one line
per criterion.  All randomness is seeded inside the checks, so two runs of
the suite produce identical output.  The checks deliberately recompute
expectations from closed forms or stored constants instead of trusting the
modules under test.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .statevec import is_unitary
from .protocol import (
    CLUSTER_TARGET,
    SQRT_HALF,
    SUCCESS_FIDELITY,
    ChannelPair,
    TargetState,
    alice_basis,
    alice_correction,
    all_outcome_keys,
    triplet_unitary,
)
from .engine import ccc_count, enumerate_branches, monte_carlo
from .oracle import (
    GENERIC_CHANNELS,
    GENERIC_TARGET,
    compare_with_published,
    derive_correction_table,
    layers_achieve_target,
    published_correction_table,
    validate_table,
)
from .metrics import comparison_table, entropy_curve, shannon_entropy, tsp_formula

__all__ = [
    "CheckResult",
    "Criterion",
    "CRITERIA",
    "random_target",
    "random_channels",
    "maximal_channels",
    "mc_transcript",
    "run_criterion",
    "run_all",
]

_PUBLISHED_ETA_PERCENT = (1.25, 1.25, 8.33, 8.33, 8.33, 20.00, 10.00, 33.33)


@dataclass(frozen=True)
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Criterion:
    number: int
    name: str
    func: object


def random_target(rng) -> TargetState:
    """A well-conditioned random target: amplitudes bounded away from zero."""
    amps = rng.uniform(0.15, 1.0, size=4)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=3)
    return TargetState.normalized(*(float(x) for x in amps),
                                  *(float(x) for x in phases))


def random_channels(rng, n: int = 1, m: int = 1) -> ChannelPair:
    ua = float(rng.uniform(0.02, 0.5))
    ub = float(rng.uniform(0.02, 0.5))
    return ChannelPair(math.sqrt(1.0 - ua), math.sqrt(ua),
                       math.sqrt(1.0 - ub), math.sqrt(ub), n, m)


def maximal_channels(n: int = 1, m: int = 1) -> ChannelPair:
    return ChannelPair(SQRT_HALF, SQRT_HALF, SQRT_HALF, SQRT_HALF, n, m)


def mc_transcript(result) -> str:
    """Canonical one-line rendering of a Monte Carlo result."""
    return (f"trials={result.trials} seed={result.seed} "
            f"successes={result.successes} estimate={result.estimate:.12g} "
            f"std_error={result.std_error:.12g}")


def _running_sum(values) -> float:
    """values added left to right, as sum() adds them before Python 3.12;
    its compensated rounding from 3.12 on would change what criteria 3 and 4
    print."""
    return reduce(add, values, 0.0)


def _check_tsp_law():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        t = random_target(rng)
        c = random_channels(rng, int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        report = enumerate_branches(t, c)
        worst = max(worst, abs(report.tsp - tsp_formula(c.a1, c.b1)))
    return worst < 1e-9, f"max |tsp - 4(a1 b1)^2| = {worst:.3g} over 50 draws"


def _check_unit_tsp():
    rng = np.random.default_rng(202)
    targets = [CLUSTER_TARGET] + [random_target(rng) for _ in range(9)]
    channels = maximal_channels()
    worst_tsp = 0.0
    worst_fid = 1.0
    for t in targets:
        report = enumerate_branches(t, channels)
        worst_tsp = max(worst_tsp, abs(report.tsp - 1.0))
        fid = report.min_success_fidelity()
        worst_fid = min(worst_fid, 0.0 if fid is None else fid)
    ok = worst_tsp < 1e-9 and worst_fid >= SUCCESS_FIDELITY
    return ok, (f"max |tsp - 1| = {worst_tsp:.3g}, min success fidelity "
                f"= {worst_fid:.12f} over 10 targets")


def _check_step1_probabilities():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(10):
        t = random_target(rng)
        c = random_channels(rng)
        rows = alice_basis(t)
        report = enumerate_branches(t, c)
        pa = (c.a0 ** 2, c.a1 ** 2)
        pb = (c.b0 ** 2, c.b1 ** 2)
        for i in (0, 1):
            for j in (0, 1):
                expected = _running_sum(
                    abs(rows[2 * i + j, 2 * k + l]) ** 2 * pa[k] * pb[l]
                    for k in (0, 1) for l in (0, 1))
                sector = [b for b in report.branches
                          if b.key.i == i and b.key.j == j]
                worst = max(worst, *(abs(b.norm_factor - expected)
                                     for b in sector))
                anc0 = _running_sum(b.probability for b in sector if b.ancilla == 0)
                worst = max(worst, abs(anc0 - (c.a1 * c.b1) ** 2) / expected)
    return worst < 1e-9, f"max deviation {worst:.3g} across 10 draws"


def _check_completeness():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(10):
        t = random_target(rng)
        c = random_channels(rng, int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        report = enumerate_branches(t, c)
        total = _running_sum(b.probability for b in report.branches)
        worst = max(worst, abs(total - 1.0))
    return worst < 1e-9, f"max |sum(p) - 1| = {worst:.3g} over 10 enumerations"


def _check_correction_audit():
    derived = derive_correction_table()
    rng = np.random.default_rng(505)
    targets = [random_target(rng) for _ in range(10)]
    report = validate_table(derived, targets, GENERIC_CHANNELS)
    fid_ok = report.min_fidelity >= SUCCESS_FIDELITY

    diff = compare_with_published(derived)
    buf1 = io.StringIO()
    diff.to_csv(buf1)
    rederived = derive_correction_table()
    diff2 = compare_with_published(rederived)
    buf2 = io.StringIO()
    diff2.to_csv(buf2)
    deterministic = (derived.to_text() == rederived.to_text()
                     and buf1.getvalue() == buf2.getvalue())

    published = published_correction_table()
    disagreeing = set(diff.keys())
    agreeing = [k for k in all_outcome_keys() if k not in disagreeing]
    agree_ok = all(layers_achieve_target({k: published[k] for k in agreeing}).values())

    ok = fid_ok and deterministic and agree_ok
    return ok, (f"min success fidelity {report.min_fidelity:.12f} over 10 "
                f"targets; {len(disagreeing)} disagreeing keys; derivation and "
                f"diff deterministic: {deterministic}; all {len(agreeing)} "
                f"agreeing published layers replay to fidelity 1: {agree_ok}")


def _check_ccc():
    bad = []
    for n in range(4):
        for m in range(4):
            report = enumerate_branches(CLUSTER_TARGET, maximal_channels(n, m))
            want = ccc_count(n, m)
            if (want != n + m + 4 or report.ccc != want
                    or 4 + report.controllers.shape[1] != want):
                bad.append((n, m))
    return not bad, (f"message bits equal n+m+4 for all 16 controller counts"
                     if not bad else f"mismatched message bits at {bad}")


def _check_comparison():
    rows = comparison_table()
    if len(rows) != 8:
        return False, f"expected 8 rows, got {len(rows)}"
    devs = [abs(100.0 * r.eta - e)
            for r, e in zip(rows, _PUBLISHED_ETA_PERCENT)]
    return max(devs) <= 0.005, (f"max |eta - published| = {max(devs):.4f} "
                                f"percentage points over 8 rows")


def _check_entropy():
    end_dev = max(abs(shannon_entropy(SQRT_HALF) - 1.0),
                  abs(shannon_entropy(-SQRT_HALF) - 1.0))
    zero_ok = shannon_entropy(0.0) == 0.0
    curve = entropy_curve(101)
    n = len(curve)
    even_dev = max(abs(curve[k][1] - curve[n - 1 - k][1]) for k in range(n))
    half = [h for _, h in curve[n // 2:]]
    monotone = all(half[k + 1] > half[k] for k in range(len(half) - 1))
    ok = end_dev <= 1e-12 and zero_ok and even_dev == 0.0 and monotone
    return ok, (f"|H(1/sqrt 2) - 1| = {end_dev:.3g}, H(0) = 0: {zero_ok}, "
                f"evenness deviation = {even_dev}, monotone in |f|: {monotone}")


def _check_monte_carlo():
    rng = np.random.default_rng(909)
    cases = [(CLUSTER_TARGET, maximal_channels()),
             (GENERIC_TARGET, GENERIC_CHANNELS)]
    cases += [(random_target(rng), random_channels(rng)) for _ in range(3)]
    worst = -math.inf
    reproducible = True
    for k, (t, c) in enumerate(cases):
        r1 = monte_carlo(t, c, trials=10000, seed=1000 + k)
        r2 = monte_carlo(t, c, trials=10000, seed=1000 + k)
        reproducible = reproducible and mc_transcript(r1) == mc_transcript(r2)
        worst = max(worst, abs(r1.estimate - r1.exact)
                    - (4.0 * r1.std_error + 1e-12))
    ok = worst <= 0.0 and reproducible
    return ok, (f"max (|estimate - exact| - 4 se) = {worst:.3g} over 5 cases; "
                f"transcripts reproducible: {reproducible}")


def _check_unitarity():
    rng = np.random.default_rng(1010)
    tol = 1e-12
    checked = 0
    for _ in range(100):
        t = random_target(rng)
        mats = [alice_basis(t)]
        mats += [alice_correction(i, j, t) for i in (0, 1) for j in (0, 1)]
        c = random_channels(rng)
        mats += [triplet_unitary(i, j, c) for i in (0, 1) for j in (0, 1)]
        for mat in mats:
            checked += 1
            if not is_unitary(mat, tol):
                return False, f"matrix {checked} failed unitarity at {tol}"
    return True, f"{checked} basis, phase, and triplet matrices unitary at {tol}"


def _check_controller_gating():
    worst = []
    for flip in (("C", 1), ("D", 1)):
        report = enumerate_branches(GENERIC_TARGET, GENERIC_CHANNELS,
                                    flip_report=flip)
        degraded = [b.fid for b in report.branches
                    if b.ancilla == 0 and b.probability > 1e-12
                    and b.fid < 1.0 - 1e-3]
        if not degraded:
            return False, f"no degraded success branch under flipped {flip[0]}1"
        worst.append(min(degraded))
    return True, (f"flipped reports degrade success fidelity to "
                  f"{worst[0]:.4f} (C1) and {worst[1]:.4f} (D1)")


CRITERIA = (
    Criterion(1, "tsp-law", _check_tsp_law),
    Criterion(2, "unit-tsp", _check_unit_tsp),
    Criterion(3, "step1-branch-probabilities", _check_step1_probabilities),
    Criterion(4, "probability-completeness", _check_completeness),
    Criterion(5, "correction-table-audit", _check_correction_audit),
    Criterion(6, "classical-communication-cost", _check_ccc),
    Criterion(7, "efficiency-comparison-rows", _check_comparison),
    Criterion(8, "entropy-curve", _check_entropy),
    Criterion(9, "monte-carlo-consistency", _check_monte_carlo),
    Criterion(10, "unitarity-suite", _check_unitarity),
    Criterion(11, "controller-gating", _check_controller_gating),
)


def run_criterion(criterion: Criterion) -> CheckResult:
    """Run one criterion; a raised exception is reported as a failure."""
    try:
        passed, detail = criterion.func()
    except Exception as exc:  # noqa: BLE001 - report, never crash the suite
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CheckResult(criterion.number, criterion.name, bool(passed), detail)


def run_all(print_fn=print) -> list:
    """Run every criterion, print one PASS/FAIL line each, return results."""
    results = []
    for criterion in CRITERIA:
        result = run_criterion(criterion)
        status = "PASS" if result.passed else "FAIL"
        print_fn(f"{status} {result.number:2d} {result.name}: {result.detail}")
        results.append(result)
    return results
