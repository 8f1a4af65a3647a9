"""Tests for the exact branch enumerator and its Monte Carlo sampler."""
import io
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcrsp import engine, protocol, statevec
from mcrsp.protocol import (
    BOB_QUBITS,
    CLUSTER_TARGET,
    SQRT_HALF,
    SUCCESS_FIDELITY,
    ChannelPair,
    TargetState,
    all_outcome_keys,
    build_target,
    class_residuals,
)
from mcrsp.statevec import StateVector
from mcrsp.engine import (
    ccc_count,
    enumerate_branches,
    monte_carlo,
    write_branch_csv,
)
from reference_records import (
    reference_branch_csv,
    reference_successes,
    reference_total,
    reference_tsp,
)
from reference_oracle import dense_readouts
from reference_walk import reference_csv, reference_enumerate

MAXIMAL = ChannelPair(SQRT_HALF, SQRT_HALF, SQRT_HALF, SQRT_HALF, 1, 1)
GENERIC = ChannelPair(math.sqrt(0.8), math.sqrt(0.2),
                      math.sqrt(0.7), math.sqrt(0.3), 1, 1)


@pytest.fixture(scope="module")
def maximal_report():
    return enumerate_branches(CLUSTER_TARGET, MAXIMAL)


def test_maximal_channels_reach_unit_tsp(maximal_report):
    assert len(maximal_report.branches) == 128
    assert maximal_report.tsp == pytest.approx(1.0)
    assert maximal_report.min_success_fidelity() == pytest.approx(1.0)
    assert maximal_report.correction_source == "derived"


def test_tsp_matches_product_of_smaller_coefficients():
    report = enumerate_branches(CLUSTER_TARGET, GENERIC)
    assert report.tsp == pytest.approx(4.0 * 0.2 * 0.3)


GENERIC_TARGET = TargetState.normalized(2.0, 3.0, 4.0, 5.0, 0.3, 0.7, 1.1)
ROOTS = (math.sqrt(0.8), math.sqrt(0.2), math.sqrt(0.7), math.sqrt(0.3))


@pytest.mark.parametrize("target, signs", [
    (GENERIC_TARGET, (1, -1, 1, 1)),
    (GENERIC_TARGET, (-1, 1, 1, -1)),
    (TargetState.normalized(-2.0, 3.0, 4.0, 5.0, 0.3, 0.7, 1.1), (1, 1, 1, 1)),
    (TargetState.normalized(2.0, 0.0, 4.0, 5.0, 0.3, 0.7, 1.1), (1, 1, 1, 1)),
    (TargetState.normalized(2.0, 0.0, 0.0, 5.0, 0.3, 0.7, 1.1), (1, 1, 1, 1)),
    (TargetState(1.0, 0.0, 0.0, 0.0), (1, 1, 1, 1)),
], ids=["negative-a1", "negative-a0-b1", "negative-alpha",
        "beta-zero", "beta-gamma-zero", "alpha-one"])
def test_signed_and_sparse_inputs_keep_the_tsp_law(target, signs):
    channels = ChannelPair(*(s * r for s, r in zip(signs, ROOTS)), 1, 1)
    report = enumerate_branches(target, channels)
    assert abs(report.tsp - 4.0 * (channels.a1 * channels.b1) ** 2) <= 1e-9
    assert report.min_success_fidelity() >= SUCCESS_FIDELITY


def test_empty_channel_has_no_success_branch():
    channels = ChannelPair(1.0, 0.0, math.sqrt(0.7), math.sqrt(0.3), 1, 1)
    report = enumerate_branches(GENERIC_TARGET, channels)
    assert report.tsp == 0.0
    assert report.min_success_fidelity() is None


@pytest.mark.parametrize("coeffs", [(1.0, 0.0, ROOTS[2], ROOTS[3]),
                                    (ROOTS[0], ROOTS[1], 1.0, 0.0)],
                         ids=["a1-zero", "b1-zero"])
def test_no_success_gives_a_float_zero(coeffs):
    channels = ChannelPair(*coeffs, 1, 2)
    report = enumerate_branches(GENERIC_TARGET, channels)
    assert isinstance(report.tsp, float) and report.tsp == 0.0
    result = monte_carlo(GENERIC_TARGET, channels, trials=100, seed=1)
    assert isinstance(result.exact, float) and result.exact == 0.0
    assert result.successes == 0


def test_cluster_target_sector_probabilities():
    """Every basis row has amplitude magnitude 1/2 for the canonical cluster
    target, so each of the four first-step outcomes occurs with probability
    1/4 whatever the channels are."""
    report = enumerate_branches(CLUSTER_TARGET, GENERIC)
    for branch in report.branches:
        assert branch.norm_factor == pytest.approx(0.25)


def test_probabilities_sum_to_one(maximal_report):
    total = sum(b.probability for b in maximal_report.branches)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_branches_in_lexicographic_record_order(maximal_report):
    keys = [k.bits() for k in all_outcome_keys()]
    got = [b.key.bits() for b in maximal_report.branches]
    assert got == [bits for bits in keys for _ in (0, 1)]
    assert [b.ancilla for b in maximal_report.branches] == [0, 1] * 64


def test_success_branches_have_ancilla_zero(maximal_report):
    weighted = [b for b in maximal_report.branches
                if b.probability > protocol.PROB_FLOOR]
    assert len(weighted) == 64
    for branch in weighted:
        assert branch.ancilla == 0
        assert branch.probability == pytest.approx(1 / 64)


def test_ccc_count_examples():
    assert ccc_count(1, 1) == 6
    assert ccc_count(0, 0) == 4
    assert ccc_count(2, 3) == 9
    with pytest.raises(ValueError, match="nonnegative"):
        ccc_count(-1, 0)


def test_no_controllers_reduces_key_parities():
    channels = ChannelPair(SQRT_HALF, SQRT_HALF, SQRT_HALF, SQRT_HALF, 0, 0)
    report = enumerate_branches(CLUSTER_TARGET, channels)
    assert len(report.branches) == 32
    assert report.ccc == 4
    assert all(b.key.g == 0 and b.key.h == 0 for b in report.branches)
    assert all(b.controller_bits == () for b in report.branches)
    assert report.tsp == pytest.approx(1.0)


def test_unbalanced_controller_counts():
    channels = ChannelPair(SQRT_HALF, SQRT_HALF, SQRT_HALF, SQRT_HALF, 2, 0)
    report = enumerate_branches(CLUSTER_TARGET, channels)
    assert len(report.branches) == 4 * 2 ** 4 * 2
    assert report.ccc == 6
    assert report.tsp == pytest.approx(1.0)
    # reported parity g is the XOR of both controller bits
    for branch in report.branches:
        assert branch.key.g == branch.controller_bits[0] ^ branch.controller_bits[1]


def test_paper_table_loses_the_corrupt_keys():
    report = enumerate_branches(CLUSTER_TARGET, MAXIMAL, source="paper")
    assert report.correction_source == "paper"
    assert report.tsp == pytest.approx(59 / 64)


def test_correction_table_object_accepted_as_source():
    from mcrsp.oracle import published_correction_table
    report = enumerate_branches(CLUSTER_TARGET, MAXIMAL,
                                source=published_correction_table())
    assert report.correction_source == "paper"
    assert report.tsp == pytest.approx(59 / 64)


def test_unknown_source_rejected():
    with pytest.raises(ValueError, match="source"):
        enumerate_branches(CLUSTER_TARGET, MAXIMAL, source="folklore")
    with pytest.raises(ValueError, match="source"):
        enumerate_branches(CLUSTER_TARGET, MAXIMAL, source=42)


def test_flip_report_validation():
    with pytest.raises(ValueError, match="flip_report"):
        enumerate_branches(CLUSTER_TARGET, MAXIMAL, flip_report=("E", 1))
    with pytest.raises(ValueError, match="flip_report"):
        enumerate_branches(CLUSTER_TARGET, MAXIMAL, flip_report=("C", 2))
    with pytest.raises(ValueError, match="flip_report"):
        enumerate_branches(CLUSTER_TARGET, MAXIMAL, flip_report="C1")


def test_flip_report_corrupts_key_and_messages_only():
    report = enumerate_branches(CLUSTER_TARGET, MAXIMAL, flip_report=("C", 1))
    for branch in report.branches:
        assert branch.key.g == 1 - branch.controller_bits[0]
        assert branch.key.h == branch.controller_bits[1]


def test_flip_report_degrades_success_fidelity():
    report = enumerate_branches(TargetState.normalized(2, 3, 4, 5), GENERIC,
                                flip_report=("D", 1))
    fids = [b.fid for b in report.branches
            if b.ancilla == 0 and b.probability > 1e-12]
    assert min(fids) < 1.0 - 1e-3
    assert report.tsp < 0.5 * 4.0 * 0.2 * 0.3


def test_monte_carlo_tracks_exact_value():
    result = monte_carlo(CLUSTER_TARGET, GENERIC, trials=20000, seed=5)
    assert result.exact == pytest.approx(0.24)
    assert abs(result.estimate - result.exact) <= 4.0 * result.std_error
    again = monte_carlo(CLUSTER_TARGET, GENERIC, trials=20000, seed=5)
    assert again.successes == result.successes


def test_monte_carlo_exact_at_maximal_channels():
    result = monte_carlo(CLUSTER_TARGET, MAXIMAL, trials=500, seed=0)
    assert result.estimate == 1.0
    assert result.std_error == 0.0


def test_monte_carlo_rejects_bad_trials(monkeypatch):
    with pytest.raises(ValueError, match="trials"):
        monte_carlo(CLUSTER_TARGET, MAXIMAL, trials=0)

    def refuse(*args, **kwargs):
        raise AssertionError("sampled past the trial limit")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    with pytest.raises(ValueError, match=f"limit of {engine.MAX_TRIALS}"):
        monte_carlo(CLUSTER_TARGET, MAXIMAL, trials=engine.MAX_TRIALS + 1)


@pytest.mark.parametrize("target", [GENERIC_TARGET, TargetState(1.0, 0.0, 0.0, 0.0)],
                         ids=["generic", "alpha-one"])
def test_monte_carlo_draws_over_the_branches_in_record_order(target):
    """The sampler's arrays are the branches' probabilities and success flags
    in record order, so a seed gives the same draws as sampling the branches.
    At alpha = 1 the ancilla-1 residual matches the target too, and must
    still count as a failure."""
    channels = ChannelPair(ROOTS[0], -ROOTS[1], ROOTS[2], ROOTS[3], 2, 1)
    branches = enumerate_branches(target, channels).branches
    probs = np.array([b.probability for b in branches])
    success = np.array([b.ancilla == 0 and b.fid >= SUCCESS_FIDELITY
                        for b in branches])
    draws = np.random.default_rng(11).choice(len(probs), size=5000,
                                             p=probs / probs.sum())
    result = monte_carlo(target, channels, trials=5000, seed=11)
    assert result.successes == int(success[draws].sum())


def test_monte_carlo_builds_no_branch_objects(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a BranchOutcome")

    monkeypatch.setattr(engine, "BranchOutcome", refuse)
    result = monte_carlo(CLUSTER_TARGET, ChannelPair(*ROOTS, 3, 3),
                         trials=20000, seed=5)
    assert result.exact == pytest.approx(0.24)
    assert abs(result.estimate - 0.24) <= 4.0 * math.sqrt(0.24 * 0.76 / 20000)


def test_branch_csv_format(maximal_report):
    buf = io.StringIO()
    write_branch_csv(maximal_report, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "ijpqgh,controller_bits,ancilla,probability,fidelity"
    assert len(lines) == 129
    assert lines[1] == "000000,00,0,0.015625,1"
    assert lines[2] == "000000,00,1,0,0"


# --- the parity-collapsed walk against the full-register reference ---------

_AMPLITUDE = st.one_of(st.just(0.0), st.floats(0.05, 1.0), st.floats(-1.0, -0.05))
_PHASE = st.floats(0.0, 2.0 * math.pi)


_SMALL = st.tuples(st.integers(0, 2), st.integers(0, 2))
_WIDE = st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(lambda nm: sum(nm) <= 8)


@st.composite
def _runs(draw, counts=_SMALL):
    """A target, channels with (n, m) drawn from counts and a table source
    and report, reaching signed coefficients, a1=0 or b1=0 and zero target
    amplitudes."""
    amps = draw(st.lists(_AMPLITUDE, min_size=4, max_size=4)
                .filter(lambda xs: any(xs)))
    target = TargetState.normalized(*amps, *draw(st.tuples(_PHASE, _PHASE, _PHASE)))
    n, m = draw(counts)
    coeffs = []
    for _ in range(2):
        small = math.sqrt(draw(st.one_of(st.just(0.0), st.floats(0.0, 0.45))))
        coeffs += [draw(st.sampled_from((1, -1))) * math.sqrt(1.0 - small * small),
                   draw(st.sampled_from((1, -1))) * small]
    channels = ChannelPair(*coeffs, n, m)
    flips = ([None] + [("C", k) for k in range(1, n + 1)]
             + [("D", k) for k in range(1, m + 1)])
    return (target, channels, draw(st.sampled_from(("oracle", "paper"))),
            draw(st.sampled_from(flips)))


@settings(max_examples=60, deadline=None)
@given(_runs())
def test_collapsed_walk_equals_the_full_register_walk(run):
    target, channels, source, flip = run
    got = enumerate_branches(target, channels, source, flip_report=flip)
    want = reference_enumerate(target, channels, source, flip_report=flip)

    def records(report):
        return [(b.key, b.controller_bits, b.ancilla, b.probability, b.fid)
                for b in report.branches]

    assert got.tsp == want.tsp
    assert records(got) == records(want)


@pytest.mark.parametrize("flip", [None, ("C", 2), ("D", 1)])
def test_branch_csv_bytes_match_the_reference(flip):
    channels = ChannelPair(ROOTS[0], -ROOTS[1], ROOTS[2], ROOTS[3], 2, 2)
    got, want = io.StringIO(), io.StringIO()
    write_branch_csv(enumerate_branches(GENERIC_TARGET, channels, flip_report=flip), got)
    reference_csv(reference_enumerate(GENERIC_TARGET, channels, flip_report=flip), want)
    # Compared as lines, so a failure names the first differing row quickly.
    assert got.getvalue().splitlines(True) == want.getvalue().splitlines(True)


@settings(max_examples=40, deadline=None)
@given(_runs(_WIDE), st.integers(0, 2 ** 32 - 1))
def test_vectorized_record_order_equals_the_record_walk(run, seed):
    """tsp, the CSV bytes and the seeded Monte Carlo draws equal those of a
    record-by-record walk, up to n+m = 8."""
    target, channels, source, flip = run
    n, m = channels.n, channels.m
    report = enumerate_branches(target, channels, source, flip_report=flip)
    assert isinstance(report.tsp, float)
    assert report.tsp == reference_tsp(report, n, m)
    assert abs(reference_total(report, n, m) - 1.0) <= 1e-9
    got, want = io.StringIO(), io.StringIO()
    write_branch_csv(report, got)
    reference_branch_csv(report, n, m, want)
    assert got.getvalue() == want.getvalue()

    unflipped = enumerate_branches(target, channels, source)
    result = monte_carlo(target, channels, source, trials=2000, seed=seed)
    assert result.successes == reference_successes(unflipped, n, m, 2000, seed)
    assert result.exact == unflipped.tsp


class _CountingSink:
    """A text sink that keeps only the number of writes and characters."""

    def __init__(self):
        self.writes = self.chars = 0

    def write(self, text):
        self.writes += 1
        self.chars += len(text)

    def tell(self):
        return self.chars


def test_wide_run_does_no_per_record_python_work(monkeypatch):
    """At n = m = 8 (2^21 rows) the run computes no parity in Python,
    builds no BranchOutcome, and writes the CSV in one call per sector."""
    def refuse(*args, **kwargs):
        raise AssertionError("computed a parity in Python")

    built = []
    branch_outcome = engine.BranchOutcome

    def counted(*args, **kwargs):
        built.append(args)
        return branch_outcome(*args, **kwargs)

    monkeypatch.setattr(engine, "parity", refuse, raising=False)
    monkeypatch.setattr(engine, "BranchOutcome", counted)
    report = enumerate_branches(GENERIC_TARGET, ChannelPair(*ROOTS, 8, 8))
    assert report.tsp == pytest.approx(0.24)
    sink = _CountingSink()
    assert write_branch_csv(report, sink) == 2 ** 21
    assert sink.writes == 1 + 16
    assert not built


def test_walk_cost_does_not_grow_with_the_controllers(monkeypatch):
    """The register stays that of one controller per channel, and the only
    projections are the sender's, one per sector; only the per-record
    expansion grows."""
    calls = []
    project = protocol.project

    def counted(state, *args, **kwargs):
        calls.append(state.amps.size)
        return project(state, *args, **kwargs)

    monkeypatch.setattr(protocol, "project", counted)
    per_run = []
    for n, m in ((1, 1), (3, 2), (5, 5)):
        calls.clear()
        channels = ChannelPair(*ROOTS, n, m)
        report = enumerate_branches(GENERIC_TARGET, channels)
        assert len(report.branches) == 2 ** (n + m + 5)
        per_run.append((len(calls), max(calls)))
    assert per_run == [(4, 2 ** 10)] * 3


@settings(max_examples=40, deadline=None)
@given(_runs(_WIDE))
def test_receiver_readouts_equal_the_dense_replay(run):
    """Steps 4 and 5 as moved and weighted amplitudes give every class the
    (probability, fidelity) pairs of the dense replay of its residual under
    its reported key's layer, bit for bit, up to n+m = 8."""
    target, channels, source, flip = run
    report = enumerate_branches(target, channels, source, flip_report=flip)
    table = engine._resolve_table(source)
    target_state = build_target(target)
    classes, residuals, _ = class_residuals(target, channels)
    assert list(classes) == list(report.classes)
    for cls, row in zip(classes, residuals):
        c = report.classes[cls]
        state = StateVector(BOB_QUBITS, row)
        assert c.readouts == dense_readouts(state, table[c.key], cls[0], cls[1],
                                            channels, target_state)


def test_enumeration_makes_only_the_class_walks_dense_calls(monkeypatch):
    """Steps 4 and 5 apply no operator and build no product state: whatever
    n and m are, the only apply and tensor calls are the class walk's, the
    sender's phase correction on (A2, A4) in each of the four sectors and one
    channel product."""
    calls = []
    apply = statevec.apply
    for fn in (apply, statevec.tensor):
        def counted(*args, _fn=fn, **kwargs):
            calls.append((_fn.__name__, args[2] if _fn is apply else None))
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if ((name == "mcrsp" or name.startswith("mcrsp."))
                    and getattr(module, fn.__name__, None) is fn):
                monkeypatch.setattr(module, fn.__name__, counted)
    for n, m in ((0, 0), (1, 1), (0, 3), (3, 2), (5, 5)):
        calls.clear()
        enumerate_branches(GENERIC_TARGET, ChannelPair(*ROOTS, n, m))
        assert sorted(calls) == [("apply", ("A2", "A4"))] * 4 + [("tensor", None)]


def test_size_guard_refuses_before_any_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("worked past the size guard")

    monkeypatch.setattr(engine, "_resolve_table", refuse)
    monkeypatch.setattr(protocol, "tensor", refuse)
    monkeypatch.setattr(np, "kron", refuse)
    with pytest.raises(ValueError, match="limit of 16"):
        enumerate_branches(CLUSTER_TARGET, ChannelPair(*ROOTS, 9, 8))
