"""Seeded inputs, operations and output checks of the three benchmark workloads.

Every input comes from the run's seed through Python's own `random.Random`,
whose stream is fixed across Python versions; the program only ever sees the
generated values.  Each workload splits one operation into three parts:

- `case(index)`: the seeded input of op `index` (not timed);
- `run(case)`: the calls into mcrsp (timed);
- `check(case, output)`: the reasons the output is wrong, empty if right
  (not timed).

Expectations are computed here, from closed forms and constants stated in
this file, never by asking mcrsp for them.  mcrsp is called through its
module namespaces (`engine.enumerate_branches`, not a bound name), so that
the tracer's wrappers in those namespaces see every call.

`mcrsp` must be importable before this module is imported.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path

from mcrsp import cli, engine, oracle
from mcrsp.protocol import ChannelPair, TargetState

BENCH = Path(__file__).resolve().parent

# Closed-form success probability 4 (a1 b1)^2 must hold to this precision,
# and a branch counts as successful at this fidelity, as in the program.
EXACT_TOL = 1e-9
SUCCESS_FIDELITY = 1.0 - 1e-9
# A flipped controller report must cost at least this much fidelity.
DEGRADED_FIDELITY = 1.0 - 1e-6

# The five rows of the published correction table that the audit finds
# misprinted; every other published row restores the target.
MISPRINTED_KEYS = ("000111", "001010", "001011", "001110", "011000")


def closed_form_tsp(channels: ChannelPair) -> float:
    return 4.0 * (channels.a1 * channels.b1) ** 2


def random_target(rng: random.Random) -> TargetState:
    """A generic target: four distinct nonzero amplitudes, free phases.

    Magnitudes that differ by at least 0.05 keep every wrong Pauli layer far
    from restoring the target, so a derivation at this point finds the same
    first working layer as at the program's fixed generic point, and a
    wrong correction always shows as lost fidelity.
    """
    while True:
        mags = [rng.uniform(0.2, 1.0) for _ in range(4)]
        if min(abs(x - y) for x, y in itertools.combinations(mags, 2)) >= 0.05:
            break
    norm = math.sqrt(sum(x * x for x in mags))
    phases = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(3)]
    return TargetState(*(x / norm for x in mags), *phases)


def random_channels(rng: random.Random, n: int = 1, m: int = 1) -> ChannelPair:
    """Non-maximal channels with |a0| > |a1| and |b0| > |b1|."""
    a1 = rng.uniform(0.2, 0.65)
    b1 = rng.uniform(0.2, 0.65)
    return ChannelPair(math.sqrt(1.0 - a1 * a1), a1,
                       math.sqrt(1.0 - b1 * b1), b1, n, m)


def _op_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


# --- enumerate-wide ---------------------------------------------------------

ENUMERATE_CONTROLLERS = 5
DIGESTS_FILE = BENCH / "digests.json"


@dataclass(frozen=True)
class EnumerateCase:
    pool_index: int
    channels: ChannelPair
    config: str
    out: str


def enumerate_case(pool_index: int, workdir) -> EnumerateCase:
    """Write the config file of one enumerate-wide pool entry."""
    rng = random.Random(f"enumerate-wide/pool/{pool_index}")
    target = random_target(rng)
    channels = random_channels(rng, ENUMERATE_CONTROLLERS, ENUMERATE_CONTROLLERS)
    config = os.path.join(workdir, "enumerate.cfg")
    out = os.path.join(workdir, "branches.csv")
    with open(config, "w", encoding="ascii") as fh:
        fh.write(config_text(target, channels))
    if os.path.exists(out):
        os.remove(out)
    return EnumerateCase(pool_index, channels, config, out)


def config_text(target: TargetState, channels: ChannelPair) -> str:
    """A `key = value` config file that round-trips every float exactly."""
    values = {
        "alpha": target.alpha, "beta": target.beta,
        "gamma": target.gamma, "delta": target.delta,
        "phi0": target.phi0, "phi1": target.phi1, "phi2": target.phi2,
        "a0": channels.a0, "a1": channels.a1,
        "b0": channels.b0, "b1": channels.b1,
        "n_controllers": channels.n, "m_controllers": channels.m,
    }
    return "".join(f"{k} = {v!r}\n" for k, v in values.items())


def run_enumerate(case: EnumerateCase) -> tuple:
    """`mcrsp enumerate --config ... --out ...` in-process: (exit code, stdout)."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["enumerate", "--config", case.config, "--out", case.out])
    return code, stdout.getvalue()


class EnumerateWide:
    """One op: `mcrsp enumerate` through cli.main at n = m = 5.

    The configs come from a pool of seeded entries whose CSV digests are
    recorded in digests.json; the run's seed picks which entry each op uses.
    A pool is what lets the check demand byte-identical CSVs for any seed.
    """

    name = "enumerate-wide"
    block = 1

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = str(workdir)
        with open(DIGESTS_FILE, encoding="ascii") as fh:
            self.digests = json.load(fh)["sha256"]

    def case(self, index: int) -> EnumerateCase:
        pool_index = _op_rng(self.name, self.seed, index).randrange(len(self.digests))
        return enumerate_case(pool_index, self.workdir)

    def run(self, case: EnumerateCase) -> tuple:
        return run_enumerate(case)

    def check(self, case: EnumerateCase, output) -> list:
        code, _ = output
        if code != 0:
            return [f"exit code {code}"]
        with open(case.out, "rb") as fh:
            data = fh.read()
        problems = []
        digest = hashlib.sha256(data).hexdigest()
        if digest != self.digests[case.pool_index]:
            problems.append(f"csv digest {digest} differs from the recorded one "
                            f"for pool entry {case.pool_index}")
        lines = data.decode("ascii").splitlines()
        if not lines or lines[0] != "ijpqgh,controller_bits,ancilla,probability,fidelity":
            return problems + ["csv header missing"]
        rows = [ln.split(",") for ln in lines[1:]]
        n, m = case.channels.n, case.channels.m
        if len(rows) != 2 ** (n + m + 5):
            problems.append(f"{len(rows)} rows, expected {2 ** (n + m + 5)}")
        total = success = 0.0
        for row in rows:
            p = float(row[3])
            total += p
            if row[2] == "0" and float(row[4]) >= SUCCESS_FIDELITY:
                success += p
        if abs(total - 1.0) > EXACT_TOL:
            problems.append(f"probabilities sum to {total!r}")
        expected = closed_form_tsp(case.channels)
        if abs(success - expected) > EXACT_TOL:
            problems.append(f"success mass {success!r} != 4 (a1 b1)^2 = {expected!r}")
        return problems


# --- table-audit ------------------------------------------------------------

SHIPPED_TABLE = "src/mcrsp/data/derived_corrections.txt"


@dataclass(frozen=True)
class TableCase:
    target: TargetState
    channels: ChannelPair


class TableAudit:
    """One op: derive the table at a seeded generic point, audit the
    published table against it, serialise both."""

    name = "table-audit"
    block = 1

    def __init__(self, seed: int, root):
        self.seed = seed
        with open(os.path.join(root, SHIPPED_TABLE), encoding="ascii") as fh:
            self.shipped = fh.read()

    def case(self, index: int) -> TableCase:
        rng = _op_rng(self.name, self.seed, index)
        return TableCase(random_target(rng), random_channels(rng))

    def run(self, case: TableCase) -> tuple:
        derived = oracle.derive_correction_table(case.target, case.channels)
        diff = oracle.compare_with_published(derived)
        buf = io.StringIO()
        diff.to_csv(buf)
        return derived.to_text(), buf.getvalue()

    def check(self, case: TableCase, output) -> list:
        text, diff_csv = output
        problems = []
        if text != self.shipped:
            problems.append("derived table differs from the shipped one")
        lines = diff_csv.splitlines()
        if not lines or lines[0] != "key,paper,derived,paper_layer_works":
            return problems + ["diff header missing"]
        rows = [ln.split(",") for ln in lines[1:]]
        keys = tuple(r[0] for r in rows)
        if keys != MISPRINTED_KEYS:
            problems.append(f"diff keys {keys}, expected {MISPRINTED_KEYS}")
        # Layer labels hold commas themselves, so the flag is the last field.
        if any(r[-1] != "false" for r in rows):
            problems.append("a misprinted published layer was judged to work")
        return problems


# --- param-scan -------------------------------------------------------------

MC_TRIALS = 100_000
# A Monte Carlo estimate may sit this many binomial standard errors from the
# exact value.  At 6 the chance that a correct run fails is 2e-9 per op; at 4
# it would be 6e-5, about one false failure per 16,000 ops.
MC_SIGMAS = 6.0

# One block of ops: every (n, m) in {0, 1, 2}^2 twice; 12 oracle ops, 3 with
# the published table and 3 with one controller misreporting.  Each run
# covers whole blocks, so every seed measures the same mix.
PARAM_BLOCK = tuple(
    [(n, m, "oracle", False) for n in range(3) for m in range(3)]
    + [(0, 0, "paper", False), (1, 1, "paper", False), (2, 2, "paper", False),
       (0, 1, "oracle", True), (1, 0, "oracle", True), (2, 1, "oracle", True),
       (0, 2, "oracle", False), (1, 2, "oracle", False), (2, 0, "oracle", False)])


@dataclass(frozen=True)
class ParamCase:
    target: TargetState
    channels: ChannelPair
    source: str
    flip_report: object
    mc_seed: int


def paper_tsp(channels: ChannelPair) -> float:
    """Success probability with the published table.

    Every reachable outcome key carries the same success mass, and a
    misprinted row loses all of its own.  A channel without controllers
    always reports parity 0, which halves the reachable keys.
    """
    gs = (0, 1) if channels.n else (0,)
    hs = (0, 1) if channels.m else (0,)
    keys = [f"{ijpq:04b}{g}{h}" for ijpq in range(16) for g in gs for h in hs]
    good = sum(k not in MISPRINTED_KEYS for k in keys)
    return closed_form_tsp(channels) * good / len(keys)


class ParamScan:
    """One op: one seeded small case through enumerate_branches and then
    monte_carlo with 10^5 trials."""

    name = "param-scan"
    block = len(PARAM_BLOCK)

    def __init__(self, seed: int):
        self.seed = seed

    def case(self, index: int) -> ParamCase:
        block, pos = divmod(index, self.block)
        order = list(range(self.block))
        random.Random(f"{self.name}/{self.seed}/block/{block}").shuffle(order)
        n, m, source, flip = PARAM_BLOCK[order[pos]]
        rng = _op_rng(self.name, self.seed, index)
        target = random_target(rng)
        channels = random_channels(rng, n, m)
        flip_report = None
        if flip:
            group, count = ("C", n) if n else ("D", m)
            flip_report = (group, rng.randint(1, count))
        return ParamCase(target, channels, source, flip_report, rng.randrange(2 ** 32))

    def run(self, case: ParamCase) -> tuple:
        report = engine.enumerate_branches(case.target, case.channels, case.source,
                                           flip_report=case.flip_report)
        mc = engine.monte_carlo(case.target, case.channels, case.source,
                                MC_TRIALS, case.mc_seed)
        return report, mc

    def check(self, case: ParamCase, output) -> list:
        report, mc = output
        problems = []
        unflipped = (paper_tsp(case.channels) if case.source == "paper"
                     else closed_form_tsp(case.channels))
        if case.flip_report is not None:
            fid = report.min_success_fidelity()
            if fid is None or fid >= DEGRADED_FIDELITY:
                problems.append(f"flipped report kept success fidelity {fid!r}")
        elif abs(report.tsp - unflipped) > EXACT_TOL:
            problems.append(f"tsp {report.tsp!r}, expected {unflipped!r}")
        if abs(mc.exact - unflipped) > EXACT_TOL:
            problems.append(f"monte carlo exact {mc.exact!r}, expected {unflipped!r}")
        sigma = math.sqrt(unflipped * (1.0 - unflipped) / MC_TRIALS)
        if abs(mc.estimate - unflipped) > MC_SIGMAS * sigma:
            problems.append(f"monte carlo estimate {mc.estimate!r} is more than "
                            f"{MC_SIGMAS:g} standard errors from {unflipped!r}")
        return problems


def make(name: str, seed: int, root, workdir):
    """The workload called `name`, with its inputs drawn from `seed`."""
    if name == EnumerateWide.name:
        return EnumerateWide(seed, workdir)
    if name == TableAudit.name:
        return TableAudit(seed, root)
    if name == ParamScan.name:
        return ParamScan(seed)
    raise ValueError(f"unknown workload {name!r}")
