"""The benchmark's tracer wraps mcrsp functions by name and reads their
results in hooks; fail fast when a refactor removes, renames or reshapes
something it relies on."""
import importlib
import importlib.util
import inspect
import io
from pathlib import Path

from mcrsp.engine import enumerate_branches, monte_carlo, write_branch_csv
from mcrsp.protocol import (
    CLUSTER_TARGET,
    SQRT_HALF,
    ChannelPair,
    build_target,
    default_derived_table,
)
from mcrsp.statevec import COMPUTATIONAL, apply, fidelity, project, tensor

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spanned_names_are_mcrsp_functions():
    for short, names in load_tracer().SPANNED.items():
        module = importlib.import_module(f"mcrsp.{short}")
        for name in names or ():
            assert inspect.isfunction(getattr(module, name, None)), \
                f"mcrsp.{short}.{name}"


def test_metrics_declares_its_public_functions():
    import mcrsp.metrics

    assert mcrsp.metrics.__all__


def test_hooks_read_real_outputs():
    tracer = load_tracer()
    counters = tracer.Tracer().counters
    channels = ChannelPair(SQRT_HALF, SQRT_HALF, SQRT_HALF, SQRT_HALF, 0, 0)

    report = enumerate_branches(CLUSTER_TARGET, channels)
    tracer._enumerated(counters, (CLUSTER_TARGET, channels), report)
    assert counters["records"] == 32
    assert counters["classes"] == 32

    buf = io.StringIO()
    write_branch_csv(report, buf)
    tracer._csv_written(counters, (report, buf), None)
    assert counters["csv_bytes"] == len(buf.getvalue())

    result = monte_carlo(CLUSTER_TARGET, channels, trials=100, seed=1)
    tracer._sampled(counters, (CLUSTER_TARGET, channels), result)
    assert counters["mc_trials"] == 100

    # The shipped table is the first working layer for every key, found
    # after trying 3872 candidates in all.
    tracer._derived(counters, (), default_derived_table())
    assert counters["layers_tried"] == 3872

    state = build_target(CLUSTER_TARGET)
    args = (state, ("B1",), COMPUTATIONAL, 0)
    tracer._state_size(counters, args, project(*args))
    assert counters["max_amps"] == 16
    wide = tensor(state, build_target(CLUSTER_TARGET, ("E1", "E2", "E3", "E4")))
    tracer._state_size(counters, (state, wide), wide)
    assert counters["max_amps"] == 256
    flipped = apply(wide, [[0, 1], [1, 0]], ("E1",))
    tracer._state_size(counters, (wide, [[0, 1], [1, 0]], ("E1",)), flipped)
    tracer._state_size(counters, (wide, flipped), fidelity(wide, flipped))
    assert counters["max_amps"] == 256
