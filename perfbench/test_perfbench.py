"""Self-tests of the benchmark: its correctness gate, its layer map and
its tracing.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import cProfile
import dataclasses
import pstats

import pytest

import layers
import run
from repro.apps import lu_program, pthor_program
from repro.config import Consistency

#: Small stand-ins for the real bars, so each test takes about a second.
SMALL_LU = run.Workload(
    app="LU",
    program=lu_program,
    machine={"consistency": Consistency.SC, "num_processors": 4},
    app_changes={"n": 12},
)
SMALL_PTHOR = run.Workload(
    app="PTHOR",
    program=pthor_program,
    machine={"consistency": Consistency.SC, "num_processors": 4},
    app_changes={"num_gates": 60, "clock_cycles": 2},
)


def repro_modules():
    for path in sorted(run.PACKAGE_DIR.rglob("*.py")):
        yield layers.module_of_file(path, run.PACKAGE_DIR.resolve())


def test_every_repro_module_maps_to_exactly_one_layer():
    owned = set()
    for module in repro_modules():
        prefixes = [
            prefix
            for prefix in layers.LAYER_PREFIXES
            if module == prefix or module.startswith(prefix + ".")
        ]
        longest = max(len(prefix) for prefix in prefixes)
        assert len([p for p in prefixes if len(p) == longest]) == 1, module
        layer = layers.layer_of_module(module)
        assert layer in (*layers.TRACED_LAYERS, "other"), module
        owned.add(layer)
    assert set(layers.TRACED_LAYERS) <= owned


def test_builtins_are_charged_to_the_calling_layer():
    pkg = run.PACKAGE_DIR.resolve()
    caller = (str(pkg / "processor" / "processor.py"), 10, "step")
    callee = (str(pkg / "sim" / "engine.py"), 20, "run")
    builtin = ("~", 0, "<built-in method builtins.next>")
    stats = {
        callee: (1, 1, 0.5, 3.0, {}),
        caller: (5, 5, 1.0, 2.5, {callee: (5, 5, 1.0, 2.5)}),
        builtin: (5, 5, 1.5, 1.5, {caller: (5, 5, 1.5, 1.5)}),
    }
    self_s, calls = layers.attribute(stats, layers.file_layer_resolver(pkg))
    assert self_s == {"sim": 0.5, "processor": 2.5, "other": 0.0}
    assert calls == {"processor": 5}


def test_mutated_result_counts_as_failure():
    tally = run.Tally("small", 0, {})
    bar = tally.attempt(lambda: run.run_bar(SMALL_LU, 0))
    assert (tally.attempted, tally.failed) == (1, 0)
    mutated = dataclasses.replace(bar.result, execution_time=bar.result.execution_time + 1)
    tally.attempt(lambda: run.Bar(bar.setup_s, bar.run_s, mutated, bar.machine))
    assert (tally.attempted, tally.failed) == (2, 1)

    wrong = run.Tally("small", 0, {"small": {"0": "0" * 64}})
    assert wrong.committed
    wrong.attempt(lambda: run.run_bar(SMALL_LU, 0))
    assert wrong.failed == 1


def test_raising_bar_counts_as_failure():
    tally = run.Tally("small", 0, {})

    def broken():
        raise ValueError("boom")

    assert tally.attempt(broken) is None
    assert (tally.attempted, tally.failed) == (1, 1)


def test_layer_self_times_sum_to_profiled_total():
    profiler = cProfile.Profile()
    run.run_bar(SMALL_PTHOR, 1, profiler)
    stats = pstats.Stats(profiler)
    self_s, calls = layers.attribute(stats.stats, layers.file_layer_resolver(run.PACKAGE_DIR))
    assert set(self_s) <= {*layers.TRACED_LAYERS, "other"}
    assert sum(self_s.values()) == pytest.approx(stats.total_tt, rel=1e-9, abs=1e-9)
    assert self_s["sync"] > 0 and calls["sync"] > 0


def test_traced_bar_matches_untraced_and_keeps_the_fused_hit_path():
    plain = run.run_bar(SMALL_LU, 2)
    traced = run.traced_bar(SMALL_LU, 2, cProfile.Profile())
    assert run.digest(traced.result) == run.digest(plain.result)

    protocol = traced.machine.protocol
    protocol.read = protocol.read
    with pytest.raises(RuntimeError, match="rebinds"):
        run.check_no_rebinding(traced.machine)
