"""Host cost of one paper-figure bar, end to end and per layer.

Each workload is one bar of a paper figure: one application on the
paper's 16-processor scaled machine (``dash_scaled_config``), caches
starting empty.  A run repeats that bar for ``--seconds`` seconds in
this one process and reports medians::

    python3 perfbench/run.py --workload lu-sc --seed 1 --seconds 30 --trace 0

``--trace 0`` times bars with nothing attached and reports the
end-to-end metrics (``wall_s``, ``setup_s``, ``refs_per_s``,
``peak_rss_mb``).  ``--trace 1`` runs one bar with nothing attached,
then bars under ``cProfile`` only, and reports the per-layer table: self
time and calls per layer (see ``layers.py``), the profiler's overhead,
and the simulator's own exact counters.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every simulated statistic is deterministic, so a bar is correct when
the sha256 of its canonical result equals the digest committed in
``digests.json`` for that (workload, seed).  For any other seed the
digest is printed and every bar of the run must agree with the first.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import gc
import hashlib
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

# The event calendar is the program's choice; the benchmark never picks one.
os.environ.pop("REPRO_ENGINE_BACKEND", None)
sys.path.insert(0, str(SRC))

from repro.apps import lu_program, mp3d_program, pthor_program  # noqa: E402
from repro.coherence import AccessClass  # noqa: E402
from repro.config import Consistency, MachineConfig, dash_scaled_config  # noqa: E402
from repro.experiments.registry import app_config  # noqa: E402
from repro.experiments.resultcache import canonical_result_bytes  # noqa: E402
from repro.processor.accounting import Bucket  # noqa: E402
from repro.system import Machine, SimulationResult  # noqa: E402

import calibration  # noqa: E402
import layers  # noqa: E402

PACKAGE_DIR = SRC / "repro"


@dataclasses.dataclass(frozen=True)
class Workload:
    """One bar: an application at default scale on one machine config."""

    app: str
    program: Callable
    prefetching: bool = False
    machine: Dict = dataclasses.field(default_factory=dict)
    app_changes: Dict = dataclasses.field(default_factory=dict)

    def build_program(self, seed: int):
        config = dataclasses.replace(app_config(self.app), seed=seed, **self.app_changes)
        return self.program(config, prefetching=self.prefetching)

    def machine_config(self) -> MachineConfig:
        return dash_scaled_config(**self.machine)


#: Why each bar was chosen is in README.md.
WORKLOADS = {
    "lu-sc": Workload(
        app="LU",
        program=lu_program,
        machine={"consistency": Consistency.SC},
    ),
    "mp3d-rcpf-4ctx": Workload(
        app="MP3D",
        program=mp3d_program,
        prefetching=True,
        machine={
            "consistency": Consistency.RC,
            "contexts_per_processor": 4,
            "context_switch_cycles": 4,
        },
    ),
    "pthor-sc": Workload(
        app="PTHOR",
        program=pthor_program,
        machine={"consistency": Consistency.SC},
        # Default scale runs ~0.8 s; 4,000 gates makes a bar ~2.7 s.
        app_changes={"num_gates": 4000},
    ),
}

#: Set-up-only repetitions per timed bar; set-up is milliseconds, so
#: ``setup_s`` needs more samples than one per bar.
SETUPS_PER_BAR = 8


@dataclasses.dataclass
class Bar:
    setup_s: float
    run_s: float
    result: SimulationResult
    machine: Machine

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.run_s


def set_up(workload: Workload, seed: int) -> Machine:
    machine = Machine(workload.machine_config())
    machine.load(workload.build_program(seed))
    return machine


def time_setup(workload: Workload, seed: int) -> float:
    gc.collect()
    start = time.perf_counter()
    set_up(workload, seed)
    return time.perf_counter() - start


def run_bar(workload: Workload, seed: int, profiler: Optional[cProfile.Profile] = None) -> Bar:
    """One bar, from program build to collected result."""
    gc.collect()
    if profiler is not None:
        profiler.enable()
    try:
        start = time.perf_counter()
        machine = set_up(workload, seed)
        loaded = time.perf_counter()
        result = machine.run()
        done = time.perf_counter()
    finally:
        if profiler is not None:
            profiler.disable()
    return Bar(loaded - start, done - loaded, result, machine)


def digest(result: SimulationResult) -> str:
    return hashlib.sha256(canonical_result_bytes(result)).hexdigest()


def shared_references(result: SimulationResult) -> int:
    """Shared reads, shared writes and processor-issued prefetches."""
    return result.shared_reads + result.shared_writes + result.prefetch.issued_by_processor


def check_no_rebinding(machine: Machine) -> None:
    """Rebinding ``read``/``write`` on the protocol or a memory
    interface switches off the fused hit path, so the bar would no
    longer be the program the untraced runs measure."""
    for obj in (machine.protocol, *machine.memifaces):
        bound = {"read", "write"} & set(vars(obj))
        if bound:
            raise RuntimeError(f"{type(obj).__name__} instance rebinds {sorted(bound)}")


class Tally:
    """Bars attempted and failed.  A bar fails when it raises or when
    its digest is wrong for the seed: the committed one, or for a seed
    with none committed, the first bar's."""

    def __init__(self, workload: str, seed: int, committed: Dict[str, Dict[str, str]]):
        self.expected = committed.get(workload, {}).get(str(seed))
        self.committed = self.expected is not None
        self.first: Optional[str] = None
        self.attempted = 0
        self.failed = 0

    def ok(self, result: SimulationResult) -> bool:
        got = digest(result)
        if self.first is None:
            self.first = got
        if self.expected is None:
            self.expected = got
        return got == self.expected

    def attempt(self, run: Callable[[], Bar]) -> Optional[Bar]:
        """Run one bar; ``None`` if it raised."""
        self.attempted += 1
        try:
            bar = run()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            if self.failed >= 3 and self.failed == self.attempted:
                raise RuntimeError("every bar failed") from None
            return None
        if not self.ok(bar.result):
            self.failed += 1
        return bar


def load_digests() -> Dict[str, Dict[str, str]]:
    return json.loads(DIGESTS.read_text())


def metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def measure(workload: Workload, seed: int, seconds: float, tally: Tally) -> Dict:
    """Untraced bars until ``seconds`` have passed; end-to-end medians.

    Each time is scaled by the calibration loop timed just before and
    just after its bar (see ``calibration.py``).
    """
    set_up(workload, seed)  # warm lazy imports and first-use caches
    deadline = time.perf_counter() + seconds
    cal_before = calibration.block()
    cals = [cal_before]
    setups: List[float] = []
    walls: List[float] = []
    runs: List[float] = []
    raw_walls: List[float] = []
    refs = 0
    while not runs or time.perf_counter() < deadline:
        bar_setups = [time_setup(workload, seed) for _ in range(SETUPS_PER_BAR)]
        bar = tally.attempt(lambda: run_bar(workload, seed))
        cal_after = calibration.block()
        cals.append(cal_after)
        scale = calibration.scale(statistics.fmean((cal_before, cal_after)))
        cal_before = cal_after
        if bar is None:
            continue
        setups.extend(t * scale for t in (*bar_setups, bar.setup_s))
        walls.append(bar.wall_s * scale)
        runs.append(bar.run_s * scale)
        raw_walls.append(bar.wall_s)
        refs = shared_references(bar.result)
        del bar  # free this machine before the next set-ups
    summary("raw wall_s", raw_walls)
    summary("calibration pass_s", cals)
    summary("wall_s", walls)
    summary("setup_s", setups)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "refs_per_s": metric(refs / statistics.median(runs), "1/s"),
        "peak_rss_mb": metric(peak_kb / 1024, "MB"),
    }


def summary(name: str, values: List[float]) -> None:
    ordered = sorted(values)
    print(
        f"{name}: n={len(values)} median={statistics.median(values):.6g} "
        f"min={ordered[0]:.6g} max={ordered[-1]:.6g}"
    )


def counters(result: SimulationResult, machine: Machine, run_s: float) -> Dict[str, Dict]:
    """The simulator's exact per-layer counters for one bar (plus the
    host ``sim.us_per_event``)."""
    agg = result.aggregate.cycles
    pf = result.prefetch
    proto = result.protocol
    reads = {cls.value: count for cls, count in proto.reads_by_class.items()}
    class_hits = reads.get(AccessClass.PRIMARY_HIT.value, 0) + reads.get(
        AccessClass.SECONDARY_HIT.value, 0
    )
    util = machine.interconnect.utilization_report(result.execution_time)
    sync = result.sync
    out = {
        "processor.busy_pclk": metric(agg[Bucket.BUSY], "pclk"),
        "processor.read_stall_pclk": metric(agg[Bucket.READ_STALL], "pclk"),
        "processor.write_stall_pclk": metric(agg[Bucket.WRITE_STALL], "pclk"),
        "processor.sync_stall_pclk": metric(agg[Bucket.SYNC_STALL], "pclk"),
        "processor.switch_pclk": metric(agg[Bucket.SWITCH], "pclk"),
        "processor.idle_pclk": metric(agg[Bucket.ALL_IDLE] + agg[Bucket.NO_SWITCH], "pclk"),
        "processor.utilization": metric(result.processor_utilization, "ratio"),
        "processor.median_run_length": metric(result.median_run_length() or 0, "pclk"),
        # read_hits counts store forwards on top of the cache-hit classes.
        "system.memiface.store_forwards": metric(result.read_hits - class_hits, "count"),
        "system.memiface.prefetches_sent": metric(pf.sent_to_memory, "count"),
        "system.memiface.prefetches_discarded": metric(pf.discarded, "count"),
        "system.memiface.demand_combined": metric(pf.demand_combined, "count"),
        "system.memiface.pf_full_stall_pclk": metric(pf.buffer_full_stall_cycles, "pclk"),
        "system.memiface.prefetch_useful_ratio": metric(
            pf.sent_to_memory / pf.issued_by_processor if pf.issued_by_processor else 0.0,
            "ratio",
        ),
    }
    for cls in ("primary_hit", "secondary_hit", "local", "home", "remote"):
        out[f"coherence.protocol.reads.{cls}"] = metric(reads.get(cls, 0), "count")
    for name in (
        "writes_total",
        "writes_line_present",
        "invalidations_sent",
        "ownership_transfers",
        "sharing_writebacks",
        "eviction_writebacks",
    ):
        out[f"coherence.protocol.{name}"] = metric(getattr(proto, name), "count")
    out["coherence.protocol.read_hit_rate"] = metric(result.read_hit_rate() or 0.0, "ratio")
    out["sim.events"] = metric(result.events_processed, "count")
    out["sim.pclocks"] = metric(result.execution_time, "pclk")
    out["sim.us_per_event"] = metric(run_s / result.events_processed * 1e6, "us")
    out["interconnect.util_max"] = metric(max(util.values()), "ratio")
    out["interconnect.util_mean"] = metric(statistics.fmean(util.values()), "ratio")
    out["sync.lock_acquires"] = metric(sync.lock_acquires, "count")
    out["sync.contended_ratio"] = metric(
        sync.contended_acquires / sync.lock_acquires if sync.lock_acquires else 0.0, "ratio"
    )
    out["sync.flag_waits"] = metric(sync.flag_waits, "count")
    out["sync.barrier_crossings"] = metric(sync.barrier_crossings, "count")
    return out


def trace(workload: Workload, seed: int, seconds: float, tally: Tally) -> Dict:
    """One untraced bar, then bars under cProfile until ``seconds`` pass."""
    deadline = time.perf_counter() + seconds
    plain = None
    while plain is None:
        plain = tally.attempt(lambda: run_bar(workload, seed))
    per_bar: List[Dict[str, float]] = []
    traced_runs: List[float] = []
    resolve = layers.file_layer_resolver(PACKAGE_DIR)
    while not per_bar or time.perf_counter() < deadline:
        profiler = cProfile.Profile()
        bar = tally.attempt(lambda: traced_bar(workload, seed, profiler))
        if bar is None:
            continue
        traced_runs.append(bar.run_s)
        self_s, calls = layers.attribute(pstats.Stats(profiler).stats, resolve)
        row = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in layers.TRACED_LAYERS}
        row.update({f"{layer}.calls": calls.get(layer, 0) for layer in layers.TRACED_LAYERS})
        row["other.self_s"] = self_s.get("other", 0.0)
        per_bar.append(row)
    # median_low: each value is one traced bar's, so call counts stay whole.
    metrics = {
        name: metric(
            statistics.median_low(row[name] for row in per_bar),
            "count" if name.endswith(".calls") else "s",
        )
        for name in per_bar[0]
    }
    metrics["trace.overhead"] = metric(statistics.median_low(traced_runs) / plain.run_s, "x")
    metrics.update(counters(plain.result, plain.machine, plain.run_s))
    print_layer_table(metrics)
    return metrics


def traced_bar(workload: Workload, seed: int, profiler: cProfile.Profile) -> Bar:
    bar = run_bar(workload, seed, profiler)
    check_no_rebinding(bar.machine)
    return bar


def print_layer_table(metrics: Dict[str, Dict]) -> None:
    names = [*layers.TRACED_LAYERS, "other"]
    total = sum(metrics[f"{name}.self_s"]["value"] for name in names)
    print(f"{'layer':<22}{'self_s':>10}{'share':>8}{'calls':>12}")
    for name in names:
        self_s = metrics[f"{name}.self_s"]["value"]
        calls = metrics.get(f"{name}.calls", {}).get("value", "")
        print(f"{name:<22}{self_s:>10.3f}{self_s / total:>8.1%}{calls:>12}")


def provenance(workload: Workload) -> Dict:
    info = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_rev": git_rev(),
    }
    if "engine_backend" in {f.name for f in dataclasses.fields(MachineConfig)}:
        info["engine_backend"] = getattr(workload.machine_config(), "engine_backend")
    return info


def git_rev() -> Optional[str]:
    """The checkout's revision, or ``None`` outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import repro

    if Path(repro.__file__).resolve().parent != PACKAGE_DIR.resolve():
        print(f"repro imported from {repro.__file__}, not {PACKAGE_DIR}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tally = Tally(args.workload, args.seed, load_digests())
    print("provenance:", json.dumps(provenance(workload), sort_keys=True))
    run = trace if args.trace else measure
    metrics = run(workload, args.seed, args.seconds, tally)
    status = "committed" if tally.committed else "none committed; checked bars agree"
    print(f"digest {args.workload} seed={args.seed}: {tally.first} ({status})")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
