"""Command-line interface.

``repro-1991 table1`` / ``table2`` / ``fig2`` .. ``fig6`` / ``summary`` /
``all`` regenerate the paper's tables and figures at a chosen workload
scale and print them next to the paper's published values.
"""

from __future__ import annotations

import argparse
import itertools
import pathlib
import sys
from argparse import Namespace
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.analysis.latbound import LAT_MUTATIONS
from repro.analysis.modelcheck import MUTATIONS, ModelConfig
from repro.analysis.protodiff import DIFF_MUTATIONS
from repro.analysis.protolint import PROTO_MUTATIONS
from repro.analysis.tracecheck import MUTATION_NAMES
from repro.coherence.specs import spec_names

from repro.experiments import (
    ExperimentRunner,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    format_bars,
    format_table,
    summary_speedups,
    table1,
    table2,
)
from repro.experiments import paper_data


def _print_table1() -> None:
    probes = table1()
    rows = [
        (p.operation, p.expected, p.measured, "ok" if p.matches else "MISMATCH")
        for p in probes
    ]
    print(
        format_table(
            "Table 1: memory operation latencies (pclocks, no contention)",
            ["operation", "paper", "measured", ""],
            rows,
        )
    )


def _print_table2(runner: ExperimentRunner) -> None:
    rows = []
    for row in table2(runner):
        paper = paper_data.TABLE2[row.app]
        rows.append(
            (
                row.app,
                f"{row.useful_kcycles:.0f}",
                paper["useful_kcycles"],
                f"{row.shared_reads_k:.0f}",
                paper["shared_reads_k"],
                f"{row.shared_writes_k:.0f}",
                paper["shared_writes_k"],
                row.locks,
                paper["locks"],
                row.barriers,
                paper["barriers"],
                f"{row.shared_kbytes:.0f}",
                paper["shared_kbytes"],
            )
        )
    print(
        format_table(
            f"Table 2: general statistics (measured at scale={runner.scale!r} "
            "vs paper's full workloads)",
            [
                "app",
                "busy(K)",
                "paper",
                "reads(K)",
                "paper",
                "writes(K)",
                "paper",
                "locks",
                "paper",
                "barriers",
                "paper",
                "KB",
                "paper",
            ],
            rows,
        )
    )


def _figure(title: str, fn, paper, multi_context: bool):
    def render(runner: ExperimentRunner) -> None:
        print(format_bars(title, fn(runner), paper_totals=paper,
                          multi_context=multi_context))
    return render


def _print_summary(runner: ExperimentRunner) -> None:
    speedups = summary_speedups(runner)
    rows = []
    for app, values in speedups.items():
        rows.append(
            (
                app,
                values["cache_over_uncached"],
                values["rc_over_sc"],
                values["rc_pf_over_sc"],
                values["combined_over_uncached"],
            )
        )
    print(
        format_table(
            "Section 7 headline speedups (combined best is over the "
            "uncached baseline; paper reports 4-7x)",
            ["app", "cache", "RC/SC", "RC+pf/SC", "combined"],
            rows,
        )
    )


#: Artifact targets in ``all`` order, each with its renderer.  This
#: table supplies ``what``'s choices, ``all``'s target list and
#: :data:`_SWEEP_TARGETS`.
_ARTIFACTS: Dict[str, Callable[[ExperimentRunner], None]] = {
    "table1": lambda runner: _print_table1(),
    "table2": _print_table2,
    "fig2": _figure("Figure 2: effect of caching shared data", figure2,
                    paper_data.FIGURE2_TOTALS, False),
    "fig3": _figure("Figure 3: effect of relaxing the consistency model",
                    figure3, paper_data.FIGURE3_TOTALS, False),
    "fig4": _figure("Figure 4: effect of prefetching", figure4,
                    paper_data.FIGURE4_TOTALS, False),
    "fig5": _figure("Figure 5: effect of multiple contexts (SC)", figure5,
                    paper_data.FIGURE5_TOTALS, True),
    "fig6": _figure("Figure 6: combining the schemes (switch latency 4)",
                    figure6, paper_data.FIGURE6_TOTALS, True),
    "summary": _print_summary,
}

#: Artifact targets a sweep can enumerate simulation points for
#: (``table1`` is latency probes, not program runs).
_SWEEP_TARGETS = tuple(target for target in _ARTIFACTS if target != "table1")


# -- the check registry --------------------------------------------------------

#: An argparse option: its flag and ``add_argument`` keywords.
Option = Tuple[str, Dict[str, Any]]


def _opt(flag: str, **kwargs: Any) -> Option:
    return flag, kwargs


def _is_set(args: Namespace, option: Option) -> bool:
    """Whether ``option`` was given a value other than its default."""
    flag, spec = option
    value = getattr(args, flag[2:].replace("-", "_"))
    return value not in (None, False, spec.get("default"))


class Check(NamedTuple):
    """One ``repro-1991 check`` pass.  ``options`` are the argparse
    options it owns: setting any of them away from its default selects
    the check.  ``run`` reads the parsed arguments and returns whether
    the check passed."""

    name: str
    description: str
    default: bool
    options: Tuple[Option, ...]
    run: Callable[[Namespace], bool]


_CHECK_APPS = ("MP3D", "LU", "PTHOR")


def _app_names(app: str) -> Tuple[str, ...]:
    return _CHECK_APPS if app == "all" else (app,)


def _check_programs(app: str):
    """Small (app name, program, processes) triples for ``repro check``."""
    from repro.experiments.registry import SMOKE_PROCESSES, smoke_program

    return [(name, smoke_program(name), SMOKE_PROCESSES)
            for name in _app_names(app)]


def _mc_config(args: Namespace) -> ModelConfig:
    """The model checker's bounds from the shared ``--mc-*`` options."""
    from repro.faults.plan import BackoffPolicy

    return ModelConfig(
        num_caches=args.mc_caches,
        num_lines=args.mc_lines,
        num_values=args.mc_values,
        max_in_flight=args.mc_in_flight,
        backoff=BackoffPolicy(max_retries=args.mc_retries),
    )


def _pin_fingerprint(path: str, computed: str, prefix: str,
                     what_changed: str) -> bool:
    """Compare ``computed`` against the fingerprint cached at ``path``:
    written when absent, compared when present, so CI fails fast on an
    unreviewed diff.  Returns False on a mismatch."""
    cache = pathlib.Path(path)
    if not cache.exists():
        cache.parent.mkdir(parents=True, exist_ok=True)
        cache.write_text(computed + "\n")
        print(f"{prefix} cached to {cache}")
        return True
    cached = cache.read_text().strip()
    if cached != computed:
        print(
            f"{prefix} MISMATCH: cached {cached[:16]} != computed "
            f"{computed[:16]} — {what_changed} and delete {cache} to accept"
        )
        return False
    print(f"{prefix} matches cache ({cache})")
    return True


def _op_stream_pass(args: Namespace, lint: bool, races: bool) -> bool:
    """One ``LogicalExecutor`` pass per app feeding the op-stream linter
    and/or the race detector, so ``lint`` and ``races`` together print
    one ``[APP] N ops`` header per app.  Races are informational (MP3D's
    move-phase races are benign and acknowledged by the paper); only
    lint findings fail."""
    from repro.analysis.executor import LogicalExecutor
    from repro.analysis.oplint import OpLinter
    from repro.analysis.race_detector import RaceDetector

    ok = True
    for name, program, processes in _check_programs(args.app):
        linter = OpLinter(source=name)
        detector = RaceDetector()
        listeners = []
        if lint:
            listeners.append(linter)
        if races:
            listeners.append(detector)
        summary = LogicalExecutor(
            program, processes, listeners=listeners, strict=False
        ).run()
        print(f"[{name}] {summary.ops_executed} ops from "
              f"{summary.num_threads} threads")
        if lint:
            print(f"  {linter.format_issues()}")
            if linter.failures(args.strict):
                ok = False
        if races:
            print(f"  {detector.format_reports()}")
            if args.verbose:
                for report in detector.reports:
                    print(f"    {report}")
    return ok


def _run_lint(args: Namespace) -> bool:
    return _op_stream_pass(args, lint=True, races="races" in args.selected)


def _run_races(args: Namespace) -> bool:
    # With lint selected, the race detector rode along on lint's pass.
    return "lint" in args.selected or _op_stream_pass(
        args, lint=False, races=True
    )


def _run_litmus(args: Namespace) -> bool:
    from repro.analysis.litmus import run_suite

    results = run_suite()
    bad = [result for result in results if not result.ok]
    print(f"[litmus] {len(results)} (test, model) pairs, "
          f"{len(bad)} violation(s)")
    for result in bad:
        print(f"  {result.explain()}")
    if args.verbose:
        for result in results:
            print(f"  {result.test.name} {result.model.name}: "
                  f"{sorted(result.observed)}")
    return not bad


def _run_invariants(args: Namespace) -> bool:
    from repro.config import dash_scaled_config
    from repro.sim.engine import SimulationError
    from repro.system import Machine

    ok = True
    for name, program, processes in _check_programs(args.app):
        config = dash_scaled_config(
            num_processors=processes, sanitize=True,
            seed=args.seed, max_events=args.max_events,
        )
        machine = Machine(config)
        machine.load(program)
        try:
            machine.run()
        except SimulationError as exc:  # srclint: ok(swallow-simulation-error) — reported, fails the check
            print(f"[invariants] {name}: FAILED\n{exc}")
            ok = False
        else:
            print(f"[invariants] {name}: ok "
                  f"({machine.sanitizer.checks_performed} checks)")
    return ok


def _run_faults(args: Namespace) -> bool:
    """Run each smoke app under a seeded fault plan (``--faults``, smoke
    when selected by name) with the coherence sanitizer armed and a
    wall-clock watchdog, supervised so one failing configuration does
    not take the others down."""
    from repro.config import dash_scaled_config
    from repro.experiments.registry import SMOKE_PROCESSES, smoke_program
    from repro.experiments.supervisor import ExperimentSupervisor
    from repro.faults import FaultPlan, Watchdog
    from repro.system import run_program

    fault_level = args.faults if args.faults != "none" else "smoke"
    config = dash_scaled_config(
        num_processors=SMOKE_PROCESSES,
        sanitize=True,
        seed=args.seed,
        max_events=args.max_events,
        fault_plan=FaultPlan.preset(fault_level, seed=args.seed),
    )
    supervisor = ExperimentSupervisor(
        watchdog_factory=lambda: Watchdog(wall_clock_limit_s=90.0),
        verbose=args.verbose,
    )
    jobs = [
        (
            name,
            (lambda n: lambda watchdog=None: run_program(
                smoke_program(n), config, watchdog=watchdog
            ))(name),
        )
        for name in _app_names(args.app)
    ]
    report = supervisor.run_sweep(f"faults-{fault_level}", jobs)
    print(f"[faults] plan={fault_level} seed={args.seed}")
    for entry in report.entries:
        if entry.ok:
            print(f"  {entry.name}: {entry.status.value} — "
                  f"{entry.result.faults.summary()}")
        else:
            print(f"  {entry.name}: FAILED — {entry.error.splitlines()[0]}")
    print(f"  {report.format().splitlines()[0]}")
    return report.ok


def _run_model(args: Namespace) -> bool:
    """Exhaustively enumerate the abstract protocol, print the verdict
    (and the counterexample trace if an invariant broke), and optionally
    pin the reachable-state fingerprint so CI fails fast on unreviewed
    protocol diffs."""
    from repro.analysis.modelcheck import check_protocol, format_counterexample

    result = check_protocol(_mc_config(args), mutation=args.mc_mutate)
    print(f"[model] {result.summary()}")
    if result.violation is not None:
        print(format_counterexample(result.violation))
        return False
    return not args.mc_fingerprint or _pin_fingerprint(
        args.mc_fingerprint, result.fingerprint, "[model] fingerprint",
        "the reachable state space changed; review the protocol diff",
    )


def _run_lockorder(args: Namespace) -> bool:
    from repro.analysis.lockorder import analyze_apps

    ok = True
    for report in analyze_apps(_app_names(args.app)):
        print(f"[lockorder] {report.format()}")
        bad = report.findings if args.strict else report.errors
        if bad:
            ok = False
    return ok


def _run_srclint(args: Namespace) -> bool:
    from repro.analysis.srclint import (
        default_root, failures, format_issues, lint_tree,
    )

    issues = lint_tree()
    print(f"[srclint] {default_root()}: {format_issues(issues)}")
    return not failures(issues, args.strict)


def _run_protolint(args: Namespace) -> bool:
    """Statically verify the declarative protocol transition table
    (complete, deterministic, live against the model checker's reachable
    states, stutter-free), printing each violation with its minimal
    witness trace, and optionally pin the canonical table fingerprint
    (the ``--mc-fingerprint`` pattern)."""
    from repro.analysis.protolint import lint_table, mutated_table

    mutation = args.proto_mutate
    table = mutated_table(mutation) if mutation is not None else None
    result = lint_table(table, config=_mc_config(args))
    print(f"[protolint] {result.summary()}")
    for finding in result.findings:
        print("  " + finding.format().replace("\n", "\n  "))
    if result.model_fingerprint is not None:
        agreement = "agrees" if result.fingerprints_agree else "DISAGREES"
        print(
            f"[protolint] reachable-state fingerprint {agreement} with "
            f"the model checker "
            f"({(result.reachable_fingerprint or '')[:16]})"
        )
    if not result.ok:
        return False
    return not args.proto_fingerprint or _pin_fingerprint(
        args.proto_fingerprint, result.table_fingerprint,
        "[protolint] table fingerprint",
        "the transition table changed; review the diff",
    )


def _run_protomatrix(args: Namespace) -> bool:
    """Model-check and proto-lint every registered protocol spec, so a
    spec cannot land in the registry without the full static battery
    passing over it.  With ``--proto-matrix-fingerprints DIR``, pin one
    file per spec (``DIR/<name>.fp`` holding the spec fingerprint and
    the reachable-state fingerprint)."""
    from repro.analysis.modelcheck import check_protocol, format_counterexample
    from repro.analysis.protolint import lint_table
    from repro.coherence.specs import get_spec, spec_names

    config = _mc_config(args)
    ok = True
    for name in spec_names():
        spec = get_spec(name)
        result = check_protocol(config, spec=spec)
        print(f"[protomatrix] {name}: {result.summary()}")
        if result.violation is not None:
            print(format_counterexample(result.violation))
            ok = False
            continue
        lint = lint_table(config=config, spec=spec)
        print(f"[protomatrix] {name}: {lint.summary()}")
        for finding in lint.findings:
            print("  " + finding.format().replace("\n", "\n  "))
        if not lint.ok:
            ok = False
        elif args.proto_matrix_fingerprints and not _pin_fingerprint(
            str(pathlib.Path(args.proto_matrix_fingerprints) / f"{name}.fp"),
            f"{spec.fingerprint()} {result.fingerprint}",
            f"[protomatrix] {name}: fingerprint",
            "the spec or its reachable state space changed; review the diff",
        ):
            ok = False
    return ok


def _run_protodiff(args: Namespace) -> bool:
    """Decide observational trace equivalence of two registered specs by
    product-composing their reachable models (tau-closed determinization
    + BFS), printing the verdict and, on refutation, the minimal witness
    trace.  Without ``--proto-diff``, diff every unordered pair of
    registered specs (the registry's claimed containment chain).  With
    ``--diff-mutate``, seed the mutation into the *right* spec; the
    expected (failing) outcome is a refutation with a printed witness,
    mirroring ``--mc-mutate``."""
    from repro.analysis.protodiff import diff_specs, mutated_spec
    from repro.coherence.specs import get_spec, spec_names

    pair, mutation = args.proto_diff, args.diff_mutate
    if mutation is not None:
        left = get_spec(pair[0] if pair else "directory-msi")
        result = diff_specs(left, mutated_spec(mutation))
        print("[protodiff] " + result.format().replace("\n", "\n  "))
        if result.equivalent:
            print(f"[protodiff] mutation {mutation!r} was NOT detected")
        return result.equivalent

    ok = True
    for left_name, right_name in (
        [pair] if pair else itertools.combinations(spec_names(), 2)
    ):
        result = diff_specs(get_spec(left_name), get_spec(right_name))
        print("[protodiff] " + result.format().replace("\n", "\n  "))
        ok = ok and result.ok
    return ok


def _run_latbound(args: Namespace) -> bool:
    """Derive the per-transaction latency envelopes from the protocol
    table and run the static accounting conformance passes; with
    ``--lat-audit``, also replay a traced smoke run per app (under SC
    and RC) and verify every observed transaction latency falls inside
    its envelope.  With ``--lat-mutate``, seed the defect and print the
    detecting witness (a failing check when detected, mirroring
    ``--proto-mutate``).  ``--lat-fingerprint`` pins the canonical
    envelope fingerprint so CI fails fast on unreviewed latency-model
    diffs."""
    from repro.analysis.latbound import audit_app, check_accounting
    from repro.config import Consistency

    mutation = args.lat_mutate
    result = check_accounting(mutation=mutation)
    print(f"[latbound] {result.summary()}")
    for finding in result.findings:
        print("  " + finding.format().replace("\n", "\n  "))
    if args.verbose:
        table_text = result.table.format_table(Consistency.RC)
        print("  " + table_text.replace("\n", "\n  "))
    if result.findings:
        return False  # witnesses printed above

    if mutation is not None:
        # The remaining defect class only shifts the bounds; replay one
        # traced smoke run and let the audit produce the witness.
        report = audit_app("MP3D", mutation=mutation)
        print("[latbound] " + report.format().replace("\n", "\n  "))
        if report.ok:
            print(f"[latbound] mutation {mutation!r} was NOT detected")
        return report.ok

    if args.lat_audit:
        ok = True
        for name in _app_names(args.app):
            for model in (Consistency.SC, Consistency.RC):
                report = audit_app(name, model)
                print("[latbound] " + report.format().replace("\n", "\n  "))
                ok = ok and report.ok
        if not ok:
            return False

    return not args.lat_fingerprint or _pin_fingerprint(
        args.lat_fingerprint, result.fingerprint,
        "[latbound] envelope fingerprint",
        "the latency model changed; review the diff",
    )


def _run_trace(args: Namespace) -> bool:
    """With ``--trace-mutate``, run the mutation's demonstration litmus
    test with the seeded consistency bug installed and print the witness
    (a detected violation fails the check, mirroring ``--mc-mutate``).
    Otherwise cross-validate the whole litmus matrix against the
    axiomatic oracle and trace one smoke run per requested app under
    RC."""
    from repro.analysis.tracecheck import check_app, run_mutation_demo

    mutation = args.trace_mutate
    if mutation is not None:
        report = run_mutation_demo(mutation)
        print(f"[trace] mutation {mutation!r}:")
        print("  " + report.format().replace("\n", "\n  "))
        if report.ok:
            print(f"[trace] mutation {mutation!r} was NOT detected")
        return report.ok

    from repro.analysis.litmus import run_suite

    results = run_suite(trace_check=True)
    bad = [result for result in results if result.conformance_failures]
    print(f"[trace] litmus matrix: {len(results)} (test, model) pairs "
          f"cross-validated, {len(bad)} conformance failure(s)")
    for result in bad:
        print(f"  {result.explain()}")
    if args.verbose:
        for result in results:
            print(f"  {result.test.name} {result.model.name}: "
                  f"{len(result.by_schedule)} schedules conform")
    ok = not bad
    for name in _app_names(args.app):
        report = check_app(name)
        print(f"[trace] {name}: {report.format()}")
        ok = ok and report.ok
    return ok


def _run_layout(args: Namespace) -> bool:
    from repro.analysis.layoutlint import check_app_baselines

    ok, lines = check_app_baselines()
    print("[layout] bundled apps vs known-finding baselines:")
    for line in lines:
        print(line)
    return ok


def _run_chaos(args: Namespace) -> bool:
    from repro.experiments.chaos import run_chaos_check

    return not run_chaos_check(verbose=args.verbose)


#: Every ``repro-1991 check`` pass, in run order.  ``--list-checks``,
#: the ``--checks``/``what`` help, the parser's per-check options,
#: selection and dispatch all read this table: adding a check is one
#: entry here.
CHECKS: Tuple[Check, ...] = (
    Check("lint", "structural lint of each app's op streams (op shape, "
          "sync pairing)", True, (), _run_lint),
    Check("races", "happens-before data-race detection over the op "
          "streams", True, (), _run_races),
    Check("litmus", "consistency litmus matrix through the full machine",
          True, (), _run_litmus),
    Check("invariants", "sanitized smoke simulation (SWMR, inclusion, "
          "precision)", True, (), _run_invariants),
    Check("faults", "smoke apps under seeded message faults, sanitizer "
          "armed", False, (
              _opt("--faults", choices=["none", "smoke", "heavy"],
                   default="none",
                   help="fault plan for the 'faults' check: run the smoke "
                        "apps under seeded message faults (drops, delays, "
                        "duplicates, directory NACKs) with the coherence "
                        "sanitizer armed"),
          ), _run_faults),
    Check("model", "exhaustive model check of the abstract directory "
          "protocol", False, (
              _opt("--model-check", action="store_true",
                   help="exhaustively model-check the abstract directory "
                        "protocol (SWMR, data values, directory precision, "
                        "no stuck states) over the --mc-* bounds, printing "
                        "a minimal counterexample trace on violation"),
              _opt("--mc-mutate", choices=list(MUTATIONS), default=None,
                   help="model-check a deliberately broken protocol "
                        "variant (demo: each mutation yields a minimal "
                        "counterexample trace)"),
              _opt("--mc-fingerprint", default=None, metavar="PATH",
                   help="cache the model checker's reachable-state "
                        "fingerprint at PATH: written when absent, "
                        "compared when present (mismatch fails the check "
                        "— CI's fast protocol-diff detector)"),
          ), _run_model),
    Check("lockorder", "static lock-order deadlock and barrier analysis",
          False, (
              _opt("--lock-order", action="store_true",
                   help="static deadlock analysis: build the lock/barrier "
                        "acquisition graph of each application's op "
                        "streams and report lock-order cycles and barrier "
                        "mismatches"),
          ), _run_lockorder),
    Check("srclint", "determinism + hot-path lint over the simulator "
          "source", False, (
              _opt("--lint-src", action="store_true",
                   help="determinism lint over the simulator source "
                        "itself (unseeded random, wall-clock reads, "
                        "unordered-set iteration, mutable defaults, "
                        "swallowed SimulationError, stale srclint "
                        "acknowledgements)"),
          ), _run_srclint),
    Check("protolint", "static completeness/determinism/liveness check of "
          "the declarative protocol transition table", False, (
              _opt("--proto-lint", action="store_true",
                   help="statically verify the declarative protocol "
                        "transition table: complete (every reachable "
                        "(state, event) pair handled or declared "
                        "impossible), deterministic (no overlapping "
                        "rules), live (no dead states/transitions, "
                        "cross-checked against the model checker's "
                        "reachable states), and stutter-free, with minimal "
                        "witness traces"),
              _opt("--proto-mutate", choices=list(PROTO_MUTATIONS),
                   default=None,
                   help="proto-lint a deliberately broken copy of the "
                        "table (demo: each mutation yields a violation "
                        "with a witness)"),
              _opt("--proto-fingerprint", default=None, metavar="PATH",
                   help="cache the canonical table fingerprint at PATH: "
                        "written when absent, compared when present "
                        "(mismatch fails the check — CI's fast table-diff "
                        "detector)"),
          ), _run_protolint),
    Check("protomatrix", "model check + protolint over every registered "
          "protocol spec (directory-msi, mesi, moesi)", False, (
              _opt("--proto-matrix", action="store_true",
                   help="model-check and proto-lint every registered "
                        "protocol spec (directory-msi, mesi, moesi) under "
                        "the --mc-* bounds, so a registry entry cannot "
                        "drift without the full static battery noticing"),
              _opt("--proto-matrix-fingerprints", default=None,
                   metavar="DIR",
                   help="with --proto-matrix: cache one fingerprint file "
                        "per spec under DIR (<spec>.fp, written when "
                        "absent, compared when present; mismatch fails "
                        "the check — CI's fast spec-diff detector)"),
          ), _run_protomatrix),
    Check("protodiff", "differential protocol equivalence: product-compose "
          "two specs' reachable models and prove (or refute with a "
          "minimal witness) observational equivalence", False, (
              _opt("--proto-diff", nargs=2, default=None,
                   choices=spec_names(), metavar=("LEFT", "RIGHT"),
                   help="differential protocol equivalence: "
                        "product-compose the two named specs' reachable "
                        "models (tau-closed determinization + BFS) and "
                        "prove observational equivalence on "
                        "load-value/ownership traces, or refute it with a "
                        "minimal witness; use '--checks protodiff' alone "
                        "to diff every registered pair"),
              _opt("--diff-mutate", choices=list(DIFF_MUTATIONS),
                   default=None,
                   help="run --proto-diff against a deliberately broken "
                        "right spec (demo: the mutation must be refuted "
                        "with a printed witness trace and a nonzero exit)"),
          ), _run_protodiff),
    Check("latbound", "static per-transaction latency envelopes derived "
          "from the protocol table, with optional trace audit", False, (
              _opt("--lat-bound", action="store_true",
                   help="derive closed-form per-transaction latency "
                        "envelopes from the protocol transition table and "
                        "the machine config, and statically verify the "
                        "accounting (every rule priced into exactly one "
                        "stall bucket, connected charge paths, single "
                        "directory pass, Table 1's additive distance "
                        "ladder, monotonicity in every config parameter, "
                        "additive technique composition)"),
              _opt("--lat-audit", action="store_true",
                   help="with --lat-bound: replay a traced smoke run per "
                        "app under SC and RC and verify every observed "
                        "transaction latency falls inside its derived "
                        "envelope (fault-free runs only)"),
              _opt("--lat-mutate", choices=list(LAT_MUTATIONS),
                   default=None,
                   help="run --lat-bound with a deliberately seeded "
                        "accounting defect (demo: the first two are "
                        "caught statically with a witness path, "
                        "envelope-too-tight is caught by the trace audit "
                        "with a witness transaction)"),
              _opt("--lat-fingerprint", default=None, metavar="PATH",
                   help="cache the canonical envelope fingerprint at "
                        "PATH: written when absent, compared when present "
                        "(mismatch fails the check — CI's fast "
                        "latency-model-diff detector)"),
          ), _run_latbound),
    Check("trace", "axiomatic trace conformance (litmus matrix + smoke "
          "runs)", False, (
              _opt("--trace-check", action="store_true",
                   help="axiomatic trace conformance: cross-validate the "
                        "litmus matrix against the declared model's "
                        "happens-before axioms and trace one smoke run per "
                        "app under RC"),
              _opt("--trace-mutate", choices=list(MUTATION_NAMES),
                   default=None,
                   help="run --trace-check's demo litmus test with a "
                        "deliberately seeded consistency bug installed "
                        "(each mutation yields a printed witness cycle and "
                        "a nonzero exit)"),
          ), _run_trace),
    Check("layout", "static memory-layout lint of the bundled apps", False, (
              _opt("--layout-lint", action="store_true",
                   help="static memory-layout lint over the bundled apps: "
                        "false sharing and malformed prefetch streams, "
                        "compared against the known-finding baselines"),
          ), _run_layout),
    Check("chaos", "crash-tolerance drill: SIGKILL pool workers mid-sweep, "
          "corrupt the journal tail, resume, verify bit-identity", False, (
              _opt("--chaos", action="store_true",
                   help="crash-tolerance drill: run a tiny journaled sweep "
                        "whose points SIGKILL their own pool workers, "
                        "interrupt it, corrupt the journal tail, resume, "
                        "and verify the resumed payload digests are "
                        "bit-identical to an uninterrupted serial run (the "
                        "poison point must end up quarantined)"),
          ), _run_chaos),
)

#: What ``repro-1991 check`` runs with no selection at all: the fast
#: dynamic passes.  ``--all`` is the documented way to run every pass.
_DEFAULT_CHECKS = tuple(check.name for check in CHECKS if check.default)

#: Options any check may read; setting one selects nothing.
_SHARED_OPTIONS: Tuple[Option, ...] = (
    _opt("--app", choices=[*_CHECK_APPS, "all"], default="all",
         help="application(s) for the 'check' subcommand"),
    _opt("--strict", action="store_true",
         help="promote warnings to failures (op-stream lint warnings, "
              "lock-order warnings)"),
    _opt("--mc-caches", type=int, default=2, metavar="N",
         help="model checker bound: number of caches (default 2)"),
    _opt("--mc-lines", type=int, default=1, metavar="N",
         help="model checker bound: number of lines (default 1)"),
    _opt("--mc-values", type=int, default=2, metavar="N",
         help="model checker bound: distinct data values (default 2)"),
    _opt("--mc-in-flight", type=int, default=2, metavar="N",
         help="model checker bound: messages in flight (default 2)"),
    _opt("--mc-retries", type=int, default=2, metavar="N",
         help="model checker bound: NACK retry budget (default 2)"),
    _opt("--seed", type=int, default=0,
         help="master seed threaded into MachineConfig: makes fault "
              "plans and their retry schedules reproducible"),
    _opt("--max-events", type=int, default=None, metavar="N",
         help="event-engine livelock guard: abort any single run after "
              "N events instead of the default 2e9"),
    _opt("--verbose", action="store_true", help="log each simulation run"),
)


def list_checks() -> str:
    """The ``--list-checks`` rendering: every pass with its one-liner,
    the options that select it, and whether it is in the no-flags
    default subset, with the ``--all`` semantics spelled out."""
    lines = ["available checks (run order):"]
    for check in CHECKS:
        marker = "*" if check.default else " "
        lines.append(f"  {marker} {check.name:<11} {check.description}")
        flags = ", ".join(flag for flag, _ in check.options)
        lines.append(f"    default: {'yes' if check.default else 'no'}; "
                     f"flags: {flags or '--checks ' + check.name}")
    lines.append(
        "checks marked * run by default; --all runs every check; "
        "--checks a,b or a dedicated flag runs just those"
    )
    return "\n".join(lines)


def select_checks(args: Namespace) -> List[str]:
    """Resolve the ``check`` subcommand's flags to the list of passes.

    ``--all`` selects every pass.  Otherwise ``--checks a,b`` lists
    passes explicitly, and any option a check owns (see
    :data:`CHECKS`), set away from its default, selects that check too.
    With no selection at all the documented default subset
    :data:`_DEFAULT_CHECKS` runs (the bare default is *not* the full
    suite).  Shared options such as ``--app`` or ``--mc-caches`` select
    nothing.
    """
    if args.all_checks:
        return [check.name for check in CHECKS]
    flagged = [check.name for check in CHECKS
               if any(_is_set(args, option) for option in check.options)]
    if args.checks is None:
        return flagged or list(_DEFAULT_CHECKS)
    listed = [c.strip() for c in args.checks.split(",") if c.strip()]
    return listed + [c for c in flagged if c not in listed]


def run_checks(args: Namespace) -> int:
    """Run the passes named in ``args.selected`` in registry order.  A
    failure is latched the moment it happens, so a later passing check
    can never mask it, and the verdict line names every failing check.
    Returns 1 if any check failed."""
    failed = [check.name for check in CHECKS
              if check.name in args.selected and not check.run(args)]
    if failed:
        print(f"check: FAILED ({', '.join(failed)})")
        return 1
    print("check: ok")
    return 0


def run_sweep_command(args, parser) -> int:
    """The ``repro-1991 sweep`` subcommand: journaled, supervised,
    resumable sweep execution.  A fresh run journals its full point list
    up front and every outcome as it lands; SIGINT/SIGTERM drain
    in-flight points, flush the journal, and print the exact
    ``--resume`` command.  Exit status: 0 all points ok, 1 any point
    failed or quarantined, 130 interrupted (resumable)."""
    from repro.experiments.journal import resolve_journal_dir
    from repro.experiments.parallel import sweep_points_for
    from repro.experiments.resultcache import ResultCache, resolve_cache_dir
    from repro.experiments.supervisor import ExperimentSupervisor
    from repro.experiments.sweepservice import (
        ServiceControl,
        ServicePolicy,
        SweepService,
        resume_command,
    )
    from repro.faults import Watchdog

    journal_dir = resolve_journal_dir(args.journal_dir)
    cache_dir = resolve_cache_dir(args.cache_dir)
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    control = ServiceControl()
    service = SweepService(
        journal_dir,
        cache=cache,
        policy=ServicePolicy(hang_timeout_s=args.hang_timeout),
        control=control,
        verbose=args.verbose,
    )
    watchdog_factory = None
    if args.hang_timeout is not None:
        # Smoke-scale apps fire too few events for the default 250k
        # heartbeat interval; a tight interval keeps the liveness files
        # fresh so a slow-but-alive pool is never mistaken for a hang.
        watchdog_factory = lambda: Watchdog(heartbeat_every=2000)  # noqa: E731
    supervisor = ExperimentSupervisor(
        watchdog_factory=watchdog_factory, verbose=args.verbose
    )

    with control.handle_signals():
        if args.resume:
            run_id = args.resume
            try:
                report = service.resume(
                    run_id, supervisor=supervisor, jobs=args.jobs
                )
            except (FileNotFoundError, ValueError) as exc:
                parser.error(str(exc))
        else:
            names = [t.strip() for t in args.targets.split(",") if t.strip()]
            if names == ["all"]:
                names = list(_SWEEP_TARGETS)
            unknown = [t for t in names if t not in _SWEEP_TARGETS]
            if unknown:
                parser.error(
                    f"unknown sweep targets: {', '.join(unknown)} "
                    f"(choose from {', '.join(_SWEEP_TARGETS)}, or 'all')"
                )
            runner = ExperimentRunner(
                scale=args.scale,
                verbose=args.verbose,
                seed=args.seed,
                max_events=args.max_events,
            )
            points = sweep_points_for(names, runner)
            if not points:
                parser.error("the selected targets produce no sweep points")
            run_id, report = service.start(
                "sweep:" + ",".join(names), points,
                supervisor=supervisor, jobs=args.jobs,
            )

    print(report.format())
    print(service.cache.stats_line())
    print(f"run id: {run_id} (journal: {journal_dir})")
    if report.interrupted:
        print(f"interrupted — resume with: {resume_command(journal_dir, run_id)}")
        return 130
    return 0 if report.ok else 1


#: Artifact and sweep options; ``check`` reads none of them.
_RUN_OPTIONS: Tuple[Option, ...] = (
    _opt("--scale", choices=["bench", "default", "paper", "smoke"],
         default="default",
         help="workload scale (paper = the full data sets; slow; "
              "smoke = the seconds-scale CI data sets)"),
    _opt("--jobs", type=int, default=None, metavar="N",
         help="run independent sweep points over N worker processes "
              "(default: $REPRO_JOBS or 1 = serial; results are "
              "bit-identical either way)"),
    _opt("--cache-dir", default=None, metavar="DIR",
         help="content-addressed on-disk result cache: repeat runs of an "
              "unchanged (app, scale, config, version) point are replayed "
              "instead of re-simulated (default: $REPRO_CACHE_DIR, else "
              "disabled)"),
    _opt("--targets", default="summary", metavar="T1,T2",
         help="for 'sweep': comma-separated artifact targets whose "
              "simulation points make up the sweep (table2, fig2..fig6, "
              "summary, or 'all'; default: summary)"),
    _opt("--resume", default=None, metavar="RUN_ID",
         help="for 'sweep': continue the interrupted run RUN_ID from its "
              "journal instead of starting a fresh sweep (the exact "
              "command is printed when a sweep is interrupted)"),
    _opt("--journal-dir", default=None, metavar="DIR",
         help="for 'sweep': directory holding run journals and the "
              "default result cache (default: $REPRO_JOURNAL_DIR, else "
              ".repro/journal)"),
    _opt("--hang-timeout", type=float, default=None, metavar="S",
         help="for 'sweep': declare the worker pool hung after S seconds "
              "with no completion and no worker heartbeat, then restart "
              "it and retry the lost points (default: disabled)"),
)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-1991`` argument parser; every ``check`` option and
    the check lists in the help text come from :data:`CHECKS`."""
    names = [check.name for check in CHECKS]
    optional = [name for name in names if name not in _DEFAULT_CHECKS]
    default = ",".join(_DEFAULT_CHECKS)
    selectors = [check.options[0][0] for check in CHECKS if check.options]
    parser = argparse.ArgumentParser(
        prog="repro-1991",
        description=(
            "Regenerate the tables and figures of Gupta et al., "
            "'Comparative Evaluation of Latency Reducing and Tolerating "
            "Techniques' (ISCA 1991)."
        ),
    )
    parser.add_argument(
        "what",
        choices=[*_ARTIFACTS, "all", "check", "sweep"],
        help="which artifact to regenerate, 'check' to run the "
             f"analysis suite ({', '.join(_DEFAULT_CHECKS)}, plus "
             f"{', '.join(optional)}), or 'sweep' to run a journaled, "
             "crash-tolerant, resumable sweep of the targets' "
             "simulation points",
    )
    selection: Tuple[Option, ...] = (
        _opt("--checks", default=None,
             help=f"comma-separated subset of checks to run: "
                  f"{','.join(names)} (default: {default} — NOT the full "
                  "suite; use --all for everything, --list-checks to "
                  "enumerate; just the selected checks when any option "
                  f"a check owns is given, e.g. {', '.join(selectors)})"),
        _opt("--all", dest="all_checks", action="store_true",
             help="run every check in the suite (the documented "
                  f"everything mode; the bare default runs only {default})"),
        _opt("--list-checks", action="store_true",
             help="list every check with a one-line description and exit"),
    )
    owned = tuple(option for check in CHECKS for option in check.options)
    for flag, spec in _RUN_OPTIONS + selection + _SHARED_OPTIONS + owned:
        parser.add_argument(flag, **spec)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.what == "check":
        if args.list_checks:
            print(list_checks())
            return 0
        args.selected = select_checks(args)
        unknown = set(args.selected) - {check.name for check in CHECKS}
        if unknown:
            parser.error(f"unknown checks: {', '.join(sorted(unknown))}")
        return run_checks(args)

    from repro.experiments.parallel import JobsError

    if args.what == "sweep":
        try:
            return run_sweep_command(args, parser)
        except JobsError as exc:
            parser.error(str(exc))

    try:
        runner = ExperimentRunner(
            scale=args.scale,
            verbose=args.verbose,
            seed=args.seed,
            max_events=args.max_events,
            cache_dir=args.cache_dir,
            jobs=args.jobs,
        )
    except JobsError as exc:
        parser.error(str(exc))
    targets = list(_ARTIFACTS) if args.what == "all" else [args.what]

    if runner.jobs > 1 or runner.result_cache is not None:
        # Fast-sweep path: fan the union of the targets' sweep points
        # out over the pool / the result cache, then render from the
        # warmed memo.  The report makes per-entry wall time and cache
        # hit/miss behaviour visible.
        from repro.experiments.parallel import sweep_points_for

        points = sweep_points_for(targets, runner)
        if points:
            report = runner.prewarm(points)
            print(report.format())
            if runner.result_cache is not None:
                print(runner.result_cache.stats_line())
            print()
            if not report.ok:
                return 1

    def render(target: str) -> None:
        _ARTIFACTS[target](runner)
        print()

    if args.what == "all":
        # Supervised: one failing artifact still lets the rest print,
        # and the partial report names the casualty.
        from repro.experiments.supervisor import ExperimentSupervisor

        supervisor = ExperimentSupervisor()
        report = supervisor.run_sweep(
            "all-artifacts",
            [(t, (lambda tt: lambda: render(tt))(t)) for t in targets],
        )
        if not report.ok:
            print(report.format())
            return 1
        return 0

    render(targets[0])
    return 0


if __name__ == "__main__":
    sys.exit(main())
