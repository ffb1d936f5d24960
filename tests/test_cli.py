"""Tests for the command-line interface (cheap targets only)."""

import pytest

from repro.cli import main


def test_table1_prints_and_succeeds(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "ok" in out
    assert "MISMATCH" not in out


def test_unknown_target_rejected():
    with pytest.raises(SystemExit):
        main(["figure9"])


def test_help_lists_targets():
    with pytest.raises(SystemExit):
        main(["--help"])


def test_fault_matrix_smoke_single_app(capsys):
    assert main(["check", "--app", "LU", "--faults", "smoke", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "plan=smoke seed=7" in out
    assert "retries" in out  # per-app fault summary line
    assert "check: ok" in out


def test_faults_flag_selects_only_the_fault_check(capsys):
    main(["check", "--app", "LU", "--faults", "smoke"])
    out = capsys.readouterr().out
    assert "[faults]" in out
    assert "[litmus]" not in out  # --faults alone means just the matrix


def test_unknown_check_rejected():
    with pytest.raises(SystemExit):
        main(["check", "--checks", "sorcery"])


def test_max_events_aborts_run(capsys):
    status = main(
        ["check", "--app", "LU", "--checks", "invariants", "--max-events", "100"]
    )
    assert status == 1
    out = capsys.readouterr().out
    assert "event limit 100 exceeded" in out
    assert "check: FAILED" in out


# -- static-analysis checks: model, lockorder, srclint ------------------------


def test_model_check_flag_passes_and_prints_summary(capsys):
    status = main(["check", "--model-check"])
    out = capsys.readouterr().out
    assert status == 0
    assert "[model]" in out
    assert "no invariant violations" in out
    assert "[litmus]" not in out  # dedicated flag runs only its check
    assert "check: ok" in out


def test_model_check_mutation_fails_with_counterexample(capsys):
    status = main(["check", "--model-check", "--mc-mutate", "skip-invalidation"])
    out = capsys.readouterr().out
    assert status == 1
    assert "counterexample" in out
    assert "check: FAILED" in out


def test_model_check_fingerprint_cache_roundtrip(tmp_path, capsys):
    fp = str(tmp_path / "model.fingerprint")
    assert main(["check", "--model-check", "--mc-fingerprint", fp]) == 0
    assert "fingerprint cached" in capsys.readouterr().out
    assert main(["check", "--model-check", "--mc-fingerprint", fp]) == 0
    assert "fingerprint matches" in capsys.readouterr().out


def test_model_check_fingerprint_mismatch_fails(tmp_path, capsys):
    fp = tmp_path / "model.fingerprint"
    fp.write_text("0" * 64 + "\n")
    status = main(["check", "--model-check", "--mc-fingerprint", str(fp)])
    out = capsys.readouterr().out
    assert status == 1
    assert "MISMATCH" in out


def test_model_check_bounds_are_settable(capsys):
    status = main(
        ["check", "--model-check", "--mc-caches", "1", "--mc-values", "1",
         "--mc-in-flight", "1"]
    )
    assert status == 0
    assert "[model]" in capsys.readouterr().out


def test_lock_order_flag_runs_all_apps_clean(capsys):
    status = main(["check", "--lock-order"])
    out = capsys.readouterr().out
    assert status == 0
    assert out.count("[lockorder]") == 3  # MP3D, LU, PTHOR
    assert "no ordering hazards" in out


def test_lint_src_flag_runs_clean(capsys):
    status = main(["check", "--lint-src"])
    out = capsys.readouterr().out
    assert status == 0
    assert "[srclint]" in out
    assert "src lint: clean" in out


def test_static_flags_combine(capsys):
    status = main(["check", "--lint-src", "--lock-order", "--model-check"])
    out = capsys.readouterr().out
    assert status == 0
    for tag in ("[model]", "[lockorder]", "[srclint]"):
        assert tag in out


def test_checks_list_accepts_new_names(capsys):
    status = main(["check", "--checks", "srclint"])
    assert status == 0
    assert "[srclint]" in capsys.readouterr().out


def test_strict_flag_accepted_with_lint(capsys):
    status = main(["check", "--app", "LU", "--checks", "lint", "--strict"])
    assert status == 0
    assert "check: ok" in capsys.readouterr().out


# -- trace conformance and layout lint ----------------------------------------


def _choices(flag):
    from repro.cli import build_parser

    (action,) = [a for a in build_parser()._actions if flag in a.option_strings]
    return tuple(action.choices)


def test_trace_mutate_choices_match_tracecheck():
    from repro.analysis.tracecheck import MUTATION_NAMES

    assert _choices("--trace-mutate") == MUTATION_NAMES


def test_trace_mutate_prints_witness_and_fails(capsys):
    status = main(["check", "--trace-mutate", "drop-inval-ack"])
    out = capsys.readouterr().out
    assert status == 1
    assert "[trace] mutation 'drop-inval-ack'" in out
    assert "witness cycle" in out
    assert "check: FAILED (trace)" in out


def test_layout_lint_flag_matches_baselines(capsys):
    status = main(["check", "--layout-lint"])
    out = capsys.readouterr().out
    assert status == 0
    assert "[layout]" in out
    assert "PTHOR: 25 known finding(s), none new" in out
    assert "[litmus]" not in out  # dedicated flag runs only its check
    assert "check: ok" in out


# -- exit-code aggregation ----------------------------------------------------


def test_failing_check_not_masked_by_later_passing_one(capsys):
    # The trace check fails (seeded mutation) before the layout check
    # passes; the combined invocation must still exit nonzero and name
    # the casualty.
    status = main(
        ["check", "--lint-src", "--trace-mutate", "drop-inval-ack",
         "--layout-lint"]
    )
    out = capsys.readouterr().out
    assert status == 1
    assert "src lint: clean" in out          # srclint passed...
    assert "none new" in out                 # ...and so did layout,
    assert "check: FAILED (trace)" in out    # yet the verdict is red.


def test_verdict_names_every_failing_check(capsys):
    status = main(
        ["check", "--app", "LU", "--checks", "invariants,srclint",
         "--max-events", "100"]
    )
    out = capsys.readouterr().out
    assert status == 1
    assert "check: FAILED (invariants)" in out


# -- transition-table protolint -----------------------------------------------


def test_proto_lint_flag_passes_and_prints_summary(capsys):
    status = main(["check", "--proto-lint"])
    out = capsys.readouterr().out
    assert status == 0
    assert "[protolint]" in out
    assert "complete, deterministic, live, and stutter-free" in out
    assert "fingerprint agrees with the model checker" in out
    assert "[litmus]" not in out  # dedicated flag runs only its check
    assert "check: ok" in out


def test_proto_mutate_choices_match_protolint():
    from repro.analysis.protolint import PROTO_MUTATIONS

    assert _choices("--proto-mutate") == PROTO_MUTATIONS


def test_proto_mutate_prints_witness_and_fails(capsys):
    status = main(["check", "--proto-mutate", "drop-transition"])
    out = capsys.readouterr().out
    assert status == 1
    assert "[completeness]" in out
    assert "[liveness]" in out
    assert "#0   initial" in out  # BFS-minimal witness trace
    assert "check: FAILED (protolint)" in out


def test_proto_fingerprint_cache_roundtrip(tmp_path, capsys):
    fp = str(tmp_path / "proto.fingerprint")
    assert main(["check", "--proto-lint", "--proto-fingerprint", fp]) == 0
    assert "fingerprint cached" in capsys.readouterr().out
    assert main(["check", "--proto-lint", "--proto-fingerprint", fp]) == 0
    assert "fingerprint matches" in capsys.readouterr().out


def test_proto_fingerprint_mismatch_fails(tmp_path, capsys):
    fp = tmp_path / "proto.fingerprint"
    fp.write_text("0" * 64 + "\n")
    status = main(["check", "--proto-lint", "--proto-fingerprint", str(fp)])
    out = capsys.readouterr().out
    assert status == 1
    assert "MISMATCH" in out


# -- protocol matrix and differential equivalence -----------------------------


def test_proto_matrix_verifies_every_registered_spec(capsys):
    from repro.coherence.specs import spec_names

    assert main(["check", "--proto-matrix"]) == 0
    out = capsys.readouterr().out
    for name in spec_names():
        assert f"[protomatrix] {name}:" in out
    assert "check: ok" in out


def test_proto_matrix_fingerprints_roundtrip(tmp_path, capsys):
    from repro.coherence.specs import spec_names

    fp_dir = str(tmp_path / "matrix")
    assert main(
        ["check", "--proto-matrix", "--proto-matrix-fingerprints", fp_dir]
    ) == 0
    out = capsys.readouterr().out
    assert out.count("fingerprint cached") == len(spec_names())
    assert main(
        ["check", "--proto-matrix", "--proto-matrix-fingerprints", fp_dir]
    ) == 0
    assert capsys.readouterr().out.count("fingerprint matches") == len(
        spec_names()
    )


def test_proto_matrix_fingerprint_mismatch_fails(tmp_path, capsys):
    fp_dir = tmp_path / "matrix"
    fp_dir.mkdir()
    (fp_dir / "mesi.fp").write_text("0" * 16 + "\n")
    status = main(
        ["check", "--proto-matrix", "--proto-matrix-fingerprints",
         str(fp_dir)]
    )
    assert status == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_proto_diff_pair_proves_equivalence(capsys):
    assert main(["check", "--proto-diff", "directory-msi", "mesi"]) == 0
    out = capsys.readouterr().out
    assert "observationally equivalent" in out
    assert "check: ok" in out


def test_proto_diff_alone_covers_every_registered_pair(capsys):
    assert main(["check", "--checks", "protodiff"]) == 0
    out = capsys.readouterr().out
    assert "directory-msi ~ mesi" in out
    assert "directory-msi ~ moesi" in out
    assert "mesi ~ moesi" in out


def test_proto_diff_unknown_spec_rejected():
    with pytest.raises(SystemExit):
        main(["check", "--proto-diff", "directory-msi", "mosi"])


def test_diff_mutate_is_refuted_with_witness(capsys):
    status = main(
        ["check", "--proto-diff", "directory-msi", "mesi",
         "--diff-mutate", "mesi-without-e-writeback"]
    )
    out = capsys.readouterr().out
    assert status == 1
    assert "NOT equivalent" in out
    assert "divergence after" in out
    assert "impossible in directory-msi" in out


def test_diff_mutate_choices_match_protodiff():
    from repro.analysis.protodiff import DIFF_MUTATIONS

    assert _choices("--diff-mutate") == DIFF_MUTATIONS


def test_select_checks_proto_matrix_and_diff_flags():
    from repro.cli import select_checks

    assert select_checks(_check_args(proto_matrix=True)) == ["protomatrix"]
    assert select_checks(
        _check_args(proto_diff=["directory-msi", "mesi"])
    ) == ["protodiff"]
    assert select_checks(
        _check_args(diff_mutate="mesi-without-e-writeback")
    ) == ["protodiff"]


# -- check selection: --list-checks, --all, defaults --------------------------


def _check_args(**overrides):
    from repro.cli import build_parser

    args = build_parser().parse_args(["check"])
    for dest, value in overrides.items():
        assert hasattr(args, dest), dest
        setattr(args, dest, value)
    return args


def _check_names():
    from repro.cli import CHECKS

    return [check.name for check in CHECKS]


def test_list_checks_names_every_check_and_defaults(capsys):
    from repro.cli import _DEFAULT_CHECKS

    status = main(["check", "--list-checks"])
    out = capsys.readouterr().out
    assert status == 0
    for name in _check_names():
        assert name in out
    assert "checks marked * run by default" in out
    # Default markers line up with the documented default subset.
    starred = [
        line.split()[1] for line in out.splitlines()
        if line.strip().startswith("*")
    ]
    assert tuple(starred) == _DEFAULT_CHECKS


def test_list_checks_prints_flags_and_default_membership(capsys):
    from repro.cli import _DEFAULT_CHECKS, CHECKS

    main(["check", "--list-checks"])
    out = capsys.readouterr().out
    # Every check's own options appear; optionless checks point at
    # --checks <name>; membership lines match the default subset.
    for check in CHECKS:
        if check.options:
            for flag, _ in check.options:
                assert flag in out
        else:
            assert f"--checks {check.name}" in out
    assert out.count("default: yes") == len(_DEFAULT_CHECKS)
    assert out.count("default: no") == len(CHECKS) - len(_DEFAULT_CHECKS)


def test_check_flags_table_covers_every_check():
    from repro.cli import CHECKS

    names = _check_names()
    assert len(set(names)) == len(names)
    # Only default checks may go without an option of their own.
    assert all(check.options for check in CHECKS if not check.default)


def test_select_checks_lat_flags_select_latbound():
    from repro.cli import select_checks

    assert select_checks(_check_args(lat_bound=True)) == ["latbound"]
    assert select_checks(_check_args(lat_audit=True)) == ["latbound"]
    assert select_checks(
        _check_args(lat_mutate="uncharged-hop")
    ) == ["latbound"]


def test_select_checks_default_is_documented_subset():
    from repro.cli import _DEFAULT_CHECKS, select_checks

    assert select_checks(_check_args()) == list(_DEFAULT_CHECKS)


def test_select_checks_all_runs_everything_once():
    from repro.cli import select_checks

    checks = select_checks(_check_args(all_checks=True, proto_lint=True))
    assert checks == _check_names()  # dedicated flag deduped, order kept


def test_select_checks_dedicated_flags_are_exclusive():
    from repro.cli import select_checks

    assert select_checks(_check_args(proto_lint=True)) == ["protolint"]
    assert select_checks(
        _check_args(proto_mutate="overlap-rule")
    ) == ["protolint"]


def test_select_checks_explicit_list_merges_flags():
    from repro.cli import select_checks

    checks = select_checks(_check_args(checks="lint,litmus", proto_lint=True))
    assert checks == ["lint", "litmus", "protolint"]


# -- the check registry ---------------------------------------------------------

#: ``check --list-checks`` as printed before the registry rewrite: the
#: registry must render it byte for byte.
_LIST_CHECKS_GOLDEN = """\
available checks (run order):
  * lint        structural lint of each app's op streams (op shape, sync pairing)
    default: yes; flags: --checks lint
  * races       happens-before data-race detection over the op streams
    default: yes; flags: --checks races
  * litmus      consistency litmus matrix through the full machine
    default: yes; flags: --checks litmus
  * invariants  sanitized smoke simulation (SWMR, inclusion, precision)
    default: yes; flags: --checks invariants
    faults      smoke apps under seeded message faults, sanitizer armed
    default: no; flags: --faults
    model       exhaustive model check of the abstract directory protocol
    default: no; flags: --model-check, --mc-mutate, --mc-fingerprint
    lockorder   static lock-order deadlock and barrier analysis
    default: no; flags: --lock-order
    srclint     determinism + hot-path lint over the simulator source
    default: no; flags: --lint-src
    protolint   static completeness/determinism/liveness check of the declarative protocol transition table
    default: no; flags: --proto-lint, --proto-mutate, --proto-fingerprint
    protomatrix model check + protolint over every registered protocol spec (directory-msi, mesi, moesi)
    default: no; flags: --proto-matrix, --proto-matrix-fingerprints
    protodiff   differential protocol equivalence: product-compose two specs' reachable models and prove (or refute with a minimal witness) observational equivalence
    default: no; flags: --proto-diff, --diff-mutate
    latbound    static per-transaction latency envelopes derived from the protocol table, with optional trace audit
    default: no; flags: --lat-bound, --lat-audit, --lat-mutate, --lat-fingerprint
    trace       axiomatic trace conformance (litmus matrix + smoke runs)
    default: no; flags: --trace-check, --trace-mutate
    layout      static memory-layout lint of the bundled apps
    default: no; flags: --layout-lint
    chaos       crash-tolerance drill: SIGKILL pool workers mid-sweep, corrupt the journal tail, resume, verify bit-identity
    default: no; flags: --chaos
checks marked * run by default; --all runs every check; --checks a,b or a dedicated flag runs just those
"""


def test_list_checks_matches_golden(capsys):
    assert main(["check", "--list-checks"]) == 0
    assert capsys.readouterr().out == _LIST_CHECKS_GOLDEN


def _mutations():
    from repro.cli import CHECKS

    return [
        (check.name, flag, mutation)
        for check in CHECKS
        for flag, spec in check.options
        if flag.endswith("-mutate")
        for mutation in spec["choices"]
    ]


@pytest.mark.parametrize("check,flag,mutation", _mutations())
def test_every_seeded_mutation_fails_its_check(check, flag, mutation, capsys):
    assert main(["check", flag, mutation]) == 1
    assert f"check: FAILED ({check})" in capsys.readouterr().out


def test_mutation_cases_cover_every_analyzer():
    assert len(_mutations()) == 13
    assert {check for check, _, _ in _mutations()} == {
        "model", "protolint", "protodiff", "latbound", "trace",
    }


#: Options ``check`` never reads: artifact/sweep settings and the
#: selection flags themselves.
_NON_CHECK_OPTIONS = {
    "-h", "--help", "--scale", "--jobs", "--cache-dir", "--targets",
    "--resume", "--journal-dir", "--hang-timeout", "--checks", "--all",
    "--list-checks",
}


def test_every_check_option_is_owned_once_or_shared():
    from repro.cli import _SHARED_OPTIONS, CHECKS, build_parser

    owned = [flag for check in CHECKS for flag, _ in check.options]
    shared = [flag for flag, _ in _SHARED_OPTIONS]
    assert len(set(owned)) == len(owned)
    assert not set(owned) & set(shared)
    flags = {
        flag for action in build_parser()._actions
        for flag in action.option_strings
    }
    assert flags - _NON_CHECK_OPTIONS == set(owned) | set(shared)
    assert len(flags) == 43  # 41 options plus -h and --help


@pytest.mark.parametrize("dest,value,check", [
    ("mc_mutate", "skip-invalidation", "model"),
    ("mc_fingerprint", "model.fp", "model"),
    ("proto_fingerprint", "proto.fp", "protolint"),
    ("proto_matrix_fingerprints", "matrix", "protomatrix"),
    ("lat_fingerprint", "latbound.fp", "latbound"),
])
def test_select_checks_owned_option_selects_its_check(dest, value, check):
    from repro.cli import select_checks

    assert select_checks(_check_args(**{dest: value})) == [check]


def test_shared_options_select_nothing():
    from repro.cli import _DEFAULT_CHECKS, select_checks

    args = _check_args(
        app="LU", strict=True, verbose=True, seed=7, max_events=100,
        mc_caches=3, mc_lines=2, mc_values=3, mc_in_flight=3, mc_retries=1,
    )
    assert select_checks(args) == list(_DEFAULT_CHECKS)


def test_mc_mutate_alone_runs_the_model_check(capsys):
    assert main(["check", "--mc-mutate", "skip-invalidation"]) == 1
    out = capsys.readouterr().out
    assert "counterexample" in out
    assert "[litmus]" not in out
    assert "check: FAILED (model)" in out


def test_lat_fingerprint_alone_writes_the_cache(tmp_path, capsys):
    fp = tmp_path / "latbound.fingerprint"
    assert main(["check", "--lat-fingerprint", str(fp)]) == 0
    assert "envelope fingerprint cached" in capsys.readouterr().out
    assert fp.read_text().strip()


def test_lint_and_races_share_one_executor_pass(capsys):
    assert main(["check", "--app", "LU", "--checks", "lint,races"]) == 0
    out = capsys.readouterr().out
    assert out.count("[LU] ") == 1  # one header, both reports under it
    assert "race" in out.split("[LU] ", 1)[1]


@pytest.mark.parametrize("argv,cache,prefix,what", [
    (["--model-check", "--mc-fingerprint"], "m.fp", "[model] fingerprint",
     "the reachable state space changed; review the protocol diff"),
    (["--proto-lint", "--proto-fingerprint"], "p.fp",
     "[protolint] table fingerprint",
     "the transition table changed; review the diff"),
    (["--proto-matrix-fingerprints"], "mesi.fp",
     "[protomatrix] mesi: fingerprint",
     "the spec or its reachable state space changed; review the diff"),
    (["--lat-fingerprint"], "l.fp", "[latbound] envelope fingerprint",
     "the latency model changed; review the diff"),
], ids=["model", "protolint", "protomatrix", "latbound"])
def test_fingerprint_mismatch_line_names_what_changed(
    tmp_path, capsys, argv, cache, prefix, what
):
    import re

    path = tmp_path / cache
    path.write_text("0" * 64 + "\n")
    target = tmp_path if cache == "mesi.fp" else path
    assert main(["check", *argv, str(target)]) == 1
    expected = (
        re.escape(prefix)
        + r" MISMATCH: cached 0{16} != computed [0-9a-f]{16} — "
        + re.escape(f"{what} and delete {path} to accept")
    )
    assert re.search(expected, capsys.readouterr().out)
