"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``models``
    List the Table-I model zoo with measured graph statistics.
``socs``
    List the Table-II platforms.
``run``
    Simulate one pipeline configuration and print its AI-tax breakdown.
``experiment``
    Regenerate one paper table/figure by id (``fig5``, ``table1``, ...).
``fleet``
    Simulate a device population in parallel and print fleet-level
    AI-tax percentiles.
``chaos``
    Sweep deterministic FastRPC fault injection over the chaos
    population and print AI-tax inflation plus the recovery ledger
    (see docs/faults.md).
``serve``
    Run the inference service tier: open-loop traffic over a backend
    pool calibrated from the device fleet, reporting goodput against
    raw throughput plus SLO-miss attribution (see docs/service.md).
``trace``
    Record a named scenario with full instrumentation, print the
    self-time rollup, and export Chrome trace-event JSON for
    chrome://tracing / Perfetto (see docs/tracing.md).
``lint`` / ``semcheck`` / ``archcheck`` / ``racecheck``
    One static checker each; the subcommands and their options come
    from ``repro.analysis.registry`` (see docs/analysis.md). Exit 1 on
    findings, 2 when the run cannot be trusted (a syntax error, an
    unknown pragma rule id, an unreadable path, a bad archcheck
    contract).
``check``
    Umbrella over every registry checker with a merged exit code — the
    single command CI runs; ``--sanitize TARGET`` folds dual-run replay
    digests in as well.
``sanitize``
    Replay a scenario, experiment, or small fleet twice with the
    runtime sanitizer attached and diff the event-stream sha256
    digests; a divergence pinpoints the first event where the replays
    disagree.
``report``
    Regenerate everything (the EXPERIMENTS.md content).
"""

import argparse
import os
import pathlib
import sys

from repro.apps import PipelineConfig, run_pipeline
from repro.apps.harness import CONTEXTS
from repro.apps.sessions import TARGETS
from repro.core import breakdown
from repro.core.report import render_breakdown
from repro.core.variability import VariabilityStats
from repro.experiments import REGISTRY, run_experiment
from repro.models import MODEL_CARDS
from repro.sim import units
from repro.soc import SOC_SPECS


def _cmd_models(_args):
    print(run_experiment("table1").render())
    return 0


def _cmd_socs(_args):
    print(run_experiment("table2").render())
    return 0


def _enable_sanitizer_if_requested(args):
    """Honor a ``--sanitize`` flag for every simulator the command makes."""
    if getattr(args, "sanitize", False):
        from repro.sim import set_sanitize_default

        set_sanitize_default(True)
        print("sanitizer: on (invariant violations raise immediately)")


def _cmd_run(args):
    _enable_sanitizer_if_requested(args)
    if args.config is not None:
        import json

        from repro.apps.harness import config_from_dict

        with open(args.config) as handle:
            config = config_from_dict(json.load(handle))
    else:
        config = PipelineConfig(
            model_key=args.model,
            dtype=args.dtype,
            context=args.context,
            target=args.target,
            runs=args.runs,
            soc=args.soc,
            seed=args.seed,
        )
    records = run_pipeline(config)
    result = breakdown(records)
    print(render_breakdown(result))
    stats = VariabilityStats.from_collection(records)
    print(
        f"\nlatency: median {stats.median_ms:.2f} ms, "
        f"p95 {stats.p95_ms:.2f} ms, CV {stats.cv:.1%}, "
        f"max |dev| from median {stats.max_deviation_from_median:.1%}"
    )
    print(f"AI tax fraction: {result.tax_fraction:.1%}")
    return 0


def _cmd_experiment(args):
    _enable_sanitizer_if_requested(args)
    kwargs = {}
    if args.runs is not None:
        kwargs["runs"] = args.runs
    result = run_experiment(args.id, **kwargs)
    print(result.render())
    if args.chart:
        from repro.experiments.charts import render_chart

        chart = render_chart(result)
        if chart is None:
            print("(no chart defined for this experiment)")
        else:
            print()
            print(chart)
    if args.json is not None:
        from repro.core.export import experiment_to_json

        experiment_to_json(result, path=args.json)
        print(f"wrote {args.json}")
    return 0


def _cmd_summary(_args):
    """Check every paper claim at bench settings and show the inventory."""
    from repro.experiments.claims import bench_claims, render_claims

    rows = bench_claims()
    print(render_claims(rows))
    print()
    print(f"models in the zoo:        {len(MODEL_CARDS)}")
    print(f"simulated platforms:      {len(SOC_SPECS)}")
    print(f"registered experiments:   {len(REGISTRY)}")
    failed = [row.id for row in rows if not row.holds]
    holding = len(rows) - len(failed)
    print(f"claims holding:           {holding} of {len(rows)}")
    if failed:
        print(f"claims failing:           {', '.join(failed)}")
    return 1 if failed else 0


def _check_failure_rate(failure_rate, max_failure_rate):
    """Shared ``--max-failure-rate`` gate for fleet-shaped commands."""
    if max_failure_rate is None or failure_rate <= max_failure_rate:
        return 0
    print(
        f"error: failure rate {failure_rate:.1%} exceeds "
        f"--max-failure-rate {max_failure_rate:.1%}"
    )
    return 1


def _cmd_fleet(args):
    from repro.fleet import aggregate_fleet, run_fleet

    fleet = run_fleet(
        sessions=args.sessions,
        workers=args.workers,
        seed=args.seed,
        cache_dir=args.cache_dir,
        runs=args.runs,
        verify_cache=args.verify_cache,
        journal=args.journal,
        session_timeout_s=args.session_timeout,
    )
    print(aggregate_fleet(fleet).to_experiment_result().render())
    print(
        f"\nsessions: {len(fleet)}  simulated: {fleet.simulated}  "
        f"cache hits: {fleet.cache_hits}  "
        f"journal hits: {fleet.journal_hits}  workers: {fleet.workers}"
    )
    supervision = fleet.supervision
    if supervision and any(supervision.values()):
        print(
            "supervision: "
            + "  ".join(
                f"{key}: {value}"
                for key, value in sorted(supervision.items())
                if value
            )
        )
    return _check_failure_rate(fleet.failure_rate, args.max_failure_rate)


def _cmd_chaos(args):
    rates = args.fault_rate if args.fault_rate else None
    kwargs = {
        "sessions": args.sessions,
        "workers": args.workers,
        "seed": args.seed,
        "runs": args.runs,
    }
    if rates is not None:
        kwargs["fault_rates"] = tuple(rates)
    result = run_experiment("chaos", **kwargs)
    print(result.render())
    ok_counts = result.column("ok")
    failed_counts = result.column("failed")
    print(
        f"\nrates swept: {len(result.rows)}  "
        f"completed sessions: {sum(ok_counts)}  "
        f"failed sessions: {sum(failed_counts)}"
    )
    # Partial results are expected under faults; an *empty* rate — every
    # session dead — is a recovery regression and fails the command.
    if any(count == 0 for count in ok_counts):
        print("error: a swept rate produced zero completed sessions")
        return 1
    total = sum(ok_counts) + sum(failed_counts)
    failure_rate = sum(failed_counts) / total if total else 0.0
    return _check_failure_rate(failure_rate, args.max_failure_rate)


def _cmd_serve(args):
    from repro.service import ServiceConfig, run_service

    population = None
    if args.fault_rate:
        # Fault injection only bites a pool that contains the
        # no-recovery vendor slice; the paper population has none.
        from repro.fleet import chaos_population

        population = chaos_population()
    config = ServiceConfig(
        rate_rps=args.rate,
        duration_s=args.duration,
        arrivals=args.arrivals,
        slo_ms=args.slo,
        queue_capacity=args.capacity,
        policy=args.policy,
        max_batch=args.batch,
        max_delay_ms=args.delay,
        devices=args.devices,
        fault_rate=args.fault_rate,
        backend_fault_rate=args.backend_fault_rate,
        ssr_storm_ms=args.ssr_storm,
        ssr_storm_backends=args.ssr_storm_backends,
        breakers=not args.no_breakers,
        brownout_high=args.brownout_high,
        brownout_low=args.brownout_low,
        seed=args.seed,
    )
    result = run_service(config, population=population)
    print(result.render())
    if args.export is not None:
        result.write_json(args.export)
        print(f"\nwrote {args.export} (sha256 {result.digest()[:16]}...)")
    # A pool with zero completions means the service never answered
    # anyone — under fault injection that is the collapse signal.
    return 0 if result.completed else 1


def _cmd_trace(args):
    from repro.observability import (
        record_trace,
        summarize_trace,
        write_chrome_trace,
    )

    _enable_sanitizer_if_requested(args)
    with record_trace(
        args.scenario, runs=args.runs, seed=args.seed, soc=args.soc
    ) as session:
        trace = session.sim.trace
        if session.sim.sanitizer is not None:
            audit = session.sim.sanitizer.audit()
            print(
                f"sanitizer: {audit['events']} events, {audit['ties']} tie "
                f"groups, digest {audit['digest'][:16]}..., "
                f"{len(audit['tracks'])} hardware tracks conserve busy+idle"
            )
        print(summarize_trace(trace).render(top=args.top))
        events = write_chrome_trace(
            trace,
            args.out,
            process_name=f"repro:{args.scenario}",
            min_dur_us=args.min_dur_us,
        )
        print(
            f"\nwrote {args.out} ({events} events, "
            f"{units.to_ms(session.sim.now):.1f} ms simulated)"
        )
    print("open it at https://ui.perfetto.dev or chrome://tracing")
    return 0


def _default_paths(args):
    import repro

    return args.paths or [pathlib.Path(repro.__file__).parent]


def _run_checker(spec, args, paths):
    """Run one registry checker over ``paths`` with its per-tool options.

    Returns ``(findings, errors)``: the findings no pragma allows, and
    the configuration problems that make the run exit 2.
    """
    options = {
        option.keyword: getattr(args, option.keyword)
        for option in spec.options
    }
    return spec.run(paths, **options)


def _print_findings(findings, errors, spec, as_json, diag):
    """Print one checker run; returns the exit code."""
    from repro.analysis.common import findings_to_json, render_findings

    if as_json:
        import json

        print(json.dumps(findings_to_json(findings), indent=2))
    else:
        for line in render_findings(findings, spec.rules):
            print(line)
    for error in errors:
        print(error.render(), file=diag)
    if errors:
        return 2
    if findings:
        print(
            f"\n{len(findings)} finding(s); suppress a true positive "
            "with `# repro: allow[rule-id]`, see docs/analysis.md",
            file=diag,
        )
        return 1
    print(f"{spec.label}: clean", file=diag)
    return 0


def _print_listing(records, errors, render, noun, args):
    """Print an inventory (one row per record); returns the exit code.

    In json mode stdout carries the records and nothing else; the
    footer and errors go to stderr.
    """
    as_json = args.format == "json"
    diag = sys.stderr if as_json else sys.stdout
    if as_json:
        import json

        print(json.dumps(records, indent=2))
    else:
        for record in records:
            print(render(record))
        print(f"{len(records)} {noun}", file=diag)
    for error in errors:
        print(error.render(), file=diag)
    return 2 if errors else 0


def _render_pragma_row(row):
    rules = ", ".join(row["rules"])
    line = f"{row['path']}:{row['line']}: {row['kind']}[{rules}]"
    if row["tools"]:
        line += f" ({', '.join(row['tools'])})"
    if row["unrecognized"]:
        line += (
            " — unrecognized by every tool: "
            + ", ".join(row["unrecognized"])
        )
    return line


def _list_pragmas(args):
    """The ``--list-pragmas`` audit: one merged, deduplicated table.

    Rows are keyed by ``file:line`` — the same table whichever checker
    (or the ``check`` umbrella) asks for it, since pragmas are a
    shared namespace. Each rule is annotated with the checker that
    owns it; a rule no tool recognizes is flagged inline and is an
    error, exactly as it would be during a check run.
    """
    from repro.analysis.common import inventory_pragmas, rule_owners

    records, errors = inventory_pragmas(_default_paths(args))
    owners = rule_owners()
    merged = {}
    for record in records:
        key = (record["path"], record["line"], record["kind"])
        row = merged.setdefault(key, [])
        for rule in record["rules"]:
            if rule not in row:
                row.append(rule)
    rows = []
    for (path, line, kind), rules in sorted(merged.items()):
        tools = sorted({owners[rule] for rule in rules if rule in owners})
        unrecognized = [rule for rule in rules if rule not in owners]
        rows.append({
            "path": path,
            "line": line,
            "kind": kind,
            "rules": rules,
            "tools": tools,
            "unrecognized": unrecognized,
        })
    return _print_listing(rows, errors, _render_pragma_row, "pragma(s)", args)


def _cmd_checker(args):
    """Run the registry checker named by the subcommand.

    Every checker speaks the same contract: pragma suppression, a
    shared ``--format=json`` findings payload, and exit codes 0 (clean)
    / 1 (findings) / 2 (the run cannot be trusted).
    """
    from repro.analysis.registry import BY_NAME

    spec = BY_NAME[args.command]
    paths = _default_paths(args)
    if spec.listing is not None and args.listing:
        records, errors = spec.listing.collect(paths)
        return _print_listing(
            records, errors, spec.listing.render, spec.listing.noun, args
        )
    if args.list_pragmas:
        return _list_pragmas(args)

    findings, errors = _run_checker(spec, args, paths)
    as_json = args.format == "json"
    # In json mode stdout carries the findings array and nothing else;
    # diagnostics move to stderr so the output stays machine-readable.
    diag = sys.stderr if as_json else sys.stdout
    return _print_findings(findings, errors, spec, as_json, diag)


def _cmd_check(args):
    """Umbrella: every registry checker (+ dual-runs).

    One command for CI: every static checker over the same paths, a
    merged exit code (worst of the parts), and in ``--format=json`` a
    single object keyed by tool.
    """
    if args.list_pragmas:
        return _list_pragmas(args)
    from repro.analysis.common import findings_to_json
    from repro.analysis.registry import CHECKERS

    paths = _default_paths(args)
    as_json = args.format == "json"
    diag = sys.stderr if as_json else sys.stdout
    payload = {}
    exit_code = 0
    for spec in CHECKERS:
        findings, errors = _run_checker(spec, args, paths)
        if as_json:
            payload[spec.name] = findings_to_json(findings)
            for error in errors:
                print(error.render(), file=diag)
            code = 2 if errors else 1 if findings else 0
        else:
            print(f"== {spec.name} ==")
            code = _print_findings(findings, errors, spec, False, diag)
        exit_code = max(exit_code, code)

    if args.sanitize:
        from repro.analysis.sanitize import dual_run

        reports = []
        for target in args.sanitize:
            scenario, unknown = _sanitize_scenario(target)
            if scenario is None:
                print(unknown, file=diag)
                exit_code = max(exit_code, 2)
                continue
            report = dual_run(scenario)
            reports.append({"target": target, **report.to_json()})
            if not as_json:
                print(f"== sanitize {target} ==")
                print(report.render())
            if not report.identical:
                exit_code = max(exit_code, 1)
        if as_json:
            payload["sanitize"] = reports

    if as_json:
        import json

        print(json.dumps(payload, indent=2))
    elif exit_code == 0:
        print("check: all clean")
    return exit_code


def _sanitize_scenario(name, runs=None, seed=None, sessions=4):
    """Resolve a sanitize target to a zero-argument scenario callable.

    Returns ``(callable, None)``, or ``(None, message)`` naming the
    known targets when ``name`` matches nothing.
    """
    from repro.experiments import REGISTRY, run_experiment
    from repro.observability.scenarios import SCENARIOS, record_trace

    if name == "serve":
        from repro.service import run_service

        def scenario():
            run_service(
                rate_rps=120.0, duration_s=0.5,
                devices=sessions, seed=seed or 0,
                calibration_runs=runs or 2,
            )
    elif name == "fleet":
        from repro.fleet import run_fleet

        def scenario():
            run_fleet(
                sessions=sessions, workers=1, seed=seed or 0,
                runs=runs or 3,
            )
    elif name in SCENARIOS:
        def scenario():
            with record_trace(name, runs=runs, seed=seed):
                pass
    elif name in REGISTRY:
        def scenario():
            run_experiment(name)
    else:
        known = sorted(set(SCENARIOS) | set(REGISTRY) | {"fleet", "serve"})
        return None, f"unknown sanitize target {name!r}; known: {known}"
    return scenario, None


def _cmd_sanitize(args):
    from repro.analysis.sanitize import dual_run

    scenario, unknown = _sanitize_scenario(
        args.target, runs=args.runs, seed=args.seed, sessions=args.sessions
    )
    if scenario is None:
        print(unknown)
        return 2

    report = dual_run(scenario)
    if args.format == "json":
        import json

        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render())
    return 0 if report.identical else 1


def _cmd_report(args):
    order = sorted(REGISTRY)
    for experiment_id in order:
        kwargs = {}
        if args.fast and "runs" in _runs_parameter(experiment_id):
            kwargs["runs"] = 5
        result = run_experiment(experiment_id, **kwargs)
        print(result.render())
        print()
    return 0


def _runs_parameter(experiment_id):
    import inspect

    return inspect.signature(REGISTRY[experiment_id]).parameters


def _add_checker_arguments(parser, options):
    """Arguments shared by every static-checker command."""
    parser.add_argument(
        "paths", nargs="*", default=None, metavar="PATH",
        help="files or directories to check (default: the installed "
             "repro package)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="findings output format (json is shared across the "
             "checkers for tooling)",
    )
    parser.add_argument(
        "--list-pragmas", action="store_true",
        help="inventory every `# repro: allow[...]` suppression under "
             "the checked paths instead of running rules",
    )
    for option in options:
        parser.add_argument(
            option.flag, dest=option.keyword, default=None, metavar="PATH",
            help=option.help,
        )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AI Tax in Mobile SoCs (ISPASS 2021) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the Table-I model zoo")
    sub.add_parser("socs", help="list the Table-II platforms")
    sub.add_parser(
        "summary", help="check every paper claim + inventory"
    )

    run_parser = sub.add_parser("run", help="simulate one configuration")
    run_parser.add_argument("--model", default="mobilenet_v1",
                            choices=sorted(MODEL_CARDS))
    run_parser.add_argument("--dtype", default="fp32",
                            choices=("fp32", "int8", "fp16"))
    run_parser.add_argument("--context", default="app", choices=CONTEXTS)
    run_parser.add_argument("--target", default="nnapi", choices=TARGETS)
    run_parser.add_argument("--runs", type=int, default=20)
    run_parser.add_argument("--soc", default="sd845",
                            choices=sorted(SOC_SPECS))
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--config", default=None, metavar="PATH",
        help="load the full PipelineConfig from a JSON file "
             "(overrides the other run flags)",
    )
    run_parser.add_argument(
        "--sanitize", action="store_true",
        help="attach the runtime sanitizer (docs/determinism.md)",
    )

    experiment_parser = sub.add_parser(
        "experiment", help="regenerate one table/figure"
    )
    experiment_parser.add_argument("id", choices=sorted(REGISTRY))
    experiment_parser.add_argument("--runs", type=int, default=None)
    experiment_parser.add_argument(
        "--chart", action="store_true",
        help="render a terminal chart shaped like the paper's figure",
    )
    experiment_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the result as JSON",
    )
    experiment_parser.add_argument(
        "--sanitize", action="store_true",
        help="attach the runtime sanitizer (docs/determinism.md)",
    )

    fleet_parser = sub.add_parser(
        "fleet", help="simulate a device population in parallel"
    )
    fleet_parser.add_argument(
        "--sessions", type=int, default=64,
        help="number of device sessions to expand from the population",
    )
    fleet_parser.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size (results are identical for any value)",
    )
    fleet_parser.add_argument("--seed", type=int, default=0)
    fleet_parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="on-disk result cache; re-runs skip simulated sessions",
    )
    fleet_parser.add_argument(
        "--runs", type=int, default=None,
        help="inference iterations per session (default: population's)",
    )
    fleet_parser.add_argument(
        "--verify-cache", action="store_true", default=None,
        help="re-simulate cache hits and require identical result "
             "digests (also on under REPRO_SANITIZE=1)",
    )
    fleet_parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="append-only run journal; an interrupted run resumed with "
             "the same journal re-simulates nothing it finished",
    )
    fleet_parser.add_argument(
        "--session-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock deadline per session; a hung worker is killed "
             "and the session retried (docs/faults.md)",
    )
    fleet_parser.add_argument(
        "--max-failure-rate", type=float, default=None, metavar="FRACTION",
        help="exit non-zero when more than this fraction of sessions "
             "finish with a structured error",
    )

    chaos_parser = sub.add_parser(
        "chaos",
        help="sweep FastRPC fault injection over a device fleet "
             "(docs/faults.md)",
    )
    chaos_parser.add_argument(
        "--sessions", type=int, default=16,
        help="device sessions expanded per swept rate",
    )
    chaos_parser.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size (results are identical for any value)",
    )
    chaos_parser.add_argument("--seed", type=int, default=0)
    chaos_parser.add_argument(
        "--runs", type=int, default=4,
        help="inference iterations per session",
    )
    chaos_parser.add_argument(
        "--fault-rate", type=float, action="append", default=None,
        metavar="RATE",
        help="per-call fault probability to sweep (repeatable; the 0.0 "
             "baseline is always included)",
    )
    chaos_parser.add_argument(
        "--max-failure-rate", type=float, default=None, metavar="FRACTION",
        help="exit non-zero when more than this fraction of sessions "
             "across the sweep failed",
    )

    from repro.service import ARRIVAL_KINDS, POLICIES

    serve_parser = sub.add_parser(
        "serve",
        help="run the inference service tier over a fleet-calibrated "
             "backend pool (docs/service.md)",
    )
    serve_parser.add_argument(
        "--rate", type=float, default=200.0,
        help="mean offered load, requests per second",
    )
    serve_parser.add_argument(
        "--duration", type=float, default=1.0,
        help="simulated traffic window, seconds",
    )
    serve_parser.add_argument(
        "--arrivals", default="poisson", choices=ARRIVAL_KINDS,
        help="arrival process shape",
    )
    serve_parser.add_argument(
        "--slo", type=float, default=50.0, metavar="MS",
        help="per-request latency budget in ms (goodput bound)",
    )
    serve_parser.add_argument(
        "--capacity", type=int, default=64,
        help="admission bound on outstanding requests",
    )
    serve_parser.add_argument(
        "--policy", default="reject", choices=POLICIES,
        help="what to do with over-capacity arrivals",
    )
    serve_parser.add_argument(
        "--batch", type=int, default=4,
        help="dynamic batcher: flush at this many requests",
    )
    serve_parser.add_argument(
        "--delay", type=float, default=5.0, metavar="MS",
        help="dynamic batcher: flush once the oldest waited this long",
    )
    serve_parser.add_argument(
        "--devices", type=int, default=4,
        help="population devices calibrated into the backend pool",
    )
    serve_parser.add_argument(
        "--fault-rate", type=float, default=0.0, metavar="RATE",
        help="per-call fault probability during calibration; nonzero "
             "switches to the chaos population so the no-recovery "
             "vendor slice is in the pool (docs/faults.md)",
    )
    serve_parser.add_argument(
        "--backend-fault-rate", type=float, default=0.0, metavar="RATE",
        help="per-batch fault probability at each serving backend "
             "(failed batches redispatch; breakers eject repeat "
             "offenders, docs/service.md)",
    )
    serve_parser.add_argument(
        "--ssr-storm", type=float, default=None, metavar="MS",
        help="inject a subsystem-restart storm at this simulated time",
    )
    serve_parser.add_argument(
        "--ssr-storm-backends", type=int, default=None, metavar="N",
        help="how many backends the storm hits (default: all)",
    )
    serve_parser.add_argument(
        "--no-breakers", action="store_true",
        help="disable the per-backend circuit breakers",
    )
    serve_parser.add_argument(
        "--brownout-high", type=int, default=None, metavar="N",
        help="enter brownout (degraded-model execution) at this many "
             "outstanding requests",
    )
    serve_parser.add_argument(
        "--brownout-low", type=int, default=None, metavar="N",
        help="exit brownout at this many outstanding requests "
             "(default: half of --brownout-high)",
    )
    serve_parser.add_argument("--seed", type=int, default=0)
    serve_parser.add_argument(
        "--export", default=None, metavar="PATH",
        help="write the canonical ServiceResult JSON (byte-identical "
             "for same config+seed)",
    )

    from repro.observability.scenarios import SCENARIOS

    trace_parser = sub.add_parser(
        "trace",
        help="record a scenario and export a Chrome trace "
             "(docs/tracing.md)",
    )
    trace_parser.add_argument("scenario", choices=sorted(SCENARIOS))
    trace_parser.add_argument(
        "--out", default="trace.json", metavar="PATH",
        help="Chrome trace-event JSON output path (default: trace.json)",
    )
    trace_parser.add_argument(
        "--runs", type=int, default=None,
        help="override the scenario's iteration count",
    )
    trace_parser.add_argument("--seed", type=int, default=None)
    trace_parser.add_argument(
        "--soc", default=None, choices=sorted(SOC_SPECS),
        help="override the scenario's platform",
    )
    trace_parser.add_argument(
        "--top", type=int, default=5,
        help="labels shown per track in the self-time rollup",
    )
    trace_parser.add_argument(
        "--min-dur-us", type=float, default=0.0,
        help="drop spans shorter than this from the export",
    )
    trace_parser.add_argument(
        "--sanitize", action="store_true",
        help="attach the runtime sanitizer and print its audit",
    )

    from repro.analysis.registry import CHECKERS

    for spec in CHECKERS:
        checker_parser = sub.add_parser(spec.name, help=spec.help)
        _add_checker_arguments(checker_parser, spec.options)
        if spec.listing is not None:
            checker_parser.add_argument(
                spec.listing.flag, dest="listing", action="store_true",
                help=spec.listing.help,
            )

    check_parser = sub.add_parser(
        "check",
        help="umbrella: "
             + " + ".join(spec.name for spec in CHECKERS)
             + " over the same paths with a merged exit code "
             "(docs/analysis.md)",
    )
    _add_checker_arguments(
        check_parser,
        [option for spec in CHECKERS for option in spec.options],
    )
    check_parser.add_argument(
        "--sanitize", action="append", default=None, metavar="TARGET",
        help="also dual-run this sanitize target (repeatable); a "
             "divergence fails the check",
    )

    sanitize_parser = sub.add_parser(
        "sanitize",
        help="dual-run replay digest: run a target twice with "
             "invariant checks and diff event-stream sha256s",
    )
    sanitize_parser.add_argument(
        "target",
        help="a trace scenario (e.g. quickstart, chaos), an experiment "
             "id (e.g. fig7), 'fleet', or 'serve'",
    )
    sanitize_parser.add_argument(
        "--runs", type=int, default=None,
        help="iteration override for scenario/fleet targets",
    )
    sanitize_parser.add_argument("--seed", type=int, default=None)
    sanitize_parser.add_argument(
        "--sessions", type=int, default=4,
        help="fleet target: sessions per replay",
    )
    sanitize_parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report output format (json mirrors the other checkers)",
    )

    report_parser = sub.add_parser("report", help="regenerate everything")
    report_parser.add_argument("--fast", action="store_true")
    return parser


_HANDLERS = {
    "models": _cmd_models,
    "summary": _cmd_summary,
    "socs": _cmd_socs,
    "run": _cmd_run,
    "experiment": _cmd_experiment,
    "fleet": _cmd_fleet,
    "chaos": _cmd_chaos,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
    "check": _cmd_check,
    "sanitize": _cmd_sanitize,
    "report": _cmd_report,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # Every other subcommand is a registry checker.
        status = _HANDLERS.get(args.command, _cmd_checker)(args)
        # Flush here, so a reader that closed early (``| head``) is seen
        # inside this guard rather than at interpreter exit.
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull: the exit-time flush of what is still
        # buffered would raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
