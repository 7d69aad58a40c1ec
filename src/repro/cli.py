"""The ``repro`` command-line interface.

One :func:`main` serves both entry points — the ``repro`` console
script and ``python -m repro`` (see :mod:`repro.__main__`).

Commands
--------
``casestudy``   run the whole paper reproduction and print the headline,
``table``       print one of the paper's tables (1, 2, 3, 4),
``atpg``        generate patterns and optionally write them as STIL,
``scap``        screen a STIL pattern file against SCAP thresholds,
``irmap``       print the dynamic IR-drop map of one pattern,
``floorplan``   print the synthetic SOC floorplan,
``flow``        run the staged noise-tolerant flow with checkpoint/resume,
``drc``         static design-rule check / testability lint (no simulation),
``sta``         static timing per clock domain (nominal, derated, or under
                the worst-case droop bound), gated by the TIM-* rules,
``schedule``    power/TAM-constrained SOC test schedule (greedy vs binpack),
``serve``       run the ATPG job service over a store directory,
``submit``      enqueue one flow job (optionally ``--wait`` for it),
``jobs``        list a store's jobs, their states and attempts,
``obs``         inspect telemetry artifacts (traces, reports).

Every command accepts ``--scale`` (tiny/small/bench/full), ``--seed``
and ``--log-level``.  ``flow`` adds the observability flags
(``--trace``, ``--chrome``, ``--metrics``, ``--metrics-json``,
``--profile``) that scope a :class:`repro.obs.Telemetry` over the run;
``repro obs summary|chrome|check trace.jsonl`` works with the traces
they write, and ``repro obs report run.json`` digests a saved
:class:`~repro.reporting.RunReport`.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import CaseStudy
from .drc import FAIL_ON_CHOICES
from .obs import LOG_LEVELS, setup_logging
from .reporting import format_table


def package_version() -> str:
    """The installed distribution version (source-tree fallback)."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        from . import __version__

        return __version__


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", default="tiny",
                        choices=["tiny", "small", "bench", "full"])
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--log-level", default="warning",
                        choices=list(LOG_LEVELS),
                        help="stdlib logging level for the repro tree "
                             "(default: warning)")
    parser.add_argument("--workers", type=_workers_arg, default=1,
                        metavar="N|auto",
                        help="worker processes for grading pools: a "
                             "count, or 'auto' to size from the work "
                             "and usable cores (default: 1)")


def _positive_int(raw: str) -> int:
    """An argparse ``type`` for counts that must be at least 1."""
    if raw.isdecimal() and int(raw) >= 1:
        return int(raw)
    raise argparse.ArgumentTypeError(
        f"expected a positive integer, got {raw!r}"
    )


def _non_negative_int(raw: str) -> int:
    """An argparse ``type`` for indexes that may be 0."""
    if raw.isdecimal():
        return int(raw)
    raise argparse.ArgumentTypeError(
        f"expected a non-negative integer, got {raw!r}"
    )


def _positive_float(raw: str) -> float:
    """An argparse ``type`` for durations that must be above 0."""
    try:
        value = float(raw)
    except ValueError:
        value = float("nan")
    if 0 < value < float("inf"):
        return value
    raise argparse.ArgumentTypeError(
        f"expected a positive number, got {raw!r}"
    )


def _workers_arg(raw: str):
    """``--workers`` value: a positive count or ``"auto"``."""
    if raw == "auto":
        return raw
    try:
        return _positive_int(raw)
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {raw!r}"
        ) from None


def _study(args) -> CaseStudy:
    return CaseStudy(
        scale=args.scale, seed=args.seed,
        n_workers=args.workers,
        checkpoint_dir=getattr(args, "checkpoint", None),
    )


def cmd_casestudy(args) -> int:
    from .errors import CheckpointError

    try:
        hc = _study(args).headline_comparison()
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = [{"metric": k, "value": v} for k, v in hc.items()]
    print(format_table(rows, title="DAC'07 reproduction headline:"))
    return 0


def cmd_table(args) -> int:
    study = _study(args)
    if args.number == 1:
        print(format_table(
            [{"metric": k, "value": v} for k, v in study.table1().items()]
        ))
    elif args.number == 2:
        print(format_table(study.table2()))
    elif args.number == 3:
        for label, rows in study.table3().items():
            print(format_table(
                [
                    {
                        "block": r.block,
                        "avg_power_mW": r.avg_power_mw,
                        "worst_VDD_V": r.worst_drop_vdd_v,
                        "worst_VSS_V": r.worst_drop_vss_v,
                    }
                    for r in rows
                ],
                title=label,
            ))
    elif args.number == 4:
        print(format_table(
            [{"model": k, **v} for k, v in study.table4().items()]
        ))
    return 0


def cmd_atpg(args) -> int:
    from .atpg import AtpgEngine
    from .dft import write_stil

    study = _study(args)
    design = study.design
    engine = AtpgEngine(
        design.netlist, design.dominant_domain(), scan=design.scan,
        protocol=args.protocol, seed=1, n_workers=args.workers,
    )
    result = engine.run(fill=args.fill)
    print(
        f"{result.n_patterns} patterns, "
        f"test coverage {result.test_coverage:.1%}"
    )
    if args.output:
        with open(args.output, "w") as fh:
            write_stil(result.pattern_set, fh, scan=design.scan)
        print(f"wrote {args.output}")
    return 0


def _load_patterns(path: str):
    """Read a STIL pattern file for the CLI, or ``None`` after a one-line
    error on stderr (the :func:`_load_run_report` contract)."""
    from .dft import read_stil
    from .errors import ScanError

    try:
        with open(path) as fh:
            return read_stil(fh)
    except FileNotFoundError:
        print(f"error: no pattern file at {path!r}", file=sys.stderr)
    except (OSError, ScanError, ValueError) as exc:
        print(
            f"error: unreadable pattern file {path!r}: {exc}",
            file=sys.stderr,
        )
    return None


def cmd_scap(args) -> int:
    from .core import validate_pattern_set

    # Parse the file before building the case study: a bad path fails
    # in milliseconds instead of after the design build.
    patterns = _load_patterns(args.patterns)
    if patterns is None:
        return 2
    study = _study(args)
    report = validate_pattern_set(
        study.calculator, patterns, study.thresholds_mw
    )
    print(
        f"{len(report.violating_patterns())} of {report.n_patterns} "
        f"patterns exceed a block threshold"
    )
    for v in report.violations[:20]:
        print(
            f"  pattern {v.pattern_index}: {v.block} "
            f"{v.scap_mw:.2f} mW > {v.threshold_mw:.2f} mW"
        )
    return 1 if report.violations else 0


def cmd_irmap(args) -> int:
    from .pgrid import dynamic_ir_for_pattern, render_ir_map

    study = _study(args)
    flow = study.conventional()
    n_patterns = len(flow.pattern_set)
    if args.pattern >= n_patterns:
        print(
            f"error: no pattern #{args.pattern}: the conventional flow "
            f"has {n_patterns} patterns",
            file=sys.stderr,
        )
        return 2
    pattern = flow.pattern_set[args.pattern]
    _profile, timing = study.calculator.profile_pattern_with_timing(pattern)
    ir = dynamic_ir_for_pattern(study.model, timing)
    print(render_ir_map(
        study.model.vdd_grid, ir.drop_vdd,
        title=f"VDD IR-drop, pattern #{args.pattern}:",
    ))
    return 0


def cmd_floorplan(args) -> int:
    study = _study(args)
    print(study.figure1())
    return 0


def _load_run_report(path: str):
    """Load a RunReport JSON for the CLI, or ``None`` after a one-line
    error on stderr.

    A missing or corrupt report file is an operator mistake (wrong
    path, interrupted copy), not a bug — it gets a clean diagnostic
    and exit code 2, never a traceback.
    """
    import json

    from .reporting import RunReport

    try:
        return RunReport.load(path)
    except FileNotFoundError:
        print(f"error: no run report at {path!r}", file=sys.stderr)
    except (OSError, json.JSONDecodeError, ValueError, TypeError) as exc:
        print(
            f"error: unreadable run report {path!r}: {exc}",
            file=sys.stderr,
        )
    return None


def _flow_telemetry(args):
    """Build the run's telemetry from the flow's obs flags (or None)."""
    from .obs import Telemetry

    wants_trace = bool(args.trace or args.chrome)
    wants_metrics = bool(args.metrics or args.metrics_json)
    if not (wants_trace or wants_metrics or args.profile):
        return None
    return Telemetry(
        tracing=wants_trace,
        metrics=wants_metrics,
        profile=args.profile,
    )


def cmd_flow(args) -> int:
    from .core import run_noise_tolerant_flow
    from .errors import CheckpointError
    from .reporting import RUN_FAILED
    from .soc import build_turbo_eagle

    if args.report:
        parent = os.path.dirname(os.path.abspath(args.report))
        if not os.path.isdir(parent):
            print(
                f"error: report directory does not exist: {parent!r}",
                file=sys.stderr,
            )
            return 2
    design = build_turbo_eagle(scale=args.scale, seed=args.seed)
    telemetry = _flow_telemetry(args)
    try:
        result, report = run_noise_tolerant_flow(
            design,
            checkpoint_dir=args.checkpoint,
            resume=args.resume,
            max_patterns=args.max_patterns,
            stop_after_stage=args.stop_after,
            report_path=args.report,
            telemetry=telemetry,
            schedule_budget_mw=args.schedule_budget,
            schedule_strategy=args.schedule_strategy,
            timing_prescreen=args.timing_prescreen,
            timing_max_patterns=args.timing_max_patterns,
            seed=1,
            n_workers=args.workers,
        )
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if report.timing is not None:
        if "error" in report.timing:
            print(f"timing: {report.timing['error']}", file=sys.stderr)
        else:
            counts = report.timing["endpoint_counts"]
            print(
                f"timing pre-screen: {report.timing['n_patterns']} "
                f"patterns, {report.timing['endpoints_total']} endpoint "
                f"checks — {counts['inactive']} inactive, "
                f"{counts['safe_static'] + counts['safe_derated']} "
                f"provably safe, {counts['at_risk']} at risk "
                f"({report.timing['pruned_endpoint_fraction']:.1%} "
                f"pruned); soundness "
                f"{report.timing['soundness_violations']} violation(s) "
                f"in {report.timing['soundness_checked']} checks"
            )
    if report.schedule is not None:
        if "error" in report.schedule:
            print(f"schedule: {report.schedule['error']}", file=sys.stderr)
        else:
            print(
                f"schedule ({report.schedule['strategy']}): "
                f"{report.schedule['n_blocks']} blocks in "
                f"{report.schedule['makespan_us']:.2f} us, "
                f"peak {report.schedule['peak_power_mw']:.2f} mW / "
                f"budget {report.schedule['power_budget_mw']:.2f} mW"
            )
    for stage in report.stages:
        origin = " (from checkpoint)" if stage.from_checkpoint else ""
        print(f"  {stage.name}: {stage.status}{origin}")
    print(f"flow status: {report.status}")
    if report.error:
        print(f"error: {report.error}", file=sys.stderr)
    if result is not None:
        print(
            f"{result.n_patterns} patterns, "
            f"test coverage {result.test_coverage:.1%}"
        )
    if telemetry is not None:
        if args.trace and telemetry.save_trace_jsonl(args.trace):
            print(f"wrote trace to {args.trace}")
        if args.chrome and telemetry.save_chrome_trace(args.chrome):
            print(f"wrote Chrome trace to {args.chrome}")
        if args.metrics and telemetry.save_metrics_prometheus(args.metrics):
            print(f"wrote metrics to {args.metrics}")
        if args.metrics_json and telemetry.save_metrics_json(
            args.metrics_json
        ):
            print(f"wrote metrics JSON to {args.metrics_json}")
        if args.profile:
            table = telemetry.hotspot_table()
            if table:
                print(table)
    if args.report:
        print(f"wrote run report to {args.report}")
        # Round-trip through RunReport.load so what is printed is what
        # a later `repro obs report` sees, not in-memory state.
        loaded = _load_run_report(args.report)
        if loaded is None:
            return 2
        print(format_table(
            loaded.stage_times(),
            columns=["stage", "status", "elapsed_s", "patterns"],
            title="stage wall times:",
        ))
    # A deliberate --stop-after partial run exits 0; only a run that
    # actually failed (or produced nothing) signals an error.
    return 3 if report.status == RUN_FAILED or report.error else 0


def cmd_schedule(args) -> int:
    import json

    from .core.scheduling import (
        ScheduleBudget,
        budget_sweep,
        generate_block_specs,
        schedule_tests,
        specs_from_design,
    )
    from .errors import ConfigError
    from .power.static_bound import StaticScapBound

    strategies = (
        ["greedy", "binpack"] if args.strategy == "both"
        else [args.strategy]
    )
    rows = []
    try:
        if args.synthetic is not None:
            specs = generate_block_specs(args.synthetic, seed=args.seed)
            tam = args.tam_width
        else:
            study = _study(args)
            design = study.design
            bound = StaticScapBound(design, study.domain)
            specs = specs_from_design(
                design,
                bound.test_power_bounds_mw(),
                {b: args.patterns for b in design.blocks()},
            )
            tam = (
                args.tam_width
                if args.tam_width is not None
                else design.tam_width
            )
        if args.power_budget is not None:
            budgets = [args.power_budget]
        else:
            budgets = budget_sweep(specs)
        for budget_mw in budgets:
            budget = ScheduleBudget(power_mw=budget_mw, tam_width=tam)
            for strategy in strategies:
                schedule = schedule_tests(specs, budget, strategy=strategy)
                schedule.validate()
                rows.append({
                    "budget_mw": round(budget_mw, 3),
                    "strategy": strategy,
                    "makespan_us": round(schedule.makespan_us, 3),
                    "peak_power_mw": round(schedule.peak_power_mw, 3),
                    "speedup": round(schedule.speedup, 3),
                })
    except ConfigError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    print(format_table(
        rows, title=f"power-constrained test schedules "
                    f"({len(specs)} blocks, TAM width {tam}):",
    ))
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump({"tam_width": tam, "rows": rows}, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.json_out}")
    return 0


def _load_netlist(path: str):
    """Read a Verilog netlist for the CLI, or ``None`` after a one-line
    error on stderr (the :func:`_load_run_report` contract)."""
    from .errors import LibraryError, NetlistError
    from .netlist.verilog import parse_verilog

    try:
        with open(path) as fh:
            return parse_verilog(fh)
    except FileNotFoundError:
        print(f"error: no netlist file at {path!r}", file=sys.stderr)
    except (OSError, ValueError, NetlistError, LibraryError) as exc:
        print(
            f"error: unreadable netlist file {path!r}: {exc}",
            file=sys.stderr,
        )
    return None


def cmd_drc(args) -> int:
    from .drc import DrcContext, load_waivers, run_drc
    from .errors import ConfigError

    waivers = None
    if args.waivers:
        try:
            waivers = load_waivers(args.waivers)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.netlist:
        netlist = _load_netlist(args.netlist)
        if netlist is None:
            return 2
        ctx = DrcContext.for_netlist(netlist)
    else:
        study = _study(args)
        thresholds = study.thresholds_mw if args.power else None
        grid = study.model if args.timing else None
        ctx = DrcContext.for_design(
            study.design, thresholds_mw=thresholds, grid=grid
        )
    report = run_drc(ctx, waivers=waivers)
    print(report.format_text())
    if args.json_out:
        report.save(args.json_out)
        print(f"wrote {args.json_out}")
    gating = report.gating_violations(args.fail_on)
    if gating:
        print(
            f"FAIL: {len(gating)} unwaived violation(s) at or above "
            f"severity {args.fail_on!r}",
            file=sys.stderr,
        )
        return 2
    return 0


def cmd_sta(args) -> int:
    import json

    import numpy as np

    from .config import ElectricalEnv
    from .drc import DrcContext, run_drc
    from .sim.delays import DelayModel
    from .sim.sta import StaticTimingAnalyzer

    if args.derate is not None and args.derate < 1.0:
        print(
            "error: --derate must be >= 1.0 (droop only slows cells)",
            file=sys.stderr,
        )
        return 2
    study = _study(args)
    design = study.design
    mode = (
        "droop-bound"
        if args.droop_bound
        else (
            f"derate {args.derate:g}"
            if args.derate is not None
            else "nominal"
        )
    )
    # The droop-bound mode needs the calibrated power grid; the other
    # modes stay simulation- and grid-free.
    model = study.model if args.droop_bound else None
    env = ElectricalEnv()
    delays = DelayModel(design.netlist, design.parasitics)
    rows = []
    domains_json = {}
    for name in sorted(design.domains):
        if not design.netlist.pulsed_flops(name):
            continue
        if args.droop_bound:
            from .timing import DroopBoundAnalyzer

            analyzer = DroopBoundAnalyzer(
                design, name, model=model, env=env, delays=delays
            )
            gate_droop, flop_droop, _total = analyzer.droop_bounds_v()
            report = analyzer.sta.analyze(
                gate_derate=1.0
                + env.k_volt * np.clip(gate_droop, 0.0, None),
                flop_derate=1.0
                + env.k_volt * np.clip(flop_droop, 0.0, None),
            )
        else:
            sta = StaticTimingAnalyzer(
                design.netlist,
                delays,
                design.clock_trees[name],
                design.domains[name].period_ns,
                name,
            )
            if args.derate is not None:
                report = sta.analyze(
                    gate_derate=np.full(
                        design.netlist.n_gates, args.derate
                    ),
                    flop_derate=np.full(
                        design.netlist.n_flops, args.derate
                    ),
                )
            else:
                report = sta.analyze()
        worst = report.worst_endpoints(1)
        rows.append({
            "domain": name,
            "period_ns": round(report.period_ns, 3),
            "endpoints": len(report.endpoints),
            "worst_slack_ns": round(report.worst_slack_ns, 3),
            "worst_endpoint": worst[0].flop_name if worst else "",
            "failing": len(report.failing_endpoints()),
        })
        domains_json[name] = {
            "period_ns": report.period_ns,
            "n_endpoints": len(report.endpoints),
            "worst_slack_ns": report.worst_slack_ns,
            "failing_endpoints": len(report.failing_endpoints()),
            "worst_endpoints": [
                {
                    "flop_name": ep.flop_name,
                    "arrival_ns": round(ep.arrival_ns, 6),
                    "required_ns": round(ep.required_ns, 6),
                    "slack_ns": round(ep.slack_ns, 6),
                }
                for ep in report.worst_endpoints(5)
            ],
        }
    print(format_table(
        rows,
        columns=["domain", "period_ns", "endpoints", "worst_slack_ns",
                 "worst_endpoint", "failing"],
        title=f"static timing per clock domain ({mode}):",
    ))

    ctx = DrcContext.for_design(
        design, grid=model, timing_guard_band_ns=args.guard_band
    )
    drc_report = run_drc(ctx, families=["timing"])
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(
                {
                    "mode": mode,
                    "guard_band_ns": args.guard_band,
                    "domains": domains_json,
                    "drc": drc_report.to_dict(),
                },
                fh,
                indent=1,
                sort_keys=True,
            )
            fh.write("\n")
        print(f"wrote {args.json_out}")
    gating = drc_report.gating_violations(args.fail_on)
    if gating:
        for v in gating[:10]:
            print(f"  {v.severity} {v.rule_id}: {v.message}",
                  file=sys.stderr)
        print(
            f"FAIL: {len(gating)} TIM violation(s) at or above "
            f"severity {args.fail_on!r}",
            file=sys.stderr,
        )
        return 2
    return 0


def cmd_export(args) -> int:
    from .errors import CheckpointError
    from .reporting import export_case_study

    try:
        written = export_case_study(_study(args), args.out)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(written)} artefacts to {args.out}/")
    for path in written:
        print(f"  {path}")
    return 0


def cmd_obs(args) -> int:
    from .obs import (
        format_summary,
        load_trace_jsonl,
        nesting_errors,
        save_chrome_trace,
    )

    if args.action == "report":
        report = _load_run_report(args.input)
        if report is None:
            return 2
        print(format_table(
            report.stage_times(),
            columns=["stage", "status", "elapsed_s", "patterns"],
            title=f"{report.flow} ({report.status}):",
        ))
        tel = report.telemetry
        if tel is None:
            print("(no telemetry recorded)")
            return 0
        print(f"run id: {tel.get('run_id')}  "
              f"elapsed: {tel.get('elapsed_s')} s  "
              f"trace events: {tel.get('n_trace_events', 0)}")
        metrics = tel.get("metrics") or {}
        rows = []
        for name in sorted(metrics):
            series = metrics[name].get("series", {})
            total = sum(
                v for v in series.values() if isinstance(v, (int, float))
            )
            rows.append({
                "metric": name,
                "kind": metrics[name].get("kind"),
                "total": round(total, 6),
            })
        if rows:
            print(format_table(rows, title="metrics:"))
        return 0

    try:
        events = load_trace_jsonl(args.input)
    except FileNotFoundError:
        print(f"error: no trace file at {args.input!r}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(
            f"error: unreadable trace file {args.input!r}: {exc}",
            file=sys.stderr,
        )
        return 2
    if args.action == "summary":
        print(format_summary(events))
        return 0
    if args.action == "chrome":
        out = args.output or (args.input + ".chrome.json")
        save_chrome_trace(events, out)
        print(f"wrote {out} ({len(events)} spans); open it at "
              f"chrome://tracing or https://ui.perfetto.dev")
        return 0
    # "check": well-nestedness validation
    problems = nesting_errors(events)
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"FAIL: {len(problems)} nesting violation(s)",
              file=sys.stderr)
        return 2
    print(f"OK: {len(events)} spans, tree is well-nested")
    return 0


def _service_config(args):
    """The ``ServiceConfig`` a service command's overrides ask for, or
    ``None`` when it sets none (the store keeps its persisted config)."""
    from .service import ServiceConfig

    overrides = {
        "max_queue_depth": getattr(args, "queue_depth", None),
        "lease_ttl_s": getattr(args, "lease_ttl", None),
        "max_shard_attempts": getattr(args, "max_attempts", None),
    }
    set_overrides = {k: v for k, v in overrides.items() if v is not None}
    return ServiceConfig(**set_overrides) if set_overrides else None


def _service_store(args):
    """Open (or create) the job store named by ``args.store``, applying
    any config overrides the command supplies; ``None`` after a one-line
    error on stderr when the store cannot be opened."""
    from .errors import ServiceError
    from .service import JobStore

    try:
        return JobStore(args.store, config=_service_config(args))
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _serve_http(args) -> int:
    """``repro serve --http``: the threaded wire API + tenant fleet.

    Every tenant store on disk is opened before the port is bound, so a
    data root or ``tenants/`` that is not a directory, an unreadable
    tenant store and a port already in use are each one ``error:`` line
    and exit 2.  A store that turns unreadable while serving is skipped
    (see :meth:`~repro.service.TenantManager.open_stores`).
    """
    import time

    from .errors import ServiceError
    from .service import HttpServerThread, TenantFleet, TenantManager

    host, _, port_text = args.http.rpartition(":")
    host = host or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        print(f"bad --http address {args.http!r}: want HOST:PORT",
              file=sys.stderr)
        return 2
    try:
        tenants = TenantManager(
            args.store, default_config=_service_config(args)
        )
        for name in tenants.tenant_names():
            tenants.store(name)
        fleet = TenantFleet(
            tenants,
            n_workers=args.workers_count,
            inline_fallback=not args.no_inline,
        )
        server = HttpServerThread(
            tenants, host=host, port=port, fleet=fleet
        ).start()
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"serving HTTP on {server.base_url} "
          f"(tenant stores under {tenants.tenants_dir}, "
          f"{args.workers_count} worker(s) per tenant)")
    try:
        if args.drain:
            deadline = (
                time.monotonic() + args.timeout
                if args.timeout is not None else None
            )
            while any(
                not job.terminal
                for _, store in tenants.open_stores()
                for job in store.list_jobs()
            ):
                if deadline is not None and time.monotonic() > deadline:
                    print("drain timed out", file=sys.stderr)
                    return 3
                time.sleep(args.poll)
            print("queue drained")
        else:
            while True:
                time.sleep(1.0)
    except KeyboardInterrupt:
        print("stopping")
    finally:
        server.stop()
    return 0


def cmd_serve(args) -> int:
    import time

    from .errors import ServiceError
    from .service import ServiceSupervisor

    if args.http:
        return _serve_http(args)
    store = _service_store(args)
    if store is None:
        return 2
    supervisor = ServiceSupervisor(
        store,
        n_workers=args.workers_count,
        inline_fallback=not args.no_inline,
    )
    mode = (
        f"{args.workers_count} worker(s)"
        if args.workers_count
        else "in-process (degraded) execution"
    )
    print(f"serving job store {store.root} with {mode}")
    with supervisor:
        try:
            if args.drain:
                supervisor.run_until_drained(timeout_s=args.timeout)
                print("queue drained")
            else:
                while True:
                    supervisor.tick()
                    time.sleep(args.poll)
        except KeyboardInterrupt:
            print("stopping workers")
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return 0


def cmd_submit(args) -> int:
    from .errors import ServiceBusyError, ServiceError
    from .service import JobSpec, ServiceClient

    store = _service_store(args)
    if store is None:
        return 2
    client = ServiceClient(store)
    spec = JobSpec(
        scale=args.scale,
        seed=args.seed,
        max_patterns=args.max_patterns,
        telemetry=args.obs,
    )
    try:
        job_id = client.submit(spec)
    except ServiceBusyError as exc:
        print(
            f"busy: {exc} — retry when the queue drains",
            file=sys.stderr,
        )
        return 2
    print(job_id)
    if not args.wait:
        return 0
    try:
        job = client.wait(job_id, timeout_s=args.timeout)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"job {job_id}: {job.state}")
    if job.state == "done":
        result = client.result(job_id)
        print(
            f"{result['n_patterns']} patterns, "
            f"test coverage {result['test_coverage']:.1%}"
        )
        return 0
    if job.error:
        print(f"error: {job.error}", file=sys.stderr)
    return 3


def _existing_store(root: str):
    """Open the job store at *root*, or ``None`` after a one-line error
    on stderr.  Unlike :func:`_service_store` this never creates one:
    listing or cancelling needs a store that is already there."""
    from .errors import ServiceError
    from .service import JobStore

    if not os.path.isdir(os.path.join(root, "jobs")):
        print(f"error: no job store at {root!r}", file=sys.stderr)
        return None
    try:
        return JobStore(root)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
    return None


def cmd_jobs(args) -> int:
    import json

    from .errors import ServiceError
    from .service import ServiceClient, validate_tenant_name

    root = args.store
    if args.tenant:
        try:
            validate_tenant_name(args.tenant)
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        root = os.path.join(args.store, "tenants", args.tenant)
        if not os.path.isdir(root):
            print(f"no such tenant {args.tenant!r} under "
                  f"{os.path.join(args.store, 'tenants')}",
                  file=sys.stderr)
            return 2
    store = _existing_store(root)
    if store is None:
        return 2
    client = ServiceClient(store)
    if args.cancel:
        try:
            job = client.cancel(args.cancel)
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"cancelled {job.id}")
        return 0
    jobs = client.jobs()
    if args.as_json:
        print(json.dumps(
            {
                "store": client.store.root,
                "jobs": [job.to_dict() for job in jobs],
            },
            indent=1, sort_keys=True,
        ))
        return 0
    if not jobs:
        print("no jobs")
        return 0
    rows = [
        {
            "job": job.id,
            "state": job.state,
            "attempts": job.attempts,
            "error": (job.error or "")[:48],
        }
        for job in jobs
    ]
    print(format_table(
        rows,
        columns=["job", "state", "attempts", "error"],
        title=f"jobs in {client.store.root}:",
    ))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Supply-noise-aware TDF ATPG (DAC'07 reproduction)",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {package_version()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("casestudy", help="run the full reproduction")
    _add_common(p)
    p.add_argument("--checkpoint", help="persist/reuse results in DIR")
    p.set_defaults(fn=cmd_casestudy)

    p = sub.add_parser("table", help="print one paper table")
    _add_common(p)
    p.add_argument("number", type=int, choices=[1, 2, 3, 4])
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("atpg", help="generate transition patterns")
    _add_common(p)
    p.add_argument("--fill", default="random",
                   choices=["random", "0", "1", "adjacent", "preferred"])
    p.add_argument("--protocol", default="loc", choices=["loc", "los"])
    p.add_argument("--output", help="write patterns as STIL")
    p.set_defaults(fn=cmd_atpg)

    p = sub.add_parser("scap", help="screen a STIL file against thresholds")
    _add_common(p)
    p.add_argument("patterns", help="STIL file from `repro atpg`")
    p.set_defaults(fn=cmd_scap)

    p = sub.add_parser("irmap", help="IR-drop map of one pattern")
    _add_common(p)
    p.add_argument("--pattern", type=_non_negative_int, default=0)
    p.set_defaults(fn=cmd_irmap)

    p = sub.add_parser("floorplan", help="print the floorplan")
    _add_common(p)
    p.set_defaults(fn=cmd_floorplan)

    p = sub.add_parser("export", help="write every table/figure to files")
    _add_common(p)
    p.add_argument("--out", default="artifacts",
                   help="output directory (default: artifacts/)")
    p.add_argument("--checkpoint", help="persist/reuse results in DIR")
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser(
        "drc", help="static design-rule check / testability lint"
    )
    _add_common(p)
    p.add_argument("--netlist", metavar="FILE",
                   help="check a structural Verilog file instead of a "
                        "generated design (scan rules use its "
                        "`// pragma ... chain=c:p` metadata)")
    p.add_argument("--json", dest="json_out", metavar="FILE",
                   help="write the full violation report as JSON")
    p.add_argument("--waivers", metavar="FILE",
                   help="JSON waiver file excusing reviewed findings")
    p.add_argument("--fail-on", default="error", choices=FAIL_ON_CHOICES,
                   help="lowest severity that makes the command exit "
                        "non-zero (default: error)")
    p.add_argument("--power", action="store_true",
                   help="derive SCAP thresholds and run the static "
                        "power pre-screen (calibrates the power grid; "
                        "generated designs only)")
    p.add_argument("--timing", action="store_true",
                   help="calibrate the power grid so the droop-bound "
                        "rule (TIM-DROOP) runs too (generated designs "
                        "only)")
    p.set_defaults(fn=cmd_drc)

    p = sub.add_parser(
        "sta",
        help="static timing per clock domain, gated by the TIM-* rules",
    )
    _add_common(p)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--derate", type=float, metavar="K",
                      help="multiply every cell delay by K >= 1.0 "
                           "(uniform voltage-noise margin)")
    mode.add_argument("--droop-bound", action="store_true",
                      help="derate each cell by the worst-case static "
                           "droop bound (calibrates the power grid)")
    p.add_argument("--guard-band", type=float, metavar="NS",
                   help="TIM-MARGIN guard band in ns (default: 0.5)")
    p.add_argument("--json", dest="json_out", metavar="FILE",
                   help="write the per-domain report and the TIM DRC "
                        "findings as JSON")
    p.add_argument("--fail-on", default="error", choices=FAIL_ON_CHOICES,
                   help="lowest TIM severity that makes the command "
                        "exit non-zero (default: error)")
    p.set_defaults(fn=cmd_sta)

    p = sub.add_parser(
        "flow", help="staged noise-tolerant flow with checkpoint/resume"
    )
    _add_common(p)
    p.add_argument("--checkpoint", help="stage checkpoint directory")
    p.add_argument("--no-resume", dest="resume", action="store_false",
                   help="ignore existing checkpoints and start fresh")
    p.add_argument("--stop-after", type=_non_negative_int, metavar="N",
                   help="deliberately stop after stage index N")
    p.add_argument("--max-patterns", type=_positive_int,
                   help="total pattern budget across stages")
    p.add_argument("--report", help="write the RunReport JSON here and "
                                    "print per-stage wall times")
    p.add_argument("--trace", metavar="FILE",
                   help="write the span trace as JSONL")
    p.add_argument("--chrome", metavar="FILE",
                   help="write the trace as Chrome trace-event JSON")
    p.add_argument("--metrics", metavar="FILE",
                   help="write metrics in Prometheus text format")
    p.add_argument("--metrics-json", metavar="FILE",
                   help="write the metrics snapshot as JSON")
    p.add_argument("--profile", action="store_true",
                   help="cProfile each stage and print the hotspot table")
    p.add_argument("--schedule-budget", type=float, metavar="MW",
                   help="also build a power-constrained SOC test "
                        "schedule under this chip-wide envelope")
    p.add_argument("--schedule-strategy", default="binpack",
                   choices=["greedy", "binpack"],
                   help="scheduler for --schedule-budget "
                        "(default: binpack)")
    p.add_argument("--timing-prescreen", action="store_true",
                   help="classify every generated pattern's endpoints "
                        "against the droop-derated delay bound; only "
                        "at-risk ones pay the IR-scaled re-simulation")
    p.add_argument("--timing-max-patterns", type=_positive_int, metavar="N",
                   help="cap how many patterns the timing pre-screen "
                        "examines")
    p.set_defaults(fn=cmd_flow)

    p = sub.add_parser(
        "schedule",
        help="power/TAM-constrained SOC test schedule (greedy vs binpack)",
    )
    _add_common(p)
    p.add_argument("--strategy", default="both",
                   choices=["greedy", "binpack", "both"],
                   help="scheduler(s) to run (default: both, for "
                        "side-by-side comparison)")
    p.add_argument("--power-budget", type=float, metavar="MW",
                   help="chip-wide power envelope (default: sweep a "
                        "Pareto range derived from the block powers)")
    p.add_argument("--tam-width", type=_positive_int, metavar="W",
                   help="TAM width in lines (default: the design's)")
    p.add_argument("--patterns", type=_positive_int, default=64,
                   metavar="N",
                   help="pattern count per block when scheduling the "
                        "generated design (default: 64)")
    p.add_argument("--synthetic", type=_positive_int, metavar="N",
                   help="schedule a generated N-block abstract SOC "
                        "instead of the Turbo-Eagle design")
    p.add_argument("--json", dest="json_out", metavar="FILE",
                   help="write the schedule rows as JSON")
    p.set_defaults(fn=cmd_schedule)

    p = sub.add_parser(
        "serve",
        help="run the ATPG job service over a store directory",
    )
    p.add_argument("store", help="job store root directory")
    p.add_argument("--http", metavar="HOST:PORT", default=None,
                   help="serve the HTTP/1.1 wire API on this address "
                        "(port 0 picks a free port); the store becomes "
                        "a multi-tenant data root with per-tenant "
                        "stores under <store>/tenants/")
    p.add_argument("--workers", dest="workers_count",
                   type=_non_negative_int, default=2, metavar="N",
                   help="worker processes to supervise; 0 runs jobs "
                        "in-process serially (default: 2)")
    p.add_argument("--drain", action="store_true",
                   help="exit once every job is terminal instead of "
                        "serving forever")
    p.add_argument("--timeout", type=_positive_float, default=None,
                   metavar="S",
                   help="give up draining after S seconds (with --drain)")
    p.add_argument("--poll", type=_positive_float, default=0.5, metavar="S",
                   help="supervision tick interval (default: 0.5)")
    p.add_argument("--no-inline", action="store_true",
                   help="never execute jobs in the supervisor process "
                        "even when every worker is dead")
    p.add_argument("--queue-depth", type=int, metavar="N",
                   help="override the store's max queue depth")
    p.add_argument("--lease-ttl", type=float, metavar="S",
                   help="override the store's lease TTL in seconds")
    p.add_argument("--max-attempts", type=int, metavar="N",
                   help="override the per-job attempt budget")
    p.add_argument("--log-level", default="warning",
                   choices=list(LOG_LEVELS))
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "submit", help="submit one flow job to a job store"
    )
    p.add_argument("store", help="job store root directory")
    p.add_argument("--scale", default="tiny",
                   choices=["tiny", "small", "bench", "full"])
    p.add_argument("--seed", type=int, default=2007)
    p.add_argument("--max-patterns", type=_positive_int,
                   help="total pattern budget across stages")
    p.add_argument("--obs", action="store_true",
                   help="persist the job's trace/metrics artifacts in "
                        "the job directory")
    p.add_argument("--wait", action="store_true",
                   help="block until the job is terminal (running it "
                        "in-process if no worker is alive)")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="give up waiting after S seconds (with --wait)")
    p.add_argument("--log-level", default="warning",
                   choices=list(LOG_LEVELS))
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser(
        "jobs", help="list the jobs (states and attempts) in a store"
    )
    p.add_argument("store", help="job store root directory "
                                 "(or an HTTP data root with --tenant)")
    p.add_argument("--tenant", metavar="NAME", default=None,
                   help="inspect <store>/tenants/NAME — the layout "
                        "`repro serve --http` manages")
    p.add_argument("--json", dest="as_json", action="store_true",
                   help="emit the full job records as JSON instead of "
                        "the table")
    p.add_argument("--cancel", metavar="JOB_ID", default=None,
                   help="cancel a still-queued job instead of listing")
    p.add_argument("--log-level", default="warning",
                   choices=list(LOG_LEVELS))
    p.set_defaults(fn=cmd_jobs)

    p = sub.add_parser(
        "obs", help="inspect telemetry artifacts (traces, run reports)"
    )
    p.add_argument("--log-level", default="warning",
                   choices=list(LOG_LEVELS))
    p.add_argument("action",
                   choices=["summary", "chrome", "check", "report"],
                   help="summary: per-span table; chrome: convert to "
                        "trace-event JSON; check: validate span "
                        "nesting; report: digest a RunReport JSON")
    p.add_argument("input", help="trace JSONL (or RunReport JSON for "
                                 "`report`)")
    p.add_argument("-o", "--output",
                   help="output path for `chrome` (default: "
                        "INPUT.chrome.json)")
    p.set_defaults(fn=cmd_obs)

    args = parser.parse_args(argv)
    setup_logging(getattr(args, "log_level", "warning"))
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
