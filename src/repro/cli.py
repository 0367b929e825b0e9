"""Command-line interface: ``python -m repro <command>`` / ``hybrid-hadoop``.

Commands map one-to-one onto the paper's artifacts:

* ``info``         — architectures, calibration and scheduler thresholds.
* ``run``          — one job on one architecture (the Section III cell).
* ``sweep``        — one application across sizes on all four
  architectures (Figs. 5/6/9).
* ``crosspoints``  — normalized curves and estimated cross points
  (Figs. 7/8), plus the derived scheduler thresholds.
* ``trace``        — generate an FB-2009 trace; print its Fig. 3 CDF;
  optionally save it as JSON.
* ``replay``       — the Section V evaluation: replay the trace on
  Hybrid/THadoop/RHadoop and print the Fig. 10 statistics.
* ``trace-export`` — run a traced replay and write Chrome trace-event
  JSON (open in Perfetto / ``chrome://tracing``).
* ``metrics``      — run a replay with a metrics registry attached and
  print/dump the flat metrics.
* ``profile``      — traced replay -> critical-path & bottleneck
  attribution, written as a self-contained HTML dashboard (``--ab`` for
  a Hybrid-vs-THadoop side-by-side; ``--trace-in`` profiles a
  previously exported Chrome trace instead of re-running).
* ``resilience``   — replay the trace on Hybrid/THadoop/RHadoop under a
  fault plan (see docs/FAULTS.md) and compare the degradation.
* ``cache``        — inspect, migrate, vacuum or clear the on-disk
  result cache (holes — cached infeasible cells — are listed with the
  reason they failed).
* ``serve``        — the always-on deployment daemon: streaming NDJSON
  job admission over HTTP with live Algorithm-1 routing, backpressure
  and checkpoint/restore (see docs/SERVICE.md).
* ``mission``      — render the mission-control dashboard from a metrics
  frames file or a running daemon (see docs/MISSION.md).
* ``submit``       — client for a running daemon: stream an NDJSON file
  or a saved trace, optionally drain and shut the daemon down.
* ``tune``         — the online-tuning head-to-head: static Algorithm 1
  vs recalibrated vs bandit routing on a shifting workload mix over a
  drifted substrate (see docs/TUNE.md); ``--calibration FILE`` loads a
  saved calibration (also accepted by ``run`` and ``advise``).

Shared flags are hoisted into parent parsers so every subcommand spells
them the same way: ``--trace-out FILE`` records a Chrome trace of a run
the command already performs, ``--metrics-out FILE`` dumps its flat
metrics, ``--faults FILE`` injects a JSON fault plan, and ``--seed N``
seeds the workload.

Errors: expected failures (bad input, infeasible configurations,
malformed fault plans) print a one-line ``error:`` diagnostic and exit
non-zero; pass ``--debug`` before the command to get the traceback.

Parallelism and caching: every cell-grid command (``sweep``,
``crosspoints``, ``replay``, ``figures``, ``resilience``) takes
``--workers N``; on ``sweep``/``crosspoints``, ``--jobs N`` survives as
a hidden alias for one release (on the other three it already means
trace-job count).  All cache cell results in
``.repro-cache/results.sqlite`` (``$REPRO_CACHE_DIR`` overrides the
directory) so re-runs only simulate changed cells; ``--no-cache``
disables that.  Parallel results are byte-identical to serial ones.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.figures import (
    DFSIO_SIZES,
    FIG7_SIZES,
    FIG8_SIZES,
    SHUFFLE_APP_SIZES,
    fig3_trace_cdf,
    fig7_crosspoints,
    fig8_crosspoint_dfsio,
    fig10_trace_replay,
    measurement_panels,
)
from repro.analysis.report import render_series, render_table
from repro.apps import APP_REGISTRY, get_app
from repro.core.architectures import (
    named_architectures,
    table1_architectures,
)
from repro.core.calibration import Calibration, DEFAULT_CALIBRATION
from repro.core.deployment import Deployment
from repro.core.scheduler import PAPER_CROSS_POINTS
from repro.errors import CapacityError, ReproError
from repro.faults.plan import FaultPlan, default_resilience_plan
from repro.runner import PoolRunner, ResultCache, default_cache_root
from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    write_chrome_trace,
    write_metrics,
)
from repro.units import format_duration, format_size, parse_size
from repro.workload.cdf import quantile
from repro.workload.fb2009 import generate_fb2009


def architecture_registry() -> dict:
    """Every runnable architecture by CLI name (``--arch`` choices).

    Delegates to :func:`repro.core.architectures.named_architectures` so
    the CLI, the service daemon, and checkpoint restore all resolve
    names from the same registry.
    """
    return named_architectures()


#: ``--arch`` choices, stable order: Table I first, then Section V.
ARCH_CHOICES = ("up-OFS", "up-HDFS", "out-OFS", "out-HDFS",
                "Hybrid", "THadoop", "RHadoop")


def _runner_options(*, alias_jobs: bool = False) -> argparse.ArgumentParser:
    """Parent parser with the shared runner flags (``--workers``,
    ``--no-cache``).

    ``alias_jobs`` keeps the old ``--jobs N`` spelling alive as a hidden
    alias on the commands where it used to mean worker count (one
    release of grace; ``replay``/``figures``/``resilience`` keep
    ``--jobs`` as trace-job count).
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes for the cell grid (default 1 = serial)",
    )
    if alias_jobs:
        parent.add_argument(
            "--jobs", dest="workers", type=int, metavar="N",
            help=argparse.SUPPRESS,
        )
    parent.add_argument(
        "--no-cache", action="store_true",
        help="recompute every cell; skip the on-disk result cache",
    )
    return parent


def _seed_options(default: int) -> argparse.ArgumentParser:
    """Parent parser with the shared ``--seed`` flag."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--seed", type=int, default=default,
        help=f"workload RNG seed (default {default})",
    )
    return parent


def _telemetry_options(
    *, metrics_out: bool = False, faults: bool = False
) -> argparse.ArgumentParser:
    """Parent parser with the shared telemetry/fault flags."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--trace-out", metavar="FILE",
        help="also record a Chrome trace of the run here",
    )
    if metrics_out:
        parent.add_argument(
            "--metrics-out", metavar="FILE",
            help="also write a flat metrics dump of the run here (JSON)",
        )
    if faults:
        parent.add_argument(
            "--faults", metavar="FILE",
            help="inject a JSON fault plan (see docs/FAULTS.md)",
        )
    return parent


def _calibration_options() -> argparse.ArgumentParser:
    """Parent parser with the shared ``--calibration FILE`` flag."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--calibration", metavar="FILE",
        help="load a saved calibration JSON (Calibration.save/load; "
             "strict schema) instead of the built-in constants",
    )
    return parent


def _load_calibration(args: argparse.Namespace) -> Calibration:
    """The calibration a command asked for (``--calibration`` or default)."""
    if getattr(args, "calibration", None):
        return Calibration.load(args.calibration)
    return DEFAULT_CALIBRATION


def _make_runner(workers: int, no_cache: bool) -> PoolRunner:
    """The experiment runner a command asked for (see repro.runner)."""
    return PoolRunner(
        max_workers=workers, cache=None if no_cache else ResultCache()
    )


def _print_runner_stats(runner: PoolRunner) -> None:
    print(f"\n[runner] {runner.lifetime_stats.describe()}")


def _cmd_info(args: argparse.Namespace) -> int:
    print("Architectures (Table I + Section V):")
    for name, spec in table1_architectures().items():
        member = spec.members[0]
        print(f"  {name:10s} {member.cluster.describe()} storage={spec.storage}")
    print("\nScheduler cross points (Algorithm 1):")
    print(f"  {PAPER_CROSS_POINTS.describe()}")
    print("\nApplications:")
    for name, app in sorted(APP_REGISTRY.items()):
        kind = "shuffle-intensive" if app.shuffle_intensive else "map-intensive"
        print(
            f"  {name:16s} shuffle/input={app.shuffle_ratio:g} "
            f"output/input={app.output_ratio:g} ({kind})"
        )
    print("\nCalibration: see repro.core.calibration.DEFAULT_CALIBRATION")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    archs = architecture_registry()
    app = get_app(args.app)
    tracer = Tracer() if args.trace_out else None
    fault_plan = FaultPlan.load(args.faults) if args.faults else None
    deployment = Deployment(
        archs[args.arch], calibration=_load_calibration(args),
        register_datasets=True, tracer=tracer,
        fault_plan=fault_plan,
    )
    job = app.make_job(parse_size(args.size))
    try:
        result = deployment.run_job(job)
    except CapacityError as exc:
        print(f"infeasible: {exc}")
        return 1
    if result.failed:
        print(f"job failed: {result.failure_reason}")
        return 1
    rows = [
        ["execution time", format_duration(result.execution_time)],
        ["map phase", format_duration(result.map_phase)],
        ["shuffle phase", format_duration(result.shuffle_phase)],
        ["reduce phase", format_duration(result.reduce_phase)],
        ["ran on", result.cluster],
    ]
    print(
        render_table(
            ["metric", "value"],
            rows,
            title=f"{args.app} @ {format_size(job.input_bytes)} on {args.arch}",
        )
    )
    if tracer is not None:
        path = write_chrome_trace(tracer, args.trace_out)
        print(f"trace ({len(tracer)} events) written to {path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    app = get_app(args.app)
    sizes: Sequence[float]
    if args.sizes:
        sizes = [parse_size(s) for s in args.sizes.split(",")]
    else:
        sizes = DFSIO_SIZES if app.name == "testdfsio-write" else SHUFFLE_APP_SIZES
    runner = _make_runner(args.workers, args.no_cache)
    panels = measurement_panels(app, sizes, seed=args.seed, runner=runner)
    for key in ("execution", "map", "shuffle", "reduce"):
        panel = panels[key]
        print(render_series(panel.sizes, panel.series, title=panel.title))
        print()
    _print_runner_stats(runner)
    return 0


def _cmd_crosspoints(args: argparse.Namespace) -> int:
    from repro.analysis.asciichart import render_chart

    runner = _make_runner(args.workers, args.no_cache)
    fig7 = fig7_crosspoints(sizes=FIG7_SIZES, runner=runner)
    print(render_series(fig7.sizes, fig7.series, title=fig7.title))
    print()
    print(render_chart(fig7.sizes, fig7.series, reference_y=1.0,
                       x_formatter=format_size))
    print()
    fig8 = fig8_crosspoint_dfsio(sizes=FIG8_SIZES, runner=runner)
    print(render_series(fig8.sizes, fig8.series, title=fig8.title))
    print()
    print(render_chart(fig8.sizes, fig8.series, reference_y=1.0,
                       x_formatter=format_size))
    print()
    rows = []
    for key, value in {**fig7.notes, **fig8.notes}.items():
        rows.append([key, format_size(value) if value else "-"])
    print(render_table(["cross point", "input size"], rows))
    _print_runner_stats(runner)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    trace = generate_fb2009(num_jobs=args.jobs, seed=args.seed)
    figure = fig3_trace_cdf(trace)
    print(render_series(figure.sizes, figure.series, title=figure.title))
    notes = figure.notes
    print(
        f"\n<1MB: {notes['share_below_1MB']:.1%}   "
        f"1MB-30GB: {notes['share_1MB_to_30GB']:.1%}   "
        f">30GB: {notes['share_above_30GB']:.1%}"
    )
    if args.out:
        trace.save(args.out)
        print(f"\ntrace written to {args.out}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    """Regenerate every paper figure's data into a directory."""
    import json
    from pathlib import Path

    from repro.analysis.figures import (
        fig5_wordcount,
        fig6_grep,
        fig9_dfsio,
    )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = _make_runner(args.workers, args.no_cache)

    def dump(name: str, payload: dict, text: str) -> None:
        (out_dir / f"{name}.json").write_text(json.dumps(payload, indent=1))
        (out_dir / f"{name}.txt").write_text(text + "\n")
        print(f"  wrote {name}.txt / .json")

    print(f"regenerating figures into {out_dir}/ ...")
    fig3 = fig3_trace_cdf(num_jobs=args.jobs, seed=args.seed)
    dump("fig3", fig3.to_dict(), render_series(fig3.sizes, fig3.series,
                                               title=fig3.title))
    for name, producer in (
        ("fig5_wordcount", fig5_wordcount),
        ("fig6_grep", fig6_grep),
        ("fig9_dfsio", fig9_dfsio),
    ):
        panels = producer(runner=runner)
        text = "\n\n".join(
            render_series(p.sizes, p.series, title=p.title)
            for p in panels.values()
        )
        dump(name, {k: p.to_dict() for k, p in panels.items()}, text)
    fig7 = fig7_crosspoints(runner=runner)
    dump("fig7", fig7.to_dict(), render_series(fig7.sizes, fig7.series,
                                               title=fig7.title))
    fig8 = fig8_crosspoint_dfsio(runner=runner)
    dump("fig8", fig8.to_dict(), render_series(fig8.sizes, fig8.series,
                                               title=fig8.title))
    print("done (Fig. 10 needs a replay: use `python -m repro replay`)")
    _print_runner_stats(runner)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.analysis.conclusions import evaluate_conclusions, render_findings

    findings = evaluate_conclusions()
    print(render_findings(findings))
    # Only a claim marked as a documented deviation may miss.
    return 1 if any(not f.holds and not f.deviation for f in findings) else 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.core.advisor import advise_split
    from repro.workload.fb2009 import DAY

    trace = generate_fb2009(
        num_jobs=args.jobs, seed=args.seed, duration=DAY * args.jobs / 6000
    ).shrink(5.0)
    advice = advise_split(
        trace.to_jobspecs(), budget=args.budget, objective=args.objective,
        calibration=_load_calibration(args), workers=args.workers,
    )
    rows = [
        [o.name, o.mean, o.p50, o.p99, o.max, o.makespan]
        for o in advice.outcomes
    ]
    print(
        render_table(
            ["mix", "mean (s)", "p50 (s)", "p99 (s)", "max (s)", "makespan (s)"],
            rows,
            title=(
                f"equal-cost splits for budget {args.budget:g} "
                f"({args.jobs}-job FB-2009 sample)"
            ),
        )
    )
    print(f"\nrecommended ({args.objective}): {advice.best.name}")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.analysis.tuning import render_tuning
    from repro.runner.spec import canonical_json
    from repro.tune import DEFAULT_PHASES, MixPhase, evaluate_policies

    runner = _make_runner(args.workers, args.no_cache)
    phases = tuple(
        MixPhase(p.name, p.apps, args.jobs_per_phase or p.jobs,
                 p.min_gb, p.max_gb, p.interarrival)
        for p in DEFAULT_PHASES
    )
    report = evaluate_policies(
        phases=phases,
        base=_load_calibration(args),
        policies=tuple(args.policies.split(",")),
        runner=runner,
        seed=args.seed,
        publish_period=args.publish_period,
        min_observations=args.min_observations,
        bandit_strategy=args.strategy,
    )
    print(render_tuning(report))
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(canonical_json(report.to_dict()) + "\n")
        print(f"\nreport JSON written to {args.out}")
    _print_runner_stats(runner)
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.analysis.timeline import phase_summary, render_timeline

    results = _replay_with_telemetry(
        "Hybrid", args.jobs, args.seed, None, None
    ).results
    print(render_timeline(results, width=args.width, max_jobs=args.max_jobs))
    totals = phase_summary(results)
    print(
        f"\nphase totals (s): queued {totals['queued']:.0f}, "
        f"map {totals['map']:.0f}, shuffle {totals['shuffle']:.0f}, "
        f"reduce {totals['reduce']:.0f}"
    )
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    tracer = Tracer() if args.trace_out else None
    metrics = MetricsRegistry() if args.metrics_out else None
    runner = _make_runner(args.workers, args.no_cache)
    fault_plan = FaultPlan.load(args.faults) if args.faults else None
    outcome = fig10_trace_replay(
        num_jobs=args.jobs, seed=args.seed, tracer=tracer, metrics=metrics,
        runner=runner, fault_plan=fault_plan,
    )
    headers = ["architecture", "class", "p50 (s)", "p90 (s)", "p99 (s)", "max (s)"]
    rows: List[List[object]] = []
    for name, replay in outcome.items():
        for label, times in (
            ("scale-up jobs", replay.scale_up_times),
            ("scale-out jobs", replay.scale_out_times),
        ):
            p50, p90, p99 = quantile(times, [0.5, 0.9, 0.99])
            rows.append([name, label, p50, p90, p99, float(np.max(times))])
    print(
        render_table(
            headers, rows, title="Fig 10: FB-2009 replay (execution time CDFs)"
        )
    )
    if fault_plan is not None:
        counts = ", ".join(
            f"{name}: {sum(1 for r in replay.results if r.failed)}"
            for name, replay in outcome.items()
        )
        print(f"\nunder {fault_plan.describe()} — failed jobs: {counts}")
    if tracer is not None:
        path = write_chrome_trace(tracer, args.trace_out)
        print(f"Hybrid replay trace ({len(tracer)} events) written to {path}")
    if metrics is not None:
        path = write_metrics(metrics, args.metrics_out)
        print(f"Hybrid replay metrics written to {path}")
    return 0


def _replay_with_telemetry(
    arch: str, num_jobs: int, seed: int, tracer, metrics
) -> Deployment:
    """Replay the shrunk FB-2009 trace on one architecture, with any
    observers attached; returns the finished deployment."""
    from repro.workload.fb2009 import DAY

    trace = generate_fb2009(
        num_jobs=num_jobs, seed=seed, duration=DAY * num_jobs / 6000.0
    ).shrink(5.0)
    deployment = Deployment(
        architecture_registry()[arch], tracer=tracer, metrics=metrics
    )
    deployment.run_trace(trace.to_jobspecs())
    return deployment


def _cmd_trace_export(args: argparse.Namespace) -> int:
    tracer = Tracer()
    _replay_with_telemetry(args.arch, args.jobs, args.seed, tracer, None)
    path = write_chrome_trace(tracer, args.out)
    counts = ", ".join(
        f"{cat}: {n}" for cat, n in sorted(tracer.categories().items())
    )
    print(f"{args.arch} replay of {args.jobs} jobs -> {path}")
    print(f"{len(tracer)} events ({counts})")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    metrics = MetricsRegistry()
    _replay_with_telemetry(args.arch, args.jobs, args.seed, None, metrics)
    rows = [[name, kind, f"{value:g}"] for name, kind, value in metrics.rows()]
    print(
        render_table(
            ["metric", "kind", "value"],
            rows,
            title=f"{args.arch} replay metrics ({args.jobs} jobs, seed {args.seed})",
        )
    )
    if args.out:
        path = write_metrics(metrics, args.out)
        print(f"\nmetrics dump written to {path}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from repro.profiler import profile_run, profile_trace_file, write_dashboard

    profiles = []
    if args.trace_in:
        profiles.append(profile_trace_file(args.trace_in))
        title = f"repro profile: {profiles[0].label}"
    else:
        arch_names = [args.arch]
        if args.ab:
            if args.ab == args.arch:
                print("error: --ab architecture equals --arch", file=sys.stderr)
                return 1
            arch_names.append(args.ab)
        for name in arch_names:
            tracer = Tracer()
            _replay_with_telemetry(name, args.jobs, args.seed, tracer, None)
            profiles.append(profile_run(tracer, label=name))
        title = (
            f"{' vs '.join(arch_names)} — FB-2009 replay, "
            f"{args.jobs} jobs, seed {args.seed}"
        )
    rows = [
        [
            p.label,
            len(p.jobs),
            p.jobs_failed,
            f"{p.horizon:.1f}",
            p.dominant_bucket,
            len(p.faults),
        ]
        for p in profiles
    ]
    print(
        render_table(
            ["run", "jobs", "failed", "horizon (s)", "dominant bucket", "faults"],
            rows,
            title="profile summary",
        )
    )
    path = write_dashboard(profiles, args.out, title=title)
    print(f"\ndashboard written to {path} (self-contained HTML)")
    if args.json:
        from pathlib import Path

        Path(args.json).write_text(
            json.dumps([p.to_summary() for p in profiles], indent=1)
        )
        print(f"summary JSON written to {args.json}")
    return 0


def _cmd_resilience(args: argparse.Namespace) -> int:
    from repro.analysis.resilience import render_resilience, resilience_experiment
    from repro.workload.fb2009 import DAY

    if args.faults:
        fault_plan = FaultPlan.load(args.faults)
    else:
        duration = DAY * args.jobs / 6000.0
        fault_plan = default_resilience_plan(duration, seed=args.fault_seed)
    if args.save_plan:
        path = fault_plan.save(args.save_plan)
        print(f"fault plan ({fault_plan.describe()}) written to {path}\n")
    runner = _make_runner(args.workers, args.no_cache)
    report = resilience_experiment(
        num_jobs=args.jobs,
        seed=args.seed,
        fault_plan=fault_plan,
        runner=runner,
    )
    print(render_resilience(report))
    _print_runner_stats(runner)
    return 0


def _cmd_elastic(args: argparse.Namespace) -> int:
    from repro.elastic import CHAOS_SCENARIOS, default_elastic_plan, run_chaos
    from repro.workload.fb2009 import DAY

    duration = DAY * args.jobs / 6000.0
    if args.save_plan:
        plan = default_elastic_plan(duration, seed=args.scale_seed)
        path = plan.save(args.save_plan)
        print(f"elastic plan ({plan.describe()}) written to {path}\n")
    names = (
        sorted(CHAOS_SCENARIOS)
        if args.scenario == "all"
        else [args.scenario]
    )
    rows = []
    failures = 0
    for name in names:
        report = run_chaos(
            name,
            num_jobs=args.jobs,
            seed=args.seed,
            scenario_seed=args.scale_seed,
            architecture=args.arch,
        )
        if not report.ok:
            failures += 1
        rows.append([
            report.scenario,
            report.completed,
            report.failed,
            f"{report.makespan:.1f}",
            report.elastic.get("nodes_joined", 0),
            report.elastic.get("nodes_decommissioned", 0),
            report.faults.get("nodes_crashed", 0),
            "PASS" if report.ok else "; ".join(report.violations[:3]),
        ])
    print(render_table(
        ["scenario", "completed", "failed", "makespan (s)",
         "joined", "decommissioned", "crashed", "invariants"],
        rows,
        title=(
            f"Chaos harness: {args.jobs}-job FB-2009 replay on {args.arch} "
            f"(scenario seed {args.scale_seed})"
        ),
    ))
    if failures:
        print(f"\n{failures} scenario(s) violated invariants")
        return 1
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.runner.store import migrate_json_tree, store_report

    root = Path(args.dir) if args.dir else default_cache_root()
    store = ResultCache(root)
    location = store.path
    if args.clear:
        removed = store.clear()
        print(f"cleared {removed} cached result(s) from {location}")
        return 0
    if args.action == "migrate":
        imported = migrate_json_tree(root, store)
        print(
            f"migrated {imported} entr{'y' if imported == 1 else 'ies'} "
            f"from {root} into {location} ({len(store)} total in the store)"
        )
        return 0
    if args.action == "vacuum":
        before, after = store.vacuum()
        print(
            f"vacuumed store at {location}: "
            f"{format_size(before)} -> {format_size(after)}"
        )
        return 0
    if args.action == "stats":
        report = store_report(store)
        print(f"store at {report['location']}: "
              f"{report['entries']} entries, "
              f"{format_size(report['total_bytes'])} on disk")
        rows = [[kind, count] for kind, count in report["by_kind"].items()]
        print(render_table(["kind", "entries"], rows))
        rows = [[status, count] for status, count in report["by_status"].items()]
        print(render_table(["status", "entries"], rows))
        rows = [
            [error_type, count]
            for error_type, count in report["holes_by_error_type"].items()
        ]
        if rows:
            print(render_table(["hole error type", "entries"], rows))
        return 0
    info = store.info()
    if not info.entries:
        print(f"cache at {location}: empty")
        return 0
    print(f"cache at {location}: {info.entries} entries, "
          f"{format_size(info.total_bytes)} on disk")
    rows = [[kind, count] for kind, count in sorted(info.by_kind.items())]
    print(render_table(["kind", "entries"], rows))
    rows = [[status, count] for status, count in sorted(info.by_status.items())]
    print(render_table(["status", "entries"], rows))
    holes = [
        [
            key[:12],
            payload.get("cell", "?") or "?",
            payload.get("error_type", "?"),
            payload.get("error", ""),
        ]
        for key, payload in store.holes()
    ]
    if holes:
        print()
        print(
            render_table(
                ["key", "cell", "error type", "why infeasible"],
                holes,
                title=f"infeasible holes ({len(holes)})",
            )
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.service import AdmissionPolicy, ReproService
    from repro.service import serve as bind_server
    from repro.telemetry.bus import MetricsBus

    policy = None
    if args.queue_cap is not None or args.total_cap is not None:
        policy = AdmissionPolicy(
            max_pending_per_member=args.queue_cap,
            max_total_pending=args.total_cap,
        )
    bus = MetricsBus(args.events) if args.events else MetricsBus()
    if args.checkpoint and Path(args.checkpoint).exists():
        service = ReproService.restore(args.checkpoint, policy=policy, bus=bus)
        print(
            f"restored {service.architecture} service from {args.checkpoint} "
            f"({len(service.results)} result(s) replayed, "
            f"{service.pending} pending)"
        )
    else:
        service = ReproService(
            args.arch,
            policy=policy,
            register=args.register,
            checkpoint_path=args.checkpoint,
            bus=bus,
        )
    server = bind_server(service, args.host, args.port, verbose=args.verbose)
    port = server.server_address[1]
    if args.port_file:
        Path(args.port_file).write_text(f"{port}\n")
    print(f"serving {service.architecture} deployment on {server.url}")
    print("endpoints: POST /jobs, GET /jobs/<id>, GET /metrics, "
          "GET /healthz, GET /events, GET /mission, POST /drain, "
          "POST /advance, POST /shutdown")
    if args.events:
        print(f"metrics frames appended to {args.events}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        path = service.checkpoint()
        if path:
            print(f"\ncheckpoint written to {path}")
    finally:
        server.server_close()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.core.api import JobSubmission
    from repro.service import ServiceClient
    from repro.workload.trace import Trace

    if not (args.file or args.trace or args.drain or args.shutdown):
        print("error: nothing to do (need --file, --trace, --drain "
              "or --shutdown)", file=sys.stderr)
        return 1
    client = ServiceClient(args.url)
    text = None
    if args.file:
        text = Path(args.file).read_text()
    elif args.trace:
        trace = Trace.load(args.trace)
        text = "".join(
            json.dumps(JobSubmission.from_tracejob(job).to_wire(),
                       sort_keys=True) + "\n"
            for job in trace.jobs
        )
    if text is not None:
        statuses = client.submit_ndjson(text)
        accepted = sum(1 for s in statuses if s.accepted)
        print(f"submitted {len(statuses)} job(s): {accepted} accepted, "
              f"{len(statuses) - accepted} rejected")
        for status in statuses:
            if not status.accepted:
                print(f"  rejected {status.job_id}: {status.reason}")
    if args.drain:
        summary = client.drain()
        print(
            f"drained: {summary['finished']}/{summary['accepted']} finished "
            f"({summary['failed']} failed) at clock "
            f"{format_duration(summary['clock'])}"
        )
    if args.shutdown:
        reply = client.shutdown()
        checkpoint = reply.get("checkpoint")
        print("service shut down"
              + (f" (checkpoint: {checkpoint})" if checkpoint else ""))
    return 0


def _cmd_mission(args: argparse.Namespace) -> int:
    import urllib.request

    from repro.mission import frames_from_text, read_frames, write_mission

    if bool(args.frames) == bool(args.url):
        print("error: need exactly one of --frames or --url",
              file=sys.stderr)
        return 1
    if args.frames:
        frames = read_frames(args.frames)
        source = args.frames
    else:
        events_url = args.url.rstrip("/") + "/events"
        try:
            with urllib.request.urlopen(events_url, timeout=30.0) as resp:
                text = resp.read().decode("utf-8")
        except OSError as exc:
            print(f"error: cannot fetch {events_url}: {exc}",
                  file=sys.stderr)
            return 1
        frames = frames_from_text(text)
        source = events_url
    path = write_mission(frames, args.out, refresh=args.refresh or None)
    print(f"mission dashboard ({len(frames)} frame(s) from {source}) "
          f"written to {path} (self-contained HTML)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybrid-hadoop",
        description="Hybrid scale-up/out Hadoop architecture (ICPP 2015) reproduction",
    )
    parser.add_argument(
        "--debug", action="store_true",
        help="show full tracebacks instead of one-line error diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="architectures, scheduler and calibration")

    run = sub.add_parser(
        "run", help="run one job on one architecture",
        parents=[_telemetry_options(faults=True), _calibration_options()],
    )
    run.add_argument("--app", default="wordcount", choices=sorted(APP_REGISTRY))
    run.add_argument("--size", default="8GB", help='input size, e.g. "32GB"')
    run.add_argument("--arch", default="Hybrid", choices=ARCH_CHOICES)

    sweep = sub.add_parser(
        "sweep", help="size sweep on the four architectures",
        parents=[_seed_options(0), _runner_options(alias_jobs=True)],
    )
    sweep.add_argument("--app", default="wordcount", choices=sorted(APP_REGISTRY))
    sweep.add_argument("--sizes", help='comma list, e.g. "1GB,4GB,16GB"')

    crosspoints = sub.add_parser(
        "crosspoints", help="Figs. 7/8 curves and cross points",
        parents=[_runner_options(alias_jobs=True)],
    )

    trace = sub.add_parser(
        "trace", help="generate the FB-2009 trace (Fig. 3)",
        parents=[_seed_options(2009)],
    )
    trace.add_argument("--jobs", type=int, default=6000)
    trace.add_argument("--out", help="write the trace JSON here")

    replay = sub.add_parser(
        "replay", help="Section V trace replay (Fig. 10)",
        parents=[
            _seed_options(2009),
            _telemetry_options(metrics_out=True, faults=True),
            _runner_options(),
        ],
    )
    replay.add_argument("--jobs", type=int, default=1000)

    resilience = sub.add_parser(
        "resilience",
        help="replay under a fault plan; compare architecture degradation",
        parents=[_seed_options(2009), _runner_options()],
    )
    resilience.add_argument("--jobs", type=int, default=300)
    resilience.add_argument("--fault-seed", type=int, default=0,
                            help="seed for the default fault plan's jitter")
    resilience.add_argument("--faults", metavar="FILE",
                            help="use this JSON fault plan instead of the "
                                 "built-in schedule")
    resilience.add_argument("--save-plan", metavar="FILE",
                            help="write the plan in effect to FILE (JSON)")

    elastic = sub.add_parser(
        "elastic",
        help="chaos harness: replay under membership churn; check "
             "invariants (docs/ELASTIC.md)",
        parents=[_seed_options(2009)],
    )
    elastic.add_argument("--jobs", type=int, default=120)
    elastic.add_argument("--scenario", default="all",
                         choices=("all", "flapping_node", "cascading_loss",
                                  "thundering_herd",
                                  "kill_during_decommission"),
                         help="churn scenario to run (default all)")
    elastic.add_argument("--arch", default="RHadoop", choices=ARCH_CHOICES)
    elastic.add_argument("--scale-seed", type=int, default=0,
                         help="seed for the scenario's jittered timestamps")
    elastic.add_argument("--save-plan", metavar="FILE",
                         help="also write the default elastic plan to "
                              "FILE (JSON; replay --faults FILE loads it)")

    trace_export = sub.add_parser(
        "trace-export",
        help="traced replay -> Chrome trace-event JSON (Perfetto)",
        parents=[_seed_options(2009)],
    )
    trace_export.add_argument("--jobs", type=int, default=200)
    trace_export.add_argument("--arch", default="Hybrid", choices=ARCH_CHOICES)
    trace_export.add_argument("--out", default="trace.json",
                              help="output trace file (default trace.json)")

    profile = sub.add_parser(
        "profile",
        help="critical-path & bottleneck dashboard for a traced replay",
        parents=[_seed_options(2009)],
    )
    profile.add_argument("--jobs", type=int, default=200)
    profile.add_argument("--arch", default="Hybrid", choices=ARCH_CHOICES)
    profile.add_argument("--ab", nargs="?", const="THadoop",
                         choices=ARCH_CHOICES, metavar="ARCH",
                         help="profile a second architecture side by side "
                              "(default THadoop)")
    profile.add_argument("--trace-in", metavar="FILE",
                         help="profile this exported Chrome trace instead "
                              "of running a replay")
    profile.add_argument("--out", default="profile.html",
                         help="dashboard output file (default profile.html)")
    profile.add_argument("--json", metavar="FILE",
                         help="also write compact profile summaries here")

    metrics = sub.add_parser(
        "metrics", help="replay with a metrics registry; print the flat dump",
        parents=[_seed_options(2009)],
    )
    metrics.add_argument("--jobs", type=int, default=200)
    metrics.add_argument("--arch", default="Hybrid", choices=ARCH_CHOICES)
    metrics.add_argument("--out", help="also write the dump as JSON here")

    figures = sub.add_parser(
        "figures", help="regenerate all figure data (txt + json) into a dir",
        parents=[_seed_options(2009), _runner_options()],
    )
    figures.add_argument("--out", default="figures_out")
    figures.add_argument("--jobs", type=int, default=6000)

    sub.add_parser(
        "verify", help="re-derive the paper's conclusions on the model"
    )

    advise = sub.add_parser(
        "advise", help="recommend a scale-up/out budget split for a workload",
        parents=[_seed_options(2009), _calibration_options()],
    )
    advise.add_argument("--budget", type=float, default=24.0,
                        help="budget in scale-out-node price units")
    advise.add_argument("--jobs", type=int, default=200)
    advise.add_argument("--objective", default="mean",
                        choices=("mean", "p50", "p99", "max", "makespan"))
    advise.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes for the candidate mixes "
                             "(default 1 = serial; advice is identical)")

    tune = sub.add_parser(
        "tune",
        help="online calibration + learned routing vs static Algorithm 1 "
             "(docs/TUNE.md)",
        parents=[_seed_options(0), _runner_options(), _calibration_options()],
    )
    tune.add_argument("--policies", default="static,recalibrated,bandit",
                      help="comma list of policies to evaluate "
                           "(default static,recalibrated,bandit)")
    tune.add_argument("--jobs-per-phase", type=int, metavar="N",
                      help="override the jobs in each workload phase")
    tune.add_argument("--publish-period", type=float, default=1800.0,
                      help="simulation seconds between calibration "
                           "publish points (default 1800)")
    tune.add_argument("--min-observations", type=int, default=8,
                      help="window size required before the first publish "
                           "(default 8)")
    tune.add_argument("--strategy", default="epsilon",
                      choices=("epsilon", "ucb"),
                      help="bandit exploration strategy (default epsilon)")
    tune.add_argument("--out", metavar="FILE",
                      help="also write the full report JSON here")

    timeline = sub.add_parser(
        "timeline", help="Gantt view of a small hybrid replay",
        parents=[_seed_options(2009)],
    )
    timeline.add_argument("--jobs", type=int, default=30)
    timeline.add_argument("--width", type=int, default=100)
    timeline.add_argument("--max-jobs", type=int, default=40)

    cache = sub.add_parser(
        "cache",
        help="inspect, migrate, vacuum or clear the on-disk result cache",
    )
    cache.add_argument("action", nargs="?", default="show",
                       choices=("show", "stats", "vacuum", "migrate"),
                       help="show the inventory (default), print compact "
                            "stats (holes by error type), compact the "
                            "store, or import a legacy ab/<key>.json tree "
                            "under the cache directory byte-identically")
    cache.add_argument("--dir", metavar="PATH",
                       help="cache directory (default: .repro-cache or "
                            "$REPRO_CACHE_DIR)")
    cache.add_argument("--clear", action="store_true",
                       help="delete every cached entry")

    serve = sub.add_parser(
        "serve",
        help="run the always-on deployment daemon (docs/SERVICE.md)",
    )
    serve.add_argument("--arch", default="Hybrid", choices=ARCH_CHOICES)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8008,
                       help="listen port (0 picks an ephemeral port; "
                            "see --port-file)")
    serve.add_argument("--port-file", metavar="FILE",
                       help="write the bound port here once listening "
                            "(for --port 0)")
    serve.add_argument("--checkpoint", metavar="FILE",
                       help="checkpoint path; restored on start when the "
                            "file already exists")
    serve.add_argument("--queue-cap", type=int, metavar="N",
                       help="max pending jobs per cluster member "
                            "(backpressure; default unbounded)")
    serve.add_argument("--total-cap", type=int, metavar="N",
                       help="max pending jobs service-wide "
                            "(backpressure; default unbounded)")
    serve.add_argument("--register", action="store_true",
                       help="model one-time dataset registration per job")
    serve.add_argument("--events", metavar="FILE",
                       help="also append metrics-bus frames here as NDJSON "
                            "(the in-memory bus always feeds GET /events "
                            "and GET /mission)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")

    submit = sub.add_parser(
        "submit", help="stream jobs to a running daemon; drain or stop it"
    )
    submit.add_argument("--url", default="http://127.0.0.1:8008",
                        help="base URL of the daemon "
                             "(default http://127.0.0.1:8008)")
    submit.add_argument("--file", metavar="FILE",
                        help="NDJSON job file to stream (one job per line)")
    submit.add_argument("--trace", metavar="FILE",
                        help="saved trace JSON (from `repro trace --out`) "
                             "to stream as NDJSON")
    submit.add_argument("--drain", action="store_true",
                        help="then run the simulation until all admitted "
                             "jobs finish")
    submit.add_argument("--shutdown", action="store_true",
                        help="then checkpoint and stop the daemon")

    mission = sub.add_parser(
        "mission",
        help="render the mission-control dashboard from a frames file "
             "or a running daemon (docs/MISSION.md)",
    )
    mission.add_argument("--frames", metavar="FILE",
                         help="NDJSON frames file "
                              "(from `repro serve --events FILE`)")
    mission.add_argument("--url", metavar="URL",
                         help="base URL of a running daemon "
                              "(fetches GET /events)")
    mission.add_argument("--out", default="mission.html",
                         help="dashboard output file (default mission.html)")
    mission.add_argument("--refresh", type=int, default=0, metavar="SECS",
                         help="embed a meta-refresh tag so a browser tab "
                              "re-pulls the file every SECS seconds "
                              "(default: render once, no refresh)")

    return parser


_COMMANDS = {
    "info": _cmd_info,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "crosspoints": _cmd_crosspoints,
    "trace": _cmd_trace,
    "replay": _cmd_replay,
    "resilience": _cmd_resilience,
    "elastic": _cmd_elastic,
    "timeline": _cmd_timeline,
    "advise": _cmd_advise,
    "tune": _cmd_tune,
    "verify": _cmd_verify,
    "figures": _cmd_figures,
    "trace-export": _cmd_trace_export,
    "profile": _cmd_profile,
    "metrics": _cmd_metrics,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "mission": _cmd_mission,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ReproError) as exc:
        # Expected failure modes (bad paths, malformed plans, infeasible
        # or invalid configurations) get a one-line diagnostic; the
        # traceback is opt-in via --debug.
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
