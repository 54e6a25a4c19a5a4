"""Command-line interface: run, sweep, campaign, record/replay under GSI.

Examples::

    python -m repro run uts --protocol denovo --nodes 100
    python -m repro run implicit_stash --mshr 256
    python -m repro run utsd --timeline 512 --energy
    python -m repro run uts --protocol gpu --set l2_banks=8 --set hop_latency=5
    python -m repro run uts --hierarchy shapes/shared_l3.json
    python -m repro run spmv --nodes 128 --warps 4
    python -m repro sweep my_sweep.json --jobs 4 --format json --cache .sim-cache
    python -m repro campaign --fast --jobs 4 --cache .sim-cache
    python -m repro campaign --workloads spmv,bfs --protocols denovo --out results/
    python -m repro campaign --spec my_campaign.json --format csv
    python -m repro trace record uts --nodes 100 -o uts.gsitrace
    python -m repro trace replay uts.gsitrace --verify
    python -m repro trace replay uts.gsitrace --mshr 8 --store-buffer 8
    python -m repro trace info uts.gsitrace
    python -m repro run streaming --telemetry run.jsonl --sample-every 2000
    python -m repro run uts --timeline run.trace.json
    python -m repro campaign --fast --telemetry tel/ --timeline cells.trace.json
    python -m repro campaign --workers 4 --cache .sim-cache
    python -m repro campaign --queue /shared/q --workers 2 --cache /shared/cache
    python -m repro worker --queue /shared/q
    python -m repro cache info .sim-cache
    python -m repro cache verify .sim-cache
    python -m repro cache prune .sim-cache
    python -m repro telemetry summarize run.jsonl
    python -m repro sweep my_sweep.json --db results.db
    python -m repro report build --out report/ --db results.db
    python -m repro report query "SELECT experiment, name, cycles FROM runs"
    python -m repro report diff docs/report report/
    python -m repro report manifest docs/report --check
    python -m repro list
    python -m repro table51

``--hierarchy`` takes a JSON/YAML memory-hierarchy spec (a ``levels`` list;
see the README's "Memory-hierarchy fabric" section), making the cache
topology -- shared L3s, private L2s, L1 bypass, cluster sharing -- a
first-class run/record/sweep axis.  ``--set FIELD=VALUE`` overrides any
``SystemConfig`` field on ``run``/``record``, exactly as it already did on
``trace replay``.

``campaign`` runs a whole workload-fleet x hierarchy x protocol cross
product through the cached parallel executor and prints the stall
attribution matrix; see the README's "Campaigns" section.  With a
``--cache`` (or ``--trace-dir``/``--plan``) it routes cells through the
replay-first planner -- each frontend-identity group records one
``.gsitrace`` and serves its memory-side sweep cells as fast trace
replays -- and with ``--workers N`` / ``--queue DIR`` it shards the
campaign over a filesystem-backed work queue that any number of ``repro
worker`` processes (local or on other machines) can drain; see the
README's "Distributed campaigns" section.

``report`` is the one-command results database + programmatic report:
``repro report build`` regenerates the scenario-backed experiments,
ingests every number into a SQLite database (``--db``), and renders the
versioned Markdown/LaTeX/JSON report with a SHA-256 manifest;
``query``/``diff``/``manifest`` inspect the database and byte-compare
report directories.  ``sweep``/``campaign --db FILE`` ingest their
results on completion.  See the README's "Results database" section and
``docs/ARTIFACTS.md``.

``--telemetry`` / ``--timeline`` attach the in-flight telemetry subsystem
(:mod:`repro.obs`): a sampled stat time-series (JSONL + CSV) and a Chrome
trace-event timeline viewable in Perfetto.  On ``run``, ``--timeline``
doubles as the classic windowed ASCII timeline when given an integer
bucket size, or a trace-file path otherwise.  Telemetry is provably
inert: results are byte-identical with it on or off (see the README's
"Observability" section).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.core.energy import estimate_energy
from repro.core.report import format_stacked_bars, format_stats_tree, format_table
from repro.core.timeline import render_timeline
from repro.sim.config import Protocol, SystemConfig
from repro.system import run_workload
from repro.workloads import make_workload


def _by_name(registry_name: str, **arg_map) -> Callable:
    """Build the registered workload, mapping CLI args to its kwargs.

    Classes come from the workload registry (:mod:`repro.workloads`), the
    single name->factory source also used by scenario specs; this map only
    owns the CLI-argument plumbing.
    """

    def make(args):
        kwargs = {
            kwarg: getattr(args, cli_attr) for kwarg, cli_attr in arg_map.items()
        }
        return make_workload(registry_name, **kwargs)

    # the exact kwargs the factory consumes -- trace provenance records
    # these, not the full CLI namespace (most workloads ignore --nodes)
    make.provenance = lambda args: {
        kwarg: getattr(args, cli_attr) for kwarg, cli_attr in arg_map.items()
    }
    return make


def _implicit(registry_name: str) -> Callable:
    def make(args):
        return make_workload(registry_name, warps_per_tb=args.warps or 8)

    make.provenance = lambda args: {"warps_per_tb": args.warps or 8}
    return make


WORKLOADS: dict[str, Callable] = {
    "uts": _by_name("uts", total_nodes="nodes", warps_per_tb="warps"),
    "utsd": _by_name("utsd", total_nodes="nodes", warps_per_tb="warps"),
    "implicit_scratchpad": _implicit("implicit_scratchpad"),
    "implicit_dma": _implicit("implicit_dma"),
    "implicit_stash": _implicit("implicit_stash"),
    "bfs": _by_name("bfs", num_vertices="nodes", warps_per_tb="warps"),
    "stencil": _by_name("stencil_scratchpad", warps_per_tb="warps"),
    "reduction": _by_name("reduction", warps_per_tb="warps"),
    "streaming": _by_name("streaming", warps_per_tb="warps"),
    "pointer_chase": _by_name("pointer_chase", warps_per_tb="warps"),
    # the campaign fleet (see repro.experiments.campaign)
    "spmv": _by_name("spmv", num_rows="nodes", warps_per_tb="warps"),
    "histogram": _by_name("histogram", warps_per_tb="warps"),
    "matmul_tiled": _by_name("matmul_tiled", warps_per_tb="warps"),
    "transpose": _by_name("transpose", warps_per_tb="warps"),
    "gups": _by_name("gups", warps_per_tb="warps"),
}


def _add_sim_options(parser: argparse.ArgumentParser) -> None:
    """Workload + configuration options shared by ``run`` and
    ``trace record`` (both build a workload and an execution config)."""
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--protocol", choices=["gpu", "denovo"], default="gpu")
    parser.add_argument("--sms", type=int, default=None, help="override SM count")
    parser.add_argument("--nodes", type=int, default=80, help="tree/graph size")
    parser.add_argument("--warps", type=int, default=2,
                        help="warps per thread block")
    parser.add_argument("--mshr", type=int, default=32)
    parser.add_argument("--store-buffer", type=int, default=None)
    parser.add_argument("--scheduler", choices=["lrr", "gto"], default="lrr")
    parser.add_argument("--core", choices=["auto", "python", "fast"],
                        default="auto",
                        help="engine core: the oracle SM tick or the "
                             "byte-identical flattened one ('auto' follows "
                             "REPRO_CORE; see README 'Engine cores')")
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--hierarchy", metavar="FILE", default=None,
                        help="memory-hierarchy spec: a JSON/YAML file with a "
                             "'levels' list (see README 'Memory-hierarchy "
                             "fabric')")
    parser.add_argument("--set", action="append", default=[], metavar="FIELD=VALUE",
                        dest="overrides",
                        help="override any SystemConfig field (repeatable)")


def _add_batch_telemetry_options(parser: argparse.ArgumentParser) -> None:
    """Telemetry/progress options shared by ``sweep`` and ``campaign``."""
    parser.add_argument("--telemetry", metavar="DIR", default=None,
                        help="write one telemetry series per executed cell "
                             "into DIR (<scenario-key>.jsonl + .csv, plus an "
                             "index.json name->key map)")
    parser.add_argument("--sample-every", type=int, default=5000, metavar="N",
                        help="per-cell telemetry sampling period in cycles "
                             "(default: 5000)")
    parser.add_argument("--timeline", metavar="OUT.trace.json", default=None,
                        help="write the cells' wall-clock schedule as a "
                             "Chrome trace-event timeline (open in Perfetto)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the live per-cell progress lines")


def _load_hierarchy(path: str) -> dict:
    """Read a hierarchy spec file (JSON always; YAML when PyYAML exists)."""
    from repro.experiments.spec import load_json_or_yaml

    return load_json_or_yaml(path)


def _config_from_args(args, timeline: "int | None" = None) -> SystemConfig:
    config = SystemConfig(
        protocol=Protocol.DENOVO if args.protocol == "denovo" else Protocol.GPU_COHERENCE,
        mshr_entries=args.mshr,
        store_buffer_entries=args.store_buffer or args.mshr,
        warp_scheduler=args.scheduler,
        timeline_window=timeline,
        seed=args.seed,
        core=getattr(args, "core", "auto"),
    )
    overrides = {}
    if args.sms is not None:
        overrides["num_sms"] = args.sms
    if getattr(args, "hierarchy", None) is not None:
        overrides["hierarchy"] = _load_hierarchy(args.hierarchy)
    for text in getattr(args, "overrides", []):
        field, value = _parse_override(text)
        overrides[field] = value
    if overrides:
        config = config.scaled(**overrides)
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="GSI: GPU Stall Inspector (ISPASS 2016 repro)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list bundled workloads")
    sub.add_parser("table51", help="print Table 5.1 (system parameters)")

    sweep = sub.add_parser(
        "sweep", help="run a user-defined scenario file (JSON/YAML)"
    )
    sweep.add_argument("file", help="scenario spec file; see README 'Custom sweeps'")
    sweep.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes (default: 1)")
    sweep.add_argument("--format", choices=["text", "json", "csv"], default="text",
                       dest="fmt")
    sweep.add_argument("--out", metavar="FILE", default=None,
                       help="also write the report to FILE")
    sweep.add_argument("--cache", metavar="DIR", default=None,
                       help="on-disk scenario result cache")
    sweep.add_argument("--db", metavar="FILE", default=None,
                       help="also ingest the results into this SQLite "
                            "results database (see 'repro report')")
    _add_batch_telemetry_options(sweep)

    campaign = sub.add_parser(
        "campaign",
        help="run a workload-fleet x hierarchy x protocol stall campaign",
    )
    campaign.add_argument("--spec", metavar="FILE", default=None,
                          help="campaign spec file (JSON/YAML); default: the "
                               "built-in fleet campaign")
    campaign.add_argument("--fast", action="store_true",
                          help="reduced workload sizes (CI-friendly)")
    campaign.add_argument("--workloads", metavar="A,B", default=None,
                          help="comma-separated workload subset")
    campaign.add_argument("--hierarchies", metavar="A,B", default=None,
                          help="comma-separated hierarchy subset")
    campaign.add_argument("--protocols", metavar="A,B", default=None,
                          help="comma-separated protocol subset")
    campaign.add_argument("--jobs", type=int, default=1, metavar="N",
                          help="worker processes (default: 1)")
    campaign.add_argument("--format", choices=["text", "json", "csv"],
                          default="text", dest="fmt")
    campaign.add_argument("--out", metavar="DIR", default=None,
                          help="write <name>.{txt,json,csv} into DIR")
    campaign.add_argument("--cache", metavar="DIR", default=None,
                          help="on-disk scenario result cache (a repeated "
                               "campaign is served entirely from it)")
    plan_group = campaign.add_mutually_exclusive_group()
    plan_group.add_argument("--plan", action="store_true", dest="plan",
                            default=None,
                            help="force the replay-first planner on: record "
                                 "one trace per frontend-identity group and "
                                 "serve memory-side sweep cells as replays "
                                 "(default: on whenever --cache, --trace-dir, "
                                 "--queue or --workers is given)")
    plan_group.add_argument("--no-plan", action="store_false", dest="plan",
                            help="force full execution for every cell")
    campaign.add_argument("--trace-dir", metavar="DIR", default=None,
                          help="where planner-recorded traces live (default: "
                               "<cache>/traces)")
    campaign.add_argument("--workers", type=int, default=0, metavar="N",
                          help="shard the campaign over N local worker "
                               "processes via a shared work queue (0 runs "
                               "in-process; with --queue and 0 workers this "
                               "command only coordinates and merges)")
    campaign.add_argument("--queue", metavar="DIR", default=None,
                          help="work-queue directory (shareable across "
                               "machines; default: <cache>/queue/<name>); "
                               "attach external workers with "
                               "'repro worker --queue DIR'")
    campaign.add_argument("--lease-expiry", type=float, default=300.0,
                          metavar="S",
                          help="reclaim a worker's claimed cell after its "
                               "lease heartbeat goes stale this long "
                               "(default: 300)")
    campaign.add_argument("--db", metavar="FILE", default=None,
                          help="also ingest the campaign matrix and cell "
                               "results into this SQLite results database "
                               "(see 'repro report')")
    _add_batch_telemetry_options(campaign)

    worker = sub.add_parser(
        "worker", help="drain a distributed campaign queue until it settles"
    )
    worker.add_argument("--queue", required=True, metavar="DIR",
                        help="queue directory created by "
                             "'repro campaign --workers/--queue'")
    worker.add_argument("--poll", type=float, default=0.2, metavar="S",
                        help="idle poll period while waiting for claimable "
                             "tasks (default: 0.2)")
    worker.add_argument("--lease-expiry", type=float, default=300.0, metavar="S",
                        help="reclaim other workers' stale leases after this "
                             "long (default: 300)")
    worker.add_argument("--max-tasks", type=int, default=None, metavar="N",
                        help="exit after claiming N tasks (default: run "
                             "until the campaign settles)")
    worker.add_argument("--id", default=None, dest="worker_id", metavar="NAME",
                        help="worker name recorded in completion markers "
                             "(default: pid-<pid>)")

    cache = sub.add_parser(
        "cache", help="inspect and maintain the content-addressed result cache"
    )
    csub = cache.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (
        ("info", "entry count, bytes, version histogram"),
        ("verify", "sweep every entry; quarantine corrupt ones to *.bad"),
        ("prune", "remove quarantined/stale entries and orphan tmp files"),
    ):
        sub_cache = csub.add_parser(name, help=help_text)
        sub_cache.add_argument("dir", help="cache directory (e.g. .sim-cache)")
        sub_cache.add_argument("--json", action="store_true", dest="as_json",
                               help="machine-readable output")
        if name == "prune":
            sub_cache.add_argument("--tmp-age", type=float, default=3600.0,
                                   metavar="S",
                                   help="only remove orphan *.tmp.* files "
                                        "older than this (default: 3600)")

    bench = sub.add_parser(
        "bench",
        help="re-measure the perf trajectory (BENCH_engine.json) in place",
    )
    bench.add_argument(
        "groups", nargs="*", metavar="GROUP",
        help="scenario groups to measure (default: all); see --list")
    bench.add_argument("--list", action="store_true", dest="list_groups",
                       help="list the scenario groups and exit")
    bench.add_argument("--key", action="append", default=[], metavar="SUBSTR",
                       dest="keys",
                       help="keep only rows whose scenario key or display "
                            "name contains SUBSTR (repeatable)")
    bench.add_argument("--core", choices=["auto", "python", "fast"],
                       default="auto",
                       help="engine core to measure under; rows land in the "
                            "matching artifact section ('auto' follows "
                            "REPRO_CORE)")
    bench.add_argument("--artifact", metavar="FILE",
                       default="benchmarks/artifacts/BENCH_engine.json",
                       help="committed trajectory to diff (and --update) "
                            "against")
    bench.add_argument("--update", action="store_true",
                       help="merge the fresh rows into the artifact")
    bench.add_argument("--rounds", type=int, default=1, metavar="N",
                       help="measure each group N times and keep, per "
                            "scenario, the round with the best cycles/sec "
                            "(the simulation is deterministic, so the "
                            "spread is pure host jitter; use 3+ before "
                            "--update so a transient stall never becomes "
                            "the committed baseline; default: 1)")
    bench.add_argument("--max-drift", type=float, default=2.0,
                       metavar="FACTOR", dest="max_drift",
                       help="with --update: refuse to write rows whose "
                            "cycles/sec deviates from the committed row by "
                            "more than FACTOR in either direction -- such "
                            "outliers are usually one-off host stalls, and "
                            "committing one corrupts the perf-gate "
                            "baseline (0 disables; default: 2.0)")
    bench.add_argument("--force", action="store_true",
                       help="with --update: write rows beyond --max-drift "
                            "anyway (a real engine change, not a stall)")

    run = sub.add_parser("run", help="run one workload and print the breakdown")
    _add_sim_options(run)
    run.add_argument("--timeline", default=None, metavar="CYCLES|OUT.trace.json",
                     help="an integer enables the windowed ASCII timeline "
                          "with that bucket size; anything else is a Chrome "
                          "trace-event output path (open in Perfetto / "
                          "chrome://tracing)")
    run.add_argument("--telemetry", metavar="OUT.jsonl", default=None,
                     help="sample the stats tree into a JSONL time-series "
                          "(+ sibling .csv); provably inert")
    run.add_argument("--sample-every", type=int, default=5000, metavar="N",
                     help="telemetry sampling period in cycles (default: 5000)")
    run.add_argument("--sample-stats", action="append", default=[], metavar="PAT",
                     help="extra fnmatch pattern over flattened stat paths to "
                          "sample (repeatable; adds to the default columns)")
    run.add_argument("--quiet", action="store_true",
                     help="suppress telemetry heartbeat lines on stderr")
    run.add_argument("--energy", action="store_true", help="print energy report")
    run.add_argument("--stats", action="store_true",
                     help="print the full component stats tree")
    run.add_argument("--per-sm", action="store_true", help="per-SM breakdowns")
    run.add_argument("--profile", metavar="OUT.pstats", default=None,
                     help="run under cProfile and write the stats file "
                          "(inspect with pstats or snakeviz; see "
                          "benchmarks/README.md)")
    run.add_argument("--profile-top", type=int, default=15, metavar="N",
                     help="with --profile: also print the top N functions "
                          "by internal time (default: 15)")

    trace = sub.add_parser(
        "trace", help="record a workload's memory trace / replay one"
    )
    tsub = trace.add_subparsers(dest="trace_command", required=True)

    record = tsub.add_parser(
        "record", help="run a workload execution-driven and capture its trace"
    )
    _add_sim_options(record)
    record.add_argument("-o", "--out", required=True, metavar="FILE",
                        help="trace output file (conventionally *.gsitrace)")

    replay = tsub.add_parser(
        "replay", help="re-inject a recorded trace into the memory hierarchy"
    )
    replay.add_argument("file", help="trace file written by 'trace record'")
    replay.add_argument("--mshr", type=int, default=None,
                        help="override MSHR entries for this replay")
    replay.add_argument("--store-buffer", type=int, default=None,
                        help="override store-buffer entries")
    replay.add_argument("--protocol", choices=["gpu", "denovo"], default=None,
                        help="override the coherence protocol")
    replay.add_argument("--set", action="append", default=[], metavar="FIELD=VALUE",
                        dest="overrides",
                        help="override any SystemConfig field (repeatable)")
    replay.add_argument("--verify", action="store_true",
                        help="check the replayed memory-side stats against "
                             "the stats recorded in the trace (requires an "
                             "unmodified configuration); exit 1 on mismatch")
    replay.add_argument("--stats", action="store_true",
                        help="print the full component stats tree")
    replay.add_argument("--per-sm", action="store_true", help="per-SM breakdowns")

    info = tsub.add_parser("info", help="print a trace file's provenance")
    info.add_argument("file")

    telemetry = sub.add_parser(
        "telemetry", help="inspect in-flight telemetry artifacts"
    )
    telsub = telemetry.add_subparsers(dest="telemetry_command", required=True)
    summarize = telsub.add_parser(
        "summarize", help="render a sampled stat time-series to text or CSV"
    )
    summarize.add_argument("file", help="JSONL series written by --telemetry")
    summarize.add_argument("--format", choices=["text", "csv"], default="text",
                           dest="fmt")
    summarize.add_argument("--columns", action="append", default=[],
                           metavar="PAT",
                           help="fnmatch filter over column names (repeatable)")

    report = sub.add_parser(
        "report",
        help="results database + one-command versioned report "
             "(see docs/ARTIFACTS.md)",
    )
    rsub = report.add_subparsers(dest="report_command", required=True)

    rbuild = rsub.add_parser(
        "build",
        help="regenerate the experiments, ingest every number into the "
             "results database, render the md/tex/json report + manifest",
    )
    rbuild.add_argument("--out", metavar="DIR", default="report",
                        help="report output directory (default: report/; "
                             "the committed golden lives in docs/report/)")
    rbuild.add_argument("--db", metavar="FILE", default="results.db",
                        help="SQLite results database to ingest into "
                             "(default: results.db)")
    rbuild.add_argument("--full", action="store_true",
                        help="full paper sizes (default: --fast sizes, the "
                             "configuration the committed report is built at)")
    rbuild.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the scenario executor")
    rbuild.add_argument("--cache", metavar="DIR", default=None,
                        help="on-disk scenario result cache (a rebuild is "
                             "served from it)")
    rbuild.add_argument("--experiments", nargs="+", default=None,
                        metavar="NAME",
                        help="restrict to these experiments (default: the "
                             "full report set)")

    rquery = rsub.add_parser(
        "query", help="run one read-only SQL query against a results database"
    )
    rquery.add_argument("sql", nargs="?", default=None,
                        help="SQL to run (tables: runs, breakdown, stats, "
                             "claims, campaign_cells, bench_rows, "
                             "telemetry_series, artifacts, ingests, ...)")
    rquery.add_argument("--db", metavar="FILE", default="results.db")
    rquery.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable output")
    rquery.add_argument("--tables", action="store_true",
                        help="print per-table row counts and exit")

    rdiff = rsub.add_parser(
        "diff", help="byte-compare two report directories by content hash"
    )
    rdiff.add_argument("dir_a", help="report directory (e.g. docs/report)")
    rdiff.add_argument("dir_b", help="report directory to compare against")

    rmanifest = rsub.add_parser(
        "manifest",
        help="print (or --check) a report directory's SHA-256 manifest",
    )
    rmanifest.add_argument("dir", help="report directory")
    rmanifest.add_argument("--check", action="store_true",
                           help="verify the directory against its committed "
                                "MANIFEST.sha256; exit 1 on any mismatch")
    return parser


def cmd_run(args) -> int:
    # --timeline is polymorphic: an integer keeps the classic windowed
    # ASCII timeline; anything else is a Chrome trace-event output path.
    timeline_window = None
    timeline_out = None
    if args.timeline is not None:
        if args.timeline.isdigit():
            timeline_window = int(args.timeline)
        else:
            timeline_out = args.timeline
    try:
        config = _config_from_args(args, timeline=timeline_window)
    except (OSError, TypeError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args)
    telemetry = None
    if args.telemetry or timeline_out:
        if args.sample_every < 1:
            print("error: --sample-every must be >= 1", file=sys.stderr)
            return 2
        from repro.obs import TelemetryConfig

        telemetry = TelemetryConfig(
            out=args.telemetry,
            sample_every=args.sample_every,
            stats_patterns=tuple(args.sample_stats),
            timeline_out=timeline_out,
            heartbeat=not args.quiet,
            label=args.workload,
        )
    if args.profile:
        # Profile exactly the simulation (workload build + run), not the
        # CLI's own reporting; the stats file is standard pstats.
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        result = profiler.runcall(run_workload, config, workload, telemetry)
        profiler.dump_stats(args.profile)
        if args.profile_top > 0:
            stats = pstats.Stats(profiler)
            stats.sort_stats("tottime")
            stats.print_stats(args.profile_top)
        print("profile written to %s" % args.profile)
    else:
        result = run_workload(config, workload, telemetry=telemetry)
    print(result.summary())
    print("execution: %d cycles, %d instructions, IPC %.3f" % (
        result.cycles, result.instructions, result.ipc))
    print()
    print(format_table({args.workload: result.breakdown}))
    print(format_stacked_bars({args.workload: result.breakdown}))
    if args.per_sm:
        named = {"sm%d" % i: bd for i, bd in enumerate(result.per_sm)}
        print(format_table(named, baseline="sm0", title="per-SM breakdown"))
    if timeline_window:
        print(render_timeline(result.timeline))
    if args.energy:
        print(estimate_energy(result).render())
    if args.stats:
        print(format_stats_tree(result.stats_tree))
    if args.telemetry:
        print("telemetry series: %s (summarize with 'repro telemetry "
              "summarize %s')" % (args.telemetry, args.telemetry),
              file=sys.stderr)
    if timeline_out:
        print("timeline trace: %s (open in https://ui.perfetto.dev or "
              "chrome://tracing)" % timeline_out, file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    import json

    from repro.core.report import to_csv
    from repro.experiments.executor import execute
    from repro.experiments.spec import load_scenarios

    try:
        scenarios = load_scenarios(args.file)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    progress, telemetry = _batch_telemetry(args)
    records = execute(scenarios, jobs=args.jobs, cache_dir=args.cache,
                      progress=progress, telemetry=telemetry,
                      results_db=args.db)
    if args.db:
        print("ingested %d record(s) into %s" % (len(records), args.db),
              file=sys.stderr)
    if args.timeline:
        _write_cells_timeline(args.timeline, records)
    breakdowns = {r.scenario.name: r.result.breakdown for r in records}
    if args.fmt == "json":
        report = json.dumps(
            {r.scenario.name: r.to_dict() for r in records}, indent=2, sort_keys=True
        )
    elif args.fmt == "csv":
        report = to_csv(breakdowns)
    else:
        cached = sum(1 for r in records if r.cached)
        # mention the cache only when it actually served something (and
        # keep 'cached' out of fully-fresh output)
        counts = (
            " (%d cached, %d executed)" % (cached, len(records) - cached)
            if cached else ""
        )
        lines = ["sweep: %d scenario(s) from %s%s"
                 % (len(records), args.file, counts)]
        for r in records:
            lines.append(
                "  %-40s %10d cycles  %s%s"
                % (
                    r.scenario.name,
                    r.result.cycles,
                    "cached" if r.cached else "%.2fs" % r.elapsed_s,
                    "" if r.ok else "  CHECK FAILED",
                )
            )
        lines.append("")
        lines.append(format_table(breakdowns))
        lines.append(format_stacked_bars(breakdowns))
        report = "\n".join(lines)
    print(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
    violations = [
        "%s: %s" % (r.scenario.name, "; ".join(r.violations))
        for r in records
        if not r.ok
    ]
    if violations:
        print("expected-shape violations:", file=sys.stderr)
        for line in violations:
            print("  " + line, file=sys.stderr)
        return 1
    return 0


def _batch_telemetry(args):
    """(progress, telemetry) pair for the sweep/campaign executors."""
    progress = None
    if not args.quiet:
        from repro.obs import cell_progress_printer

        progress = cell_progress_printer()
    telemetry = None
    if args.telemetry:
        telemetry = {
            "out_dir": args.telemetry,
            "sample_every": args.sample_every,
        }
    return progress, telemetry


def _write_cells_timeline(path: str, records) -> None:
    import json

    from repro.obs import cells_trace

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cells_trace(records), fh)
    print("cells timeline: %s (open in https://ui.perfetto.dev or "
          "chrome://tracing)" % path, file=sys.stderr)


def cmd_campaign(args) -> int:
    import json
    import os

    from repro.experiments.campaign import (
        default_campaign,
        load_campaign,
        run_campaign,
        write_artifacts,
    )

    if args.spec and args.fast:
        print("error: --fast scales the built-in fleet campaign only; size "
              "a --spec campaign in its file instead", file=sys.stderr)
        return 2
    distributed = args.workers > 0 or args.queue is not None
    plan = args.plan
    if plan is None:
        # Replay-first by default wherever the traces have a durable home;
        # a bare `repro campaign` (no cache, no queue) keeps executing
        # every cell so its results stay byte-identical to earlier builds.
        plan = distributed or args.cache is not None or args.trace_dir is not None
    if distributed and not plan:
        print("error: the distributed queue always runs the replay-first "
              "plan; drop --no-plan (or drop --workers/--queue)",
              file=sys.stderr)
        return 2
    try:
        spec = load_campaign(args.spec) if args.spec else default_campaign(args.fast)
        spec = spec.subset(
            workloads=args.workloads.split(",") if args.workloads else None,
            hierarchies=args.hierarchies.split(",") if args.hierarchies else None,
            protocols=args.protocols.split(",") if args.protocols else None,
        )
        progress, telemetry = _batch_telemetry(args)
        if distributed:
            from repro.experiments.dispatch import run_campaign_distributed

            queue_dir = args.queue
            if queue_dir is None:
                queue_dir = os.path.join(args.cache or ".sim-cache",
                                         "queue", spec.name)
            result = run_campaign_distributed(
                spec, workers=args.workers, queue_dir=queue_dir,
                cache_dir=args.cache, trace_dir=args.trace_dir,
                progress=progress, telemetry=telemetry,
                lease_expiry_s=args.lease_expiry,
            )
        else:
            result = run_campaign(spec, jobs=args.jobs, cache_dir=args.cache,
                                  progress=progress, telemetry=telemetry,
                                  plan=plan, trace_dir=args.trace_dir)
        if args.db:
            from repro.results.db import ResultsDB

            with ResultsDB(args.db) as db:
                db.ingest_campaign(result)
    except (OSError, ValueError, RuntimeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.db:
        print("ingested campaign %s into %s" % (result.spec.name, args.db),
              file=sys.stderr)
    if args.timeline:
        _write_cells_timeline(args.timeline, result.records)
    if args.fmt == "json":
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    elif args.fmt == "csv":
        print(result.to_csv(), end="")
    else:
        print(result.render())
    if args.out:
        try:
            for path in write_artifacts(result, args.out):
                print("wrote %s" % path, file=sys.stderr)
        except OSError as exc:
            print("error: cannot write artifacts: %s" % exc, file=sys.stderr)
            return 2
    violations = [r for r in result.records if not r.ok]
    return 1 if violations else 0


def _parse_override(text: str):
    """``field=value`` -> (field, value), with JSON-style value coercion."""
    import json

    if "=" not in text:
        raise ValueError("override %r is not of the form FIELD=VALUE" % text)
    field, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except ValueError:
        value = raw  # bare strings (e.g. protocol=denovo)
    return field.strip(), value


def cmd_bench(args) -> int:
    """Re-measure the engine perf trajectory and diff it against the
    committed ``BENCH_engine.json`` (see benchmarks/README.md)."""
    import os

    from repro import fastcore
    from repro.experiments import bench

    if args.list_groups:
        for name in bench.GROUPS:
            print(name)
        return 0
    groups = args.groups or list(bench.GROUPS)
    unknown = [g for g in groups if g not in bench.GROUPS]
    if unknown:
        print(
            "error: unknown group(s) %s (try: repro bench --list)"
            % ", ".join(unknown),
            file=sys.stderr,
        )
        return 2
    if args.rounds < 1:
        print("error: --rounds must be >= 1", file=sys.stderr)
        return 2
    if args.max_drift and args.max_drift < 1:
        print("error: --max-drift must be 0 (disabled) or >= 1",
              file=sys.stderr)
        return 2
    if args.core != "auto":
        # Core selection is normally import-time (REPRO_CORE); pin both
        # the module global (this process) and the environment (executor
        # worker processes inherit it) before any system is built.
        os.environ["REPRO_CORE"] = args.core
        fastcore.DEFAULT_CORE = args.core
    core = fastcore.DEFAULT_CORE
    section = "scenarios_fast" if core == "fast" else "scenarios"
    print(
        "bench: measuring %s under the %s core%s"
        % (
            ", ".join(groups),
            core,
            " (best of %d rounds)" % args.rounds if args.rounds > 1 else "",
        )
    )
    rows = bench.measure(groups, rounds=args.rounds)
    if args.keys:
        rows = [
            r
            for r in rows
            if any(k in r["key"] or k in r["scenario"] for k in args.keys)
        ]
        if not rows:
            print("error: no measured row matches --key filter(s)",
                  file=sys.stderr)
            return 2
    committed = {
        e.get("key", e.get("scenario")): e
        for e in bench.load_section(args.artifact, section)
    }
    print("%d row(s) measured (%s section):" % (len(rows), section))
    for r in sorted(rows, key=lambda e: (e["workload"], e["scenario"])):
        base = committed.get(r["key"])
        if base and base.get("cycles_per_sec"):
            delta = "%+6.1f%% vs committed %10.1f cyc/s" % (
                100.0 * (r["cycles_per_sec"] / base["cycles_per_sec"] - 1.0),
                base["cycles_per_sec"],
            )
        else:
            delta = "(new row)"
        print(
            "  %-45s %10.1f cyc/s  %s" % (r["scenario"], r["cycles_per_sec"], delta)
        )
    if args.update:
        # Drift guard: a fresh row far outside the committed value is far
        # more likely a transient host stall (or a mis-configured run)
        # than a real engine change, and writing it would corrupt the
        # perf-gate baseline -- a genuine future regression on that row
        # would then pass CI.  Refuse unless --force.
        drifted = []
        if args.max_drift:
            for r in rows:
                base = committed.get(r["key"])
                if not (base and base.get("cycles_per_sec")
                        and r.get("cycles_per_sec")):
                    continue
                ratio = r["cycles_per_sec"] / base["cycles_per_sec"]
                if not (1.0 / args.max_drift <= ratio <= args.max_drift):
                    drifted.append((r, base, ratio))
        if drifted and not args.force:
            print(
                "error: %d row(s) drift beyond %.1fx of the committed "
                "value; not updating %s"
                % (len(drifted), args.max_drift, args.artifact),
                file=sys.stderr,
            )
            for r, base, ratio in drifted:
                print(
                    "  %-45s %10.1f vs committed %10.1f cyc/s (%5.2fx)"
                    % (r["scenario"], r["cycles_per_sec"],
                       base["cycles_per_sec"], ratio),
                    file=sys.stderr,
                )
            print(
                "  transient stall? re-measure with --rounds 3; real "
                "engine change? re-run with --force",
                file=sys.stderr,
            )
            return 1
        bench.merge_rows(args.artifact, section, rows)
        print("updated %s section of %s" % (section, args.artifact))
    return 0


def cmd_trace(args) -> int:
    from repro.trace import (
        TraceFormatError,
        compare_memory_stats,
        compare_recorded_breakdown,
        load_trace,
        memory_side_stats,
        record_workload,
        replay_trace,
        save_trace,
    )

    if args.trace_command == "record":
        try:
            config = _config_from_args(args)
        except (OSError, TypeError, ValueError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        factory = WORKLOADS[args.workload]
        workload = factory(args)
        try:
            result, trace = record_workload(
                config,
                workload,
                name=args.workload,
                workload_args=factory.provenance(args),
            )
            sha = save_trace(trace, args.out)
        except (OSError, ValueError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        print(result.summary())
        print("execution: %d cycles, %d instructions, IPC %.3f" % (
            result.cycles, result.instructions, result.ipc))
        print("trace: %s (%d events, %d SM streams, sha256 %s...)"
              % (args.out, trace.num_events, trace.num_sms, sha[:12]))
        return 0

    try:
        trace = load_trace(args.file)
    except TraceFormatError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    if args.trace_command == "info":
        print("trace %s" % args.file)
        for label, value in trace.summary_rows():
            print("  %-22s %s" % (label, value))
        return 0

    # replay
    overrides = {}
    if args.mshr is not None:
        overrides["mshr_entries"] = args.mshr
    if args.store_buffer is not None:
        overrides["store_buffer_entries"] = args.store_buffer
    if args.protocol is not None:
        overrides["protocol"] = args.protocol
    for text in args.overrides:
        try:
            field, value = _parse_override(text)
        except ValueError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        overrides[field] = value
    if args.verify and overrides:
        print("error: --verify compares against the recorded configuration; "
              "drop the overrides", file=sys.stderr)
        return 2
    try:
        result = replay_trace(trace, overrides=overrides or None)
    except (ValueError, RuntimeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(result.summary())
    print("replay: %d cycles (recorded execution: %d)%s" % (
        result.cycles, trace.cycles,
        "  overrides: %s" % overrides if overrides else ""))
    print()
    print(format_table({result.workload: result.breakdown}))
    if args.per_sm:
        named = {"sm%d" % i: bd for i, bd in enumerate(result.per_sm)}
        print(format_table(named, baseline="sm0", title="per-SM breakdown"))
    if args.stats:
        print(format_stats_tree(result.stats_tree))
    if args.verify:
        mismatches = compare_memory_stats(
            trace.recorded_stats, memory_side_stats(result.stats)
        )
        mismatches += compare_recorded_breakdown(trace, result)
        if trace.cycles != result.cycles:
            mismatches.append(
                "cycles: recorded %d != replayed %d" % (trace.cycles, result.cycles)
            )
        if mismatches:
            print("verify FAILED: %d mismatch(es)" % len(mismatches), file=sys.stderr)
            for line in mismatches:
                print("  " + line, file=sys.stderr)
            return 1
        print("verify OK: replayed memory-side stats and stall attribution "
              "match the recording exactly")
    return 0


def cmd_worker(args) -> int:
    from repro.experiments.dispatch import QueueError, run_worker

    try:
        stats = run_worker(
            args.queue,
            poll_s=args.poll,
            lease_expiry_s=args.lease_expiry,
            max_tasks=args.max_tasks,
            worker_id=args.worker_id,
        )
    except QueueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("worker interrupted; claimed cells will be reclaimed after "
              "the lease expiry", file=sys.stderr)
        return 130
    print(
        "worker done: %(claimed)d claimed (%(executed)d executed, "
        "%(cached)d cache-served, %(failed)d failed), %(reclaimed)d stale "
        "lease(s) reclaimed" % stats
    )
    return 1 if stats["failed"] else 0


def cmd_cache(args) -> int:
    import json

    from repro.experiments.cachetool import (
        cache_info,
        cache_prune,
        cache_verify,
        format_info,
    )

    try:
        if args.cache_command == "info":
            data = cache_info(args.dir)
        elif args.cache_command == "verify":
            data = cache_verify(args.dir)
        else:
            data = cache_prune(args.dir, tmp_age_s=args.tmp_age)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(data, indent=2, sort_keys=True))
    elif args.cache_command == "info":
        print(format_info(data))
    elif args.cache_command == "verify":
        print("verified %d entr(ies): %d ok, %d quarantined, %d stale "
              "version, %d key mismatch, %d orphan tmp"
              % (data["checked"], data["ok"], len(data["quarantined"]),
                 len(data["stale_version"]), len(data["key_mismatch"]),
                 data["orphan_tmp"]))
        for name in data["quarantined"]:
            print("  quarantined %s -> %s.bad" % (name, name))
    else:
        print("pruned %d file(s), freed %.1f KiB (%d valid entries kept)"
              % (len(data["removed"]), data["freed_bytes"] / 1024.0,
                 data["kept_entries"]))
        for name in data["removed"]:
            print("  removed %s" % name)
    if args.cache_command == "verify":
        problems = (len(data["quarantined"]) + len(data["stale_version"])
                    + len(data["key_mismatch"]))
        return 1 if problems else 0
    return 0


def cmd_report(args) -> int:
    """The results-database surface: build/query/diff/manifest (see the
    README's "Results database" section and docs/ARTIFACTS.md)."""
    import json
    import os
    import sqlite3

    from repro.results import report_gen
    from repro.results.db import ResultsDB

    if args.report_command == "build":
        if args.jobs < 1:
            print("error: --jobs must be >= 1", file=sys.stderr)
            return 2
        try:
            with ResultsDB(args.db) as db:
                out = report_gen.build(
                    args.out, db,
                    fast=not args.full,
                    jobs=args.jobs,
                    cache_dir=args.cache,
                    experiments=args.experiments,
                )
        except (OSError, ValueError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        for path in out["files"] + [out["manifest"]]:
            print("wrote %s" % path)
        print("results database: %s (query with 'repro report query "
              "--db %s')" % (args.db, args.db), file=sys.stderr)
        return 0

    if args.report_command == "query":
        if not os.path.exists(args.db):
            print("error: no results database at %s (build one with "
                  "'repro report build' or sweep/campaign --db)" % args.db,
                  file=sys.stderr)
            return 2
        with ResultsDB(args.db) as db:
            if args.tables:
                summary = db.summary()
                if args.as_json:
                    print(json.dumps(summary, indent=2, sort_keys=True))
                else:
                    for table, count in summary.items():
                        print("%-20s %d" % (table, count))
                return 0
            if not args.sql:
                print("error: provide a SQL query or --tables",
                      file=sys.stderr)
                return 2
            try:
                columns, rows = db.query(args.sql)
            except sqlite3.Error as exc:
                print("error: %s" % exc, file=sys.stderr)
                return 2
        if args.as_json:
            print(json.dumps([dict(zip(columns, row)) for row in rows],
                             indent=2, sort_keys=True))
        else:
            if columns:
                print("\t".join(columns))
            for row in rows:
                print("\t".join(str(v) for v in row))
        return 0

    if args.report_command == "diff":
        problems = report_gen.diff_reports(args.dir_a, args.dir_b)
        if problems:
            print("reports differ (%d file(s)):" % len(problems))
            for line in problems:
                print("  " + line)
            return 1
        print("reports are byte-identical")
        return 0

    # manifest
    if args.check:
        problems = report_gen.check_manifest(args.dir)
        if problems:
            print("manifest check FAILED:", file=sys.stderr)
            for line in problems:
                print("  " + line, file=sys.stderr)
            return 1
        print("manifest OK: %s matches its %s"
              % (args.dir, report_gen.MANIFEST_NAME))
        return 0
    print("\n".join(report_gen.manifest_lines(args.dir)))
    return 0


def cmd_telemetry(args) -> int:
    from repro.obs import summarize_series

    try:
        print(summarize_series(args.file, fmt=args.fmt,
                               columns=args.columns or None), end="")
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in sorted(WORKLOADS):
            print(name)
        return 0
    if args.command == "table51":
        from repro.experiments.figures import table51

        print(table51())
        return 0
    if args.command == "sweep":
        return cmd_sweep(args)
    if args.command == "campaign":
        return cmd_campaign(args)
    if args.command == "worker":
        return cmd_worker(args)
    if args.command == "cache":
        return cmd_cache(args)
    if args.command == "bench":
        return cmd_bench(args)
    if args.command == "trace":
        return cmd_trace(args)
    if args.command == "telemetry":
        return cmd_telemetry(args)
    if args.command == "report":
        return cmd_report(args)
    return cmd_run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
