"""Command-line interface.

Everything a user needs to poke the reproduction without writing code::

    repro workload                      # list the 25 templates
    repro sql 71                        # one SQL instance of template 71
    repro isolated 26                   # cold-cache isolated run
    repro mix 26 71                     # steady-state mix execution
    repro explain 26 71                 # who slows whom: blame matrix
    repro spoiler 22 --mpl 5            # worst-case latency at MPL 5
    repro train --out campaign.pkl      # collect the sampling campaign
    repro predict campaign.pkl 26 65    # known-template prediction
    repro predict-new campaign.pkl 71 26   # Fig. 5 pipeline (71 is new)
    repro pack campaign.pkl --out model.json   # registry artifact
    repro serve model.json --port 8181  # online prediction service
    repro load-test model.json          # p50/p99/QPS under load
    repro stats 127.0.0.1:8181          # live server counters/metrics
    repro lifecycle run --state-dir st  # drift -> retrain -> promote demo
    repro lifecycle status --state-dir st   # deployment state + ledger
    repro lifecycle promote cand.json --state-dir st  # forced promotion
    repro lifecycle rollback --state-dir st # swap the previous model back
    repro sched run --trace bursty --policy predictive  # one replay
    repro sched compare                 # 3 trace families x 3 policies
    repro eval run --seed 7 --json      # ranking-quality scenario matrix
    repro eval compare                  # qs vs knn on one ground truth
    repro experiment table2             # regenerate one table/figure
    repro report                        # the full EXPERIMENTS.md content

Installed as the ``repro`` console script; also runs as
``python -m repro``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core.contender import Contender, SpoilerMode
from .core.training import (
    TrainingData,
    collect_training_data,
    measure_spoiler_curve,
    measure_template_profile,
)
from .engine.spoiler import measure_spoiler_latency
from .errors import ReproError
from .sampling.steady_state import run_steady_state
from .sched.policies import POLICY_NAMES
from .sched.traces import TRACE_KINDS
from .units import fmt_bytes, fmt_duration
from .workload.catalog import TemplateCatalog
from .workload.sql import render_sql

#: Backend labels for the ``eval`` subcommand (mirrors
#: :data:`repro.eval.backends.BACKEND_NAMES`; kept literal so parser
#: construction stays import-light).
_EVAL_BACKENDS = ("qs", "knn")

#: Experiment-name aliases for the ``experiment`` subcommand.
EXPERIMENTS = {
    "fig1": "fig1_lhs",
    "fig2": "fig2_steady_state",
    "fig4": "fig4_coefficients",
    "fig6": "fig6_spoiler_growth",
    "fig7": "fig7_cqi_mpl4",
    "fig8": "fig8_known_unknown",
    "fig9": "fig9_spoiler_prediction",
    "fig10": "fig10_new_templates",
    "table2": "table2_cqi",
    "ext-operator": "ext_operator_model",
    "ext-growth": "ext_database_growth",
    "ext-distributed": "ext_distributed",
    "table3": "table3_features",
    "sec54": "sec54_sampling_cost",
    "prior-work": "baseline_prior_work",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Contender (EDBT 2014) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workload", help="describe the 25-template workload")

    p = sub.add_parser("sql", help="render one SQL instance of a template")
    p.add_argument("template", type=int)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("isolated", help="run a template alone (cold cache)")
    p.add_argument("template", type=int)

    p = sub.add_parser("mix", help="run a mix in steady state")
    p.add_argument("templates", type=int, nargs="+")
    p.add_argument("--samples", type=int, default=5)

    p = sub.add_parser(
        "explain",
        help="decompose each mix member's slowdown into per-co-runner, "
        "per-resource blame",
    )
    p.add_argument("templates", type=int, nargs="+")
    p.add_argument(
        "--samples",
        type=int,
        default=None,
        help="steady-state samples per stream (default: config)",
    )
    p.add_argument(
        "--top-k",
        type=int,
        default=None,
        dest="top_k",
        help="co-runners listed in the ranking summary (default: config)",
    )
    p.add_argument("--json", action="store_true", dest="as_json")

    p = sub.add_parser("spoiler", help="measure spoiler latency")
    p.add_argument("template", type=int)
    p.add_argument("--mpl", type=int, default=2)

    p = sub.add_parser("train", help="collect the sampling campaign")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--mpls", type=str, default="2,3,4,5")
    p.add_argument("--lhs-runs", type=int, default=4)
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (1 = in-process, 0 = all cores); "
        "results are identical for any value",
    )
    p.add_argument(
        "--seed", type=int, default=None, help="campaign seed override"
    )

    p = sub.add_parser("predict", help="predict a known template in a mix")
    p.add_argument("data", type=Path)
    p.add_argument("primary", type=int)
    p.add_argument("concurrent", type=int, nargs="+")

    p = sub.add_parser(
        "predict-new", help="predict a new template (Fig. 5 pipeline)"
    )
    p.add_argument("data", type=Path)
    p.add_argument("template", type=int)
    p.add_argument("concurrent", type=int, nargs="+")
    p.add_argument(
        "--spoiler",
        choices=[m.value for m in SpoilerMode],
        default=SpoilerMode.KNN.value,
    )

    p = sub.add_parser("diagnose", help="QS model diagnostics per template")
    p.add_argument("data", type=Path)
    p.add_argument("--mpl", type=int, default=2)

    p = sub.add_parser(
        "pack", help="pack a training campaign into a registry artifact"
    )
    p.add_argument("data", type=Path, help="campaign pickle from `repro train`")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--knn-k", type=int, default=3)

    p = sub.add_parser("serve", help="serve predictions from an artifact")
    p.add_argument("artifact", type=Path)
    p.add_argument("--host", type=str, default=None)
    p.add_argument("--port", type=int, default=None)
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="HTTP worker processes sharing the port (default: CPU "
        "count); 1 serves in-process, as does the fallback when fork "
        "is unavailable",
    )
    p.add_argument(
        "--batch-workers",
        type=int,
        default=None,
        help="batch-evaluation threads inside each worker",
    )
    p.add_argument("--cache-entries", type=int, default=None)
    p.add_argument("--cache-ttl", type=float, default=None)
    p.add_argument(
        "--verify",
        action="store_true",
        help="refit the stored coefficients on load and require agreement",
    )

    p = sub.add_parser(
        "load-test", help="drive a server (or artifact) and report p50/p99/QPS"
    )
    p.add_argument(
        "artifact",
        type=Path,
        nargs="?",
        default=None,
        help="artifact to serve in-process (omit when using --url)",
    )
    p.add_argument("--url", type=str, default=None, help="host:port of a running server")
    p.add_argument(
        "--connections",
        "--submitters",
        dest="connections",
        type=int,
        default=8,
        help="concurrent keep-alive connections per client process",
    )
    p.add_argument(
        "--processes",
        type=int,
        default=1,
        help="client processes to spread the connections across",
    )
    p.add_argument(
        "--batch",
        type=int,
        default=1,
        help="items per predict-batch round trip (1 = plain predict)",
    )
    p.add_argument("--requests", type=int, default=400)
    p.add_argument("--pool", type=int, default=16, help="distinct mixes in the workload")
    p.add_argument("--mpl", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "stats", help="operational stats of a running prediction server"
    )
    p.add_argument("url", type=str, help="host:port of a running server")
    p.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print the raw /v1/stats JSON document",
    )
    p.add_argument(
        "--prometheus",
        action="store_true",
        help="print the raw /metrics Prometheus exposition",
    )

    p = sub.add_parser(
        "lifecycle",
        help="model lifecycle: drift scenario, deployment status, "
        "promotion, rollback",
    )
    lsub = p.add_subparsers(dest="lifecycle_command", required=True)

    lp = lsub.add_parser(
        "run",
        help="run the growth scenario: drift detection, scoped retrain, "
        "gated promotion",
    )
    lp.add_argument(
        "--state-dir",
        type=Path,
        required=True,
        help="deployment state directory (artifacts + promotion ledger)",
    )
    lp.add_argument("--seed", type=int, default=20140324)
    lp.add_argument(
        "--scale-after",
        type=float,
        default=140.0,
        help="scale factor the database grows to mid-stream",
    )
    lp.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="campaign worker processes (0 = all cores)",
    )
    lp.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print the full scenario report as JSON",
    )

    lp = lsub.add_parser(
        "status", help="deployment state and promotion ledger"
    )
    lp.add_argument("--state-dir", type=Path, required=True)
    lp.add_argument("--json", action="store_true", dest="as_json")

    lp = lsub.add_parser(
        "promote",
        help="force-promote a candidate artifact (bypasses the shadow gate)",
    )
    lp.add_argument("candidate", type=Path, help="candidate artifact file")
    lp.add_argument("--state-dir", type=Path, required=True)

    lp = lsub.add_parser(
        "rollback", help="swap the previous artifact back into the slot"
    )
    lp.add_argument("--state-dir", type=Path, required=True)

    p = sub.add_parser(
        "sched", help="replay arrival traces under scheduling policies"
    )
    ssub = p.add_subparsers(dest="sched_command", required=True)

    def _sched_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--data",
            type=Path,
            default=None,
            help="campaign pickle from `repro train`; when omitted a "
            "small campaign is collected in-process",
        )
        sp.add_argument(
            "--templates",
            type=str,
            default=None,
            help="comma-separated template ids (default: the campaign's, "
            "or a diverse 7-template subset)",
        )
        sp.add_argument(
            "--rate",
            type=float,
            default=1.0 / 120.0,
            help="mean arrival rate, queries/second",
        )
        sp.add_argument("--count", type=int, default=30, help="arrivals")
        sp.add_argument("--seed", type=int, default=0, help="trace seed")
        sp.add_argument(
            "--max-mpl", type=int, default=3, help="execution slots"
        )
        sp.add_argument(
            "--sla-factor",
            type=float,
            default=2.5,
            help="admission SLA as a multiple of isolated latency",
        )
        sp.add_argument(
            "--window",
            type=int,
            default=8,
            help="predictive policy queue-search depth",
        )
        sp.add_argument("--json", action="store_true", help="JSON output")

    sp = ssub.add_parser("run", help="replay one trace under one policy")
    sp.add_argument("--trace", choices=list(TRACE_KINDS), default="poisson")
    sp.add_argument(
        "--policy", choices=list(POLICY_NAMES), default="predictive"
    )
    _sched_common(sp)

    sp = ssub.add_parser(
        "compare", help="replay trace families under every policy"
    )
    sp.add_argument(
        "--traces",
        type=str,
        default=",".join(TRACE_KINDS),
        help="comma-separated trace kinds",
    )
    sp.add_argument(
        "--policies",
        type=str,
        default=",".join(POLICY_NAMES),
        help="comma-separated policy names",
    )
    _sched_common(sp)

    p = sub.add_parser(
        "eval",
        help="ranking-quality evaluation over a scenario matrix "
        "(pairwise accuracy, Kendall tau, q-error)",
    )
    esub = p.add_subparsers(dest="eval_command", required=True)

    def _eval_common(ep: argparse.ArgumentParser) -> None:
        ep.add_argument(
            "--data",
            type=Path,
            default=None,
            help="campaign pickle from `repro train`; when omitted a "
            "small campaign is collected in-process",
        )
        ep.add_argument(
            "--templates",
            type=str,
            default=None,
            help="comma-separated template ids (default: the campaign's, "
            "or a diverse 7-template subset)",
        )
        ep.add_argument(
            "--seed",
            type=int,
            default=7,
            help="matrix + ground-truth seed; the whole report "
            "reproduces from it",
        )
        ep.add_argument(
            "--mpls",
            type=str,
            default="2,3",
            help="comma-separated MPLs the matrix sweeps",
        )
        ep.add_argument(
            "--sets", type=int, default=3, help="candidate sets per scenario"
        )
        ep.add_argument(
            "--window", type=int, default=4, help="candidates per set"
        )
        ep.add_argument(
            "--objective",
            choices=("makespan", "sum"),
            default="makespan",
            help="scheduler objective scored against ground truth",
        )
        ep.add_argument(
            "--jobs",
            type=int,
            default=None,
            help="ground-truth worker processes (1 = in-process, 0 = "
            "all cores); results are identical for any value",
        )
        ep.add_argument("--json", action="store_true", help="JSON output")

    ep = esub.add_parser(
        "run", help="score one predictor on the scenario matrix"
    )
    ep.add_argument(
        "--predictor",
        choices=list(_EVAL_BACKENDS),
        default="qs",
        help="prediction backend to score",
    )
    _eval_common(ep)

    ep = esub.add_parser(
        "compare", help="score several predictors on one ground truth"
    )
    ep.add_argument(
        "--predictors",
        type=str,
        default=",".join(_EVAL_BACKENDS),
        help="comma-separated backend names",
    )
    _eval_common(ep)

    p = sub.add_parser("experiment", help="run one experiment runner")
    p.add_argument("name", choices=sorted(EXPERIMENTS))
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="campaign worker processes (0 = all cores)",
    )

    p = sub.add_parser("report", help="regenerate the full report")
    p.add_argument("--skip-ml", action="store_true")
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="campaign worker processes (0 = all cores)",
    )

    return parser


def _cmd_workload(_: argparse.Namespace) -> int:
    catalog = TemplateCatalog()
    print(catalog.describe())
    return 0


def _cmd_sql(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed) if args.seed is not None else None
    print(render_sql(args.template, rng))
    return 0


def _cmd_isolated(args: argparse.Namespace) -> int:
    catalog = TemplateCatalog()
    profile = measure_template_profile(catalog, args.template)
    print(f"template          : {args.template}")
    print(f"isolated latency  : {fmt_duration(profile.isolated_latency)}")
    print(f"I/O fraction      : {profile.io_fraction:.1%}")
    print(f"working set       : {fmt_bytes(profile.working_set_bytes)}")
    print(f"records accessed  : {profile.records_accessed:,.0f}")
    print(f"plan steps        : {profile.plan_steps}")
    print(f"fact scans        : {', '.join(sorted(profile.fact_scans)) or '-'}")
    return 0


def _cmd_mix(args: argparse.Namespace) -> int:
    from .sampling.steady_state import SteadyStateConfig

    catalog = TemplateCatalog()
    cfg = SteadyStateConfig(samples_per_stream=args.samples)
    result = run_steady_state(catalog, tuple(args.templates), config=cfg)
    print(f"mix {result.mix} (steady state, {args.samples} samples/stream)")
    for template in sorted(set(result.mix)):
        latency = result.mean_latency(template)
        isolated = catalog.run_isolated(template).latency
        print(
            f"  T{template:<3} mean latency {fmt_duration(latency):>10}  "
            f"({latency / isolated:4.2f}x isolated)"
        )
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    import json as _json

    from .explain import explain_mix

    catalog = TemplateCatalog()
    report = explain_mix(
        catalog, tuple(args.templates), samples_per_stream=args.samples
    )
    if args.as_json:
        print(_json.dumps(report.to_doc(), indent=2, sort_keys=True))
        return 0
    top_k = (
        args.top_k if args.top_k is not None else catalog.config.explain.top_k
    )
    print(f"mix {report.mix} blame attribution (seconds; + delays, - speeds up)")
    print(report.format_table())
    print()
    for entry in report.templates:
        ranked = ", ".join(
            f"t{co} ({seconds:+.1f}s)"
            for co, seconds in entry.ranked()[:top_k]
        )
        print(f"  t{entry.template_id} top blamed: {ranked or '-'}")
    print(f"  conservation residual: {report.max_residual:.2e}")
    return 0


def _cmd_spoiler(args: argparse.Namespace) -> int:
    catalog = TemplateCatalog()
    stats = measure_spoiler_latency(
        catalog.profile(args.template), args.mpl, catalog.config
    )
    isolated = catalog.run_isolated(args.template).latency
    print(
        f"T{args.template} spoiler latency at MPL {args.mpl}: "
        f"{fmt_duration(stats.latency)} ({stats.latency / isolated:.2f}x isolated)"
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    mpls = tuple(int(m) for m in args.mpls.split(","))
    catalog = TemplateCatalog()
    print(f"collecting campaign for MPLs {mpls} (LHS runs: {args.lhs_runs})...")
    data = collect_training_data(
        catalog,
        mpls=mpls,
        lhs_runs_per_mpl=args.lhs_runs,
        seed=args.seed,
        jobs=args.jobs,
    )
    data.save(args.out)
    observations = sum(len(v) for v in data.observations.values())
    print(
        f"saved {args.out}: {len(data.profiles)} templates, "
        f"{observations} mix observations"
    )
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    data = TrainingData.load(args.data)
    contender = Contender(data)
    mix = (args.primary, *args.concurrent)
    latency = contender.predict_known(args.primary, mix)
    print(
        f"T{args.primary} in mix {mix}: predicted {fmt_duration(latency)} "
        f"(isolated {fmt_duration(data.profile(args.primary).isolated_latency)})"
    )
    return 0


def _cmd_predict_new(args: argparse.Namespace) -> int:
    data = TrainingData.load(args.data)
    if args.template in data.profiles:
        # Honour the 'new template' semantics even when the campaign
        # happens to contain it: scrub it from the training side.
        data = data.restricted_to(
            [t for t in data.template_ids if t != args.template]
        )
    contender = Contender(data)
    catalog = TemplateCatalog()
    profile = measure_template_profile(catalog, args.template)
    mode = SpoilerMode(args.spoiler)
    mix = (args.template, *args.concurrent)
    measured = None
    if mode is SpoilerMode.MEASURED:
        measured = measure_spoiler_curve(catalog, args.template, [len(mix)])
    latency = contender.predict_new(
        profile, mix, spoiler_mode=mode, measured_spoiler=measured
    )
    print(
        f"new T{args.template} in mix {mix}: predicted {fmt_duration(latency)} "
        f"(isolated {fmt_duration(profile.isolated_latency)}, "
        f"spoiler mode {mode.value})"
    )
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from .core.diagnostics import diagnose_workload

    data = TrainingData.load(args.data)
    contender = Contender(data)
    print(diagnose_workload(contender, mpl=args.mpl).format_table())
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    from .core.contender import ContenderOptions
    from .serving.registry import save_artifact

    data = TrainingData.load(args.data)
    contender = Contender(data, ContenderOptions(knn_k=args.knn_k))
    info = save_artifact(contender, args.out)
    print(
        f"packed {args.out}: {len(info.template_ids)} templates, "
        f"QS models at MPLs {list(info.qs_mpls)}, version {info.version}"
    )
    return 0


def _serving_config(args: argparse.Namespace):
    from dataclasses import replace

    from .config import DEFAULT_CONFIG

    overrides = {
        name: value
        for name, value in (
            ("host", getattr(args, "host", None)),
            ("port", getattr(args, "port", None)),
            ("worker_processes", getattr(args, "workers", None)),
            ("workers", getattr(args, "batch_workers", None)),
            ("cache_entries", getattr(args, "cache_entries", None)),
            ("cache_ttl", getattr(args, "cache_ttl", None)),
        )
        if value is not None
    }
    return replace(DEFAULT_CONFIG.serving, **overrides)


def _cmd_serve(args: argparse.Namespace) -> int:
    import os
    from dataclasses import replace

    from .serving.frontend import MultiWorkerServer, multiworker_supported
    from .serving.server import PredictionServer

    config = _serving_config(args)
    if args.workers is None:
        # Default the front end to one worker process per CPU.
        config = replace(config, worker_processes=os.cpu_count() or 1)

    if config.worker_processes > 1:
        supported, reason = multiworker_supported()
        if supported:
            server = MultiWorkerServer(
                args.artifact, config=config, verify=args.verify
            )
            server.start()
            print(
                f"serving {args.artifact} with "
                f"{server.worker_count} workers on "
                f"http://{server.host}:{server.port} — Ctrl-C to stop"
            )
            try:
                server.serve_forever()
            except KeyboardInterrupt:
                print("\nshutting down")
            finally:
                server.shutdown()
            return 0
        print(
            f"multi-worker serving unavailable ({reason}); "
            "falling back to the in-process server"
        )

    server = PredictionServer.from_artifact(
        args.artifact, config=config, verify=args.verify
    )
    version = server.registry.entry("default").version
    print(
        f"serving {args.artifact} ({version}) on "
        f"http://{server.host}:{server.port} — Ctrl-C to stop"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
        server.shutdown()
    return 0


def _cmd_load_test(args: argparse.Namespace) -> int:
    from .serving.client import LoadGenerator, PredictionClient, mix_pool_workload
    from .serving.server import PredictionServer

    if (args.artifact is None) == (args.url is None):
        print(
            "error: load-test needs an artifact path or --url, not both",
            file=sys.stderr,
        )
        return 2

    server = None
    if args.url is not None:
        host, _, port_text = args.url.rpartition(":")
        host = host or "127.0.0.1"
        try:
            port = int(port_text)
        except ValueError:
            print(f"error: malformed --url {args.url!r}", file=sys.stderr)
            return 2
    else:
        from dataclasses import replace

        from .config import DEFAULT_CONFIG

        server = PredictionServer.from_artifact(
            args.artifact, config=replace(DEFAULT_CONFIG.serving, port=0)
        ).start()
        host, port = server.host, server.port

    try:
        with PredictionClient(host, port) as probe:
            templates = list(probe.health().template_ids)
        workload = mix_pool_workload(
            templates,
            requests=args.requests,
            pool_size=args.pool,
            mpl=args.mpl,
            seed=args.seed,
        )
        report = LoadGenerator(
            host,
            port,
            submitters=args.connections,
            processes=args.processes,
            batch_size=args.batch,
        ).run(workload)
        print(report.format_table())
        with PredictionClient(host, port) as probe:
            stats = probe.stats()
        cache = stats["cache"]
        batching = stats["batching"]
        print(
            f"cache hit rate  {cache['hit_rate']:.1%} "
            f"({cache['hits']} hits / {cache['misses']} misses)"
        )
        print(
            f"coalesced       {batching['coalesced']} requests "
            f"across {batching['batches']} batches"
        )
    finally:
        if server is not None:
            server.shutdown()
    return 0


def _parse_url(url: str):
    host, _, port_text = url.rpartition(":")
    host = host or "127.0.0.1"
    try:
        return host, int(port_text)
    except ValueError:
        return None


def _cmd_stats(args: argparse.Namespace) -> int:
    import json as _json

    from .serving.client import PredictionClient

    parsed = _parse_url(args.url)
    if parsed is None:
        print(f"error: malformed url {args.url!r}", file=sys.stderr)
        return 2
    host, port = parsed
    with PredictionClient(host, port) as client:
        if args.prometheus:
            sys.stdout.write(client.metrics_text())
            return 0
        stats = client.stats()
        if args.as_json:
            print(_json.dumps(stats, indent=2, sort_keys=True))
            return 0
        cache = stats["cache"]
        batching = stats["batching"]
        rows = [
            ("model", f"{stats.get('model_name', 'default')} "
             f"({stats['model_version']}, generation {stats['model_generation']})"),
            ("uptime", fmt_duration(stats["uptime_seconds"])),
            ("requests", f"{stats['requests_served']}"),
        ]
        for op in sorted(stats["requests"]):
            rows.append((f"  {op}", f"{stats['requests'][op]}"))
        workers = stats.get("workers")
        if workers is not None:
            rows.append(
                ("workers", f"{workers['alive']}/{workers['count']} alive")
            )
            for w in workers.get("workers", []):
                age = w.get("heartbeat_age_seconds")
                rows.append(
                    (
                        f"  worker {w['index']}",
                        f"pid {w['pid']}, "
                        + ("alive" if w["alive"] else "stale")
                        + (
                            f" (heartbeat {age:.1f}s ago)"
                            if age is not None
                            else " (no heartbeat)"
                        )
                        + f", {w['requests']} requests, "
                        f"{w['predictions']} predictions",
                    )
                )
        rows.extend(
            [
                (
                    "cache",
                    f"{cache['hit_rate']:.1%} hit rate "
                    f"({cache['hits']} hits / {cache['misses']} misses, "
                    f"{cache['size']}/{cache['max_entries']} resident)",
                ),
                (
                    "batching",
                    f"{batching['coalesced']} coalesced across "
                    f"{batching['batches']} batches "
                    f"(largest {batching['largest_batch']})",
                ),
                (
                    "metrics",
                    "enabled (GET /metrics)"
                    if stats.get("metrics_enabled")
                    else "disabled",
                ),
            ]
        )
        lifecycle = stats.get("lifecycle")
        if lifecycle is not None:
            drifted = lifecycle.get("drifted", [])
            rows.append(
                (
                    "lifecycle",
                    f"{len(lifecycle.get('templates', []))} templates "
                    f"monitored, {len(drifted)} drifted"
                    + (f" ({', '.join(f'T{t}' for t in drifted)})"
                       if drifted else ""),
                )
            )
            for state in lifecycle.get("templates", []):
                verdict = state.get("last_verdict")
                verdict_text = "-"
                if verdict is not None:
                    verdict_text = (
                        f"{verdict['detector']} at sample "
                        f"{verdict['sample_ordinal']}"
                    )
                rows.append(
                    (
                        f"  T{state['template_id']}",
                        f"window {state['window_size']}, "
                        f"mean residual "
                        f"{state['window_mean_residual']:+.4f}, "
                        f"last verdict {verdict_text}",
                    )
                )
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"{label:<{width}}  {value}")
    return 0


def _cmd_lifecycle(args: argparse.Namespace) -> int:
    handler = {
        "run": _cmd_lifecycle_run,
        "status": _cmd_lifecycle_status,
        "promote": _cmd_lifecycle_promote,
        "rollback": _cmd_lifecycle_rollback,
    }[args.lifecycle_command]
    return handler(args)


def _cmd_lifecycle_run(args: argparse.Namespace) -> int:
    import json as _json

    from .lifecycle.manager import run_growth_scenario

    report = run_growth_scenario(
        args.state_dir,
        seed=args.seed,
        scale_after=args.scale_after,
        jobs=args.jobs,
    )
    if args.as_json:
        print(_json.dumps(report.to_doc(), indent=2, sort_keys=True))
        return 0 if report.recovered else 1
    print(
        f"growth scenario (seed {report.seed}): scale "
        f"{report.scale_before:g} -> {report.scale_after:g}, "
        f"templates {list(report.templates)}"
    )
    for phase in report.phases:
        print(
            f"  {phase.name:<9} MRE {phase.mre:.4f} "
            f"({phase.observations} observations)"
        )
    print(f"  verdicts  {len(report.verdicts)} drift verdicts")
    for verdict in report.verdicts:
        print(
            f"    T{verdict['template_id']} {verdict['detector']} "
            f"statistic {verdict['statistic']:.4f} "
            f"> {verdict['threshold']:.4f} at sample "
            f"{verdict['sample_ordinal']}"
        )
    if report.reaction is not None:
        shadow = report.reaction.get("shadow") or {}
        print(
            f"  shadow    candidate MRE {shadow.get('candidate_mre', 0):.4f} "
            f"vs incumbent {shadow.get('incumbent_mre', 0):.4f} "
            f"-> {report.reaction['action']}"
        )
    print(
        f"  model     {report.incumbent_fingerprint[:12]} -> "
        f"{(report.promoted_fingerprint or report.incumbent_fingerprint)[:12]}"
    )
    print(
        f"  recovered {report.recovered} "
        f"(final MRE vs threshold {report.recovery_mre:g})"
    )
    return 0 if report.recovered else 1


def _cmd_lifecycle_status(args: argparse.Namespace) -> int:
    import json as _json

    from .lifecycle.promotion import PromotionManager

    manager = PromotionManager(args.state_dir / "model.json")
    doc = manager.status_doc()
    if args.as_json:
        print(_json.dumps(doc, indent=2, sort_keys=True))
        return 0
    current = doc["current_fingerprint"]
    print(f"model     : {doc['model_name']}")
    print(f"artifact  : {doc['artifact_path']}")
    print(f"current   : {doc['current_version'] or '-'}")
    print(f"previous  : {(doc['previous_fingerprint'] or '-')[:12]}")
    print(f"ledger    : {len(doc['promotions'])} records")
    for record in doc["promotions"]:
        gate = record.get("gate")
        gate_text = ""
        if gate is not None:
            gate_text = (
                f"  (gate: candidate {gate['candidate_mre']:.4f} vs "
                f"incumbent {gate['incumbent_mre']:.4f})"
            )
        print(
            f"  #{record['ordinal']} {record['action']:<10} "
            f"{record['fingerprint'][:12]}{gate_text}"
        )
    root_cause = doc.get("root_cause")
    if root_cause:
        print("root cause (latest drift reaction):")
        for template_id, analysis in sorted(
            root_cause.get("templates", {}).items()
        ):
            if "error" in analysis:
                print(f"  t{template_id}: {analysis['error']}")
                continue
            ranked = ", ".join(
                f"t{entry['template_id']} ({entry['seconds']:+.1f}s)"
                for entry in analysis.get("top", [])
            )
            print(f"  t{template_id} blames: {ranked or '-'}")
    return 0 if current is not None else 1


def _cmd_lifecycle_promote(args: argparse.Namespace) -> int:
    from .lifecycle.promotion import PromotionManager
    from .serving.registry import load_artifact

    candidate = load_artifact(args.candidate)
    manager = PromotionManager(args.state_dir / "model.json")
    if manager.current_info() is None:
        info = manager.initialize(candidate.contender)
        print(f"initialized slot with {info.version}")
        return 0
    record = manager.promote(candidate.contender, gate=None)
    print(
        f"promoted {record.fingerprint[:12]} over "
        f"{(record.previous_fingerprint or '-')[:12]} "
        f"(ledger #{record.ordinal}, no gate — forced)"
    )
    return 0


def _cmd_lifecycle_rollback(args: argparse.Namespace) -> int:
    from .lifecycle.promotion import PromotionManager

    manager = PromotionManager(args.state_dir / "model.json")
    record = manager.rollback()
    print(
        f"rolled back to {record.fingerprint[:12]} "
        f"(displaced {(record.previous_fingerprint or '-')[:12]}, "
        f"ledger #{record.ordinal})"
    )
    return 0


#: Default template subset for self-contained sched replays: I/O-bound,
#: CPU-bound, memory-bound, random-I/O, and a shared-fact-table pair.
_SCHED_TEMPLATES = (22, 26, 32, 62, 65, 71, 82)


def _campaign_setup(args: argparse.Namespace, max_mpl: int):
    """Catalog, training data, and template ids for a sched/eval command.

    Loads the ``--data`` campaign pickle, or collects a small campaign
    over MPLs 2..*max_mpl* in-process.
    """
    from .sampling.steady_state import SteadyStateConfig

    data = TrainingData.load(args.data) if args.data is not None else None
    if args.templates:
        template_ids = tuple(int(t) for t in args.templates.split(","))
    elif data is not None:
        template_ids = tuple(sorted(data.template_ids))
    else:
        template_ids = _SCHED_TEMPLATES
    catalog = TemplateCatalog().subset(template_ids)
    if data is None:
        print(
            f"collecting in-process campaign over {len(template_ids)} "
            f"templates, MPLs 2-{max_mpl}...",
            file=sys.stderr,
        )
        data = collect_training_data(
            catalog,
            mpls=tuple(range(2, max_mpl + 1)),
            lhs_runs_per_mpl=2,
            steady_config=SteadyStateConfig(samples_per_stream=3),
        )
    return catalog, data, template_ids


def _sched_setup(args: argparse.Namespace):
    """Catalog, backend, and template ids for a sched subcommand."""
    from .apps.admission import ContenderBackend

    catalog, data, template_ids = _campaign_setup(args, args.max_mpl)
    return catalog, ContenderBackend(Contender(data)), template_ids


def _sched_policies(args: argparse.Namespace, names, backend):
    from .sched.policies import make_policy

    return [
        make_policy(
            name,
            backend,
            sla_factor=args.sla_factor,
            max_mpl=args.max_mpl,
            window=args.window,
        )
        for name in names
    ]


def _sched_trace(args: argparse.Namespace, kind: str, template_ids):
    from .sched.traces import TemplateDistribution, TraceConfig, generate_trace

    return generate_trace(
        TraceConfig(
            kind=kind,
            templates=TemplateDistribution.uniform(template_ids),
            rate=args.rate,
            count=args.count,
            seed=args.seed,
        )
    )


def _cmd_sched(args: argparse.Namespace) -> int:
    if args.sched_command == "run":
        return _cmd_sched_run(args)
    return _cmd_sched_compare(args)


def _cmd_sched_run(args: argparse.Namespace) -> int:
    import json as _json

    from .sched.replay import replay_trace

    catalog, backend, template_ids = _sched_setup(args)
    trace = _sched_trace(args, args.trace, template_ids)
    policy = _sched_policies(args, [args.policy], backend)[0]
    result = replay_trace(
        trace, policy, catalog, max_mpl=args.max_mpl, backend=backend
    )
    if args.json:
        print(_json.dumps(result.to_doc(), indent=2))
        return 0
    print(
        f"{args.trace} trace, {len(trace)} arrivals at "
        f"{trace.rate:.4f} q/s (seed {trace.seed}), "
        f"policy {policy.name}, {args.max_mpl} slots"
    )
    print(f"  makespan    : {fmt_duration(result.makespan)}")
    print(f"  p50 latency : {fmt_duration(result.p50)}")
    print(f"  p95 latency : {fmt_duration(result.p95)}")
    print(f"  p99 latency : {fmt_duration(result.p99)}")
    print(f"  mean wait   : {fmt_duration(result.mean_queue_seconds)}")
    print(f"  deferrals   : {result.deferrals} of {result.decisions} decisions")
    accuracy = result.pairwise_accuracy
    if accuracy is not None:
        print(f"  pair-acc    : {accuracy:.3f} (prediction rank quality)")
    return 0


def _cmd_sched_compare(args: argparse.Namespace) -> int:
    import json as _json

    from .sched.replay import compare_policies

    catalog, backend, template_ids = _sched_setup(args)
    kinds = [k.strip() for k in args.traces.split(",") if k.strip()]
    names = [n.strip() for n in args.policies.split(",") if n.strip()]
    policies = _sched_policies(args, names, backend)
    reports = []
    for kind in kinds:
        trace = _sched_trace(args, kind, template_ids)
        reports.append(
            compare_policies(
                trace,
                policies,
                catalog,
                max_mpl=args.max_mpl,
                backend=backend,
            )
        )
    if args.json:
        print(_json.dumps([r.to_doc() for r in reports], indent=2))
        return 0
    for report in reports:
        print(
            f"\n== {report.trace_kind} trace: {report.count} arrivals at "
            f"{report.rate:.4f} q/s, seed {report.seed} =="
        )
        print(report.format_table())
    return 0


def _eval_matrix_mpls(args: argparse.Namespace):
    mpls = tuple(sorted(int(m) for m in args.mpls.split(",")))
    if not mpls or min(mpls) < 2:
        raise ReproError("--mpls must list MPLs >= 2")
    return mpls


def _eval_run_matrix(args: argparse.Namespace, backend_names):
    from .eval import default_matrix, named_backends, run_matrix
    from .sampling.steady_state import SteadyStateConfig

    mpls = _eval_matrix_mpls(args)
    catalog, data, _ = _campaign_setup(args, max(mpls))
    backends = named_backends(data, backend_names)
    matrix = default_matrix(mpls=mpls, window=args.window, sets=args.sets)
    return run_matrix(
        catalog,
        backends,
        matrix=matrix,
        seed=args.seed,
        objective=args.objective,
        steady=SteadyStateConfig(samples_per_stream=3),
        jobs=args.jobs,
    )


def _print_eval_result(result, as_json: bool) -> int:
    import json as _json

    if as_json:
        print(_json.dumps(result.to_doc(), indent=2, sort_keys=True))
        return 0
    print(
        f"scenario matrix (seed {result.seed}, objective "
        f"{result.objective}): {result.mixes} ground-truth mixes, "
        f"{fmt_duration(result.sim_seconds)} simulated"
    )
    for report in result.reports:
        print(f"\n== backend {report.backend} ==")
        print(report.format_table())
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    if args.eval_command == "run":
        return _cmd_eval_run(args)
    return _cmd_eval_compare(args)


def _cmd_eval_run(args: argparse.Namespace) -> int:
    result = _eval_run_matrix(args, [args.predictor])
    return _print_eval_result(result, args.json)


def _cmd_eval_compare(args: argparse.Namespace) -> int:
    names = [n.strip() for n in args.predictors.split(",") if n.strip()]
    result = _eval_run_matrix(args, names)
    return _print_eval_result(result, args.json)


def _cmd_experiment(args: argparse.Namespace) -> int:
    import importlib

    from .experiments.harness import ExperimentContext

    module = importlib.import_module(
        f".experiments.{EXPERIMENTS[args.name]}", package=__package__
    )
    ctx = ExperimentContext(cache_dir=Path("benchmarks/.cache"), jobs=args.jobs)
    result = module.run(ctx)
    print(result.format_table())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.harness import ExperimentContext
    from .experiments.report import generate

    ctx = ExperimentContext(cache_dir=Path("benchmarks/.cache"), jobs=args.jobs)
    sys.stdout.write(generate(ctx, include_ml=not args.skip_ml))
    return 0


_HANDLERS = {
    "workload": _cmd_workload,
    "sql": _cmd_sql,
    "isolated": _cmd_isolated,
    "mix": _cmd_mix,
    "explain": _cmd_explain,
    "spoiler": _cmd_spoiler,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "predict-new": _cmd_predict_new,
    "diagnose": _cmd_diagnose,
    "pack": _cmd_pack,
    "serve": _cmd_serve,
    "load-test": _cmd_load_test,
    "stats": _cmd_stats,
    "lifecycle": _cmd_lifecycle,
    "sched": _cmd_sched,
    "eval": _cmd_eval,
    "experiment": _cmd_experiment,
    "report": _cmd_report,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output was piped into a consumer that closed early (head, less).
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
