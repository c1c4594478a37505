"""Command-line interface: ``python -m repro <experiment>``.

Examples
--------
Run one table at reduced scale::

    python -m repro table4 --fast

Run the full reproduction and write EXPERIMENTS.md content::

    python -m repro all --markdown --output EXPERIMENTS.md
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.experiments import (
    ablation,
    crawl_value,
    extras,
    p2p_convergence,
    figure7,
    table2,
    table3,
    table4,
    table5,
    table6,
    theorems,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.context import ExperimentContext
from repro.experiments.run_all import build_markdown_report, run_all

SINGLE_EXPERIMENTS = {
    "table2": table2.run,
    "table3": table3.run,
    "table4": table4.run,
    "table5": table5.run,
    "table6": table6.run,
    "figure7": figure7.run,
    "theorems": theorems.run,
    "ablation": ablation.run,
    "extras": extras.run,
    "crawl": crawl_value.run,
    "p2p": p2p_convergence.run,
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="approxrank",
        description=(
            "Reproduce the ApproxRank (ICDE 2009) evaluation: one "
            "subcommand per paper table/figure, plus 'all'."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(SINGLE_EXPERIMENTS)
        + [
            "all", "bench", "bench-diff",
            "obs-report", "semantic-search", "serve", "serve-cluster",
            "query",
        ],
        help=(
            "which experiment to run; 'bench NAME' runs one registered "
            "benchmark (kernels, backends, parallel, serve, updates, "
            "shard, semantic) and writes its BENCH_*.json record, "
            "'bench-diff' compares two "
            "benchmark records (regression report), 'obs-report' "
            "renders an observability snapshot written by --obs-out, "
            "'semantic-search' runs one query through the offline "
            "semantic pipeline (embed, select, rank, dedup), "
            "'serve' starts the online ranking HTTP server, "
            "'serve-cluster' a sharded fault-tolerant cluster behind "
            "one router, 'query' sends one request to a running server"
        ),
    )
    parser.add_argument(
        "snapshot", nargs="?", default=None, metavar="PATH",
        help=(
            "('obs-report') path of the obs.json snapshot to render "
            "(default: obs.json); ('bench') the benchmark name; "
            "('bench-diff') the OLD benchmark record"
        ),
    )
    parser.add_argument(
        "snapshot_new", nargs="?", default=None, metavar="NEW",
        help="('bench-diff' only) the NEW benchmark record",
    )
    parser.add_argument(
        "--float32", action="store_true",
        help=(
            "run solver iterations in float32 (reported scores stay "
            "float64); faster and half the memory, accurate within the "
            "documented error budget (see DESIGN.md)"
        ),
    )
    parser.add_argument(
        "--threshold", type=float, default=None,
        help=(
            "('bench-diff' only) relative noise threshold below which "
            "metric changes are suppressed (default 0.10)"
        ),
    )
    parser.add_argument(
        "--strict", action="store_true",
        help=(
            "('bench-diff' only) exit non-zero when the diff reports "
            "regressions or a lost gate (CI mode)"
        ),
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help=(
            "worker processes for the per-subgraph experiment loops "
            "(default: serial); scores are identical, only wall-clock "
            "changes"
        ),
    )
    parser.add_argument(
        "--au-pages", type=int, default=None,
        help="size of the AU-like dataset (default 50000)",
    )
    parser.add_argument(
        "--politics-pages", type=int, default=None,
        help="size of the politics-like dataset (default 60000)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="base RNG seed (default 2009)",
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="shrink everything for a quick smoke run",
    )
    parser.add_argument(
        "--markdown", action="store_true",
        help="emit GitHub markdown instead of aligned text",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help=(
            "('all' only) replay experiments already recorded in the "
            "checkpoint journal instead of recomputing them; the "
            "resumed report is byte-identical to an uninterrupted run"
        ),
    )
    parser.add_argument(
        "--checkpoint", type=str, default=None, metavar="PATH",
        help=(
            "('all' only) checkpoint journal path (default: "
            ".repro-checkpoint.jsonl); completed experiments are "
            "appended as they finish"
        ),
    )
    parser.add_argument(
        "--faults", type=str, default=None, metavar="SPEC",
        help=(
            "chaos-testing fault injection spec, e.g. "
            "'kill_worker:p=0.2,seed=7;transient:p=0.1' (equivalent to "
            "setting REPRO_FAULTS); faults fire only inside worker "
            "processes"
        ),
    )
    parser.add_argument(
        "--output", type=str, default=None,
        help=(
            "also write the report to this file; ('bench') the record "
            "path (default: the benchmark's BENCH_*.json)"
        ),
    )
    parser.add_argument(
        "--obs", action="store_true",
        help=(
            "enable full observability (span tracing + convergence "
            "telemetry; equivalent to REPRO_OBS=1); scores are "
            "bit-identical with or without it"
        ),
    )
    parser.add_argument(
        "--obs-out", type=str, default=None, metavar="PATH",
        help=(
            "write an observability snapshot (metrics + span tree + "
            "solve history) to this JSON file when the run finishes; "
            "implies --obs; render it with 'python -m repro obs-report "
            "PATH'"
        ),
    )
    serve_group = parser.add_argument_group(
        "serving ('serve' / 'query' only)"
    )
    serve_group.add_argument(
        "--host", type=str, default="127.0.0.1",
        help="bind/connect address (default 127.0.0.1)",
    )
    serve_group.add_argument(
        "--port", type=int, default=8309,
        help="server port (default 8309; 0 picks an ephemeral port)",
    )
    serve_group.add_argument(
        "--graph", type=str, default=None, metavar="NPZ",
        help=(
            "('serve' only) serve this npz graph (written by "
            "repro.graph.io.save_npz); default: a synthetic tiny web "
            "(--fast shrinks it)"
        ),
    )
    serve_group.add_argument(
        "--no-batching", action="store_true",
        help="('serve' only) disable micro-batching (debug/baseline)",
    )
    serve_group.add_argument(
        "--store-dir", type=str, default=None, metavar="DIR",
        help=(
            "('serve' only) warm-load persisted scores from this "
            "directory at boot and persist the store there on shutdown"
        ),
    )
    serve_group.add_argument(
        "--shards", type=int, default=2,
        help=(
            "('serve-cluster' only) number of shards fronted by the "
            "router (default 2)"
        ),
    )
    serve_group.add_argument(
        "--replicas", type=int, default=2,
        help=(
            "('serve-cluster' only) replicas per shard (default 2); "
            "failover needs at least 2"
        ),
    )
    serve_group.add_argument(
        "--placement", choices=["thread", "process"],
        default="thread",
        help=(
            "('serve-cluster' only) run each replica as an in-process "
            "background thread or a forked worker process (process "
            "placement gives genuine crash isolation)"
        ),
    )
    serve_group.add_argument(
        "--nodes", type=str, default=None, metavar="IDS",
        help=(
            "('query' only) comma-separated page ids of the subgraph "
            "to rank, e.g. --nodes 0,1,2,5"
        ),
    )
    serve_group.add_argument(
        "--terms", type=str, default=None, metavar="IDS",
        help=(
            "('query'/'semantic-search') comma-separated term ids; "
            "for 'query' with --nodes the request goes to /search, "
            "without --nodes to /semantic-search; for "
            "'semantic-search' they form the offline query (default: "
            "the three most popular terms)"
        ),
    )
    serve_group.add_argument(
        "--k", type=int, default=10,
        help=(
            "('query'/'semantic-search') answers to return from "
            "/search or the semantic pipeline"
        ),
    )
    serve_group.add_argument(
        "--damping", type=float, default=None,
        help="('query' only) damping factor override",
    )
    serve_group.add_argument(
        "--estimator", type=str, default=None, metavar="SPEC",
        help=(
            "('query'/'semantic-search') accuracy request: 'exact' "
            "or 'push[:r_max=<float>]', e.g. 'push:r_max=1e-4'; the "
            "exact solve answers it and the response carries its "
            "certified L1 error_bound (an r_max below that bound is "
            "refused); 'query' sends it as /rank?estimator="
        ),
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help=(
            "log the library's repro.* loggers (executor retries, "
            "fault injections) to stderr at INFO level"
        ),
    )
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Translate CLI flags into an ExperimentConfig."""
    config = ExperimentConfig()
    if args.fast:
        config = config.fast()
    overrides = {}
    if args.au_pages is not None:
        overrides["au_pages"] = args.au_pages
    if args.politics_pages is not None:
        overrides["politics_pages"] = args.politics_pages
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    return config


def _endpoint_list() -> str:
    from repro.serve.server import ROUTES

    return "  ".join(
        f"{route.method} {path}" for path, route in ROUTES.items()
    )


def _run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: boot the online ranking server."""
    import asyncio

    from repro.serve import BatchPolicy, RankingServer, RankingService

    if args.graph:
        from repro.graph.io import load_npz

        graph, __ = load_npz(args.graph)
        origin = args.graph
    else:
        from repro.generators.datasets import make_tiny_web

        pages = 600 if args.fast else 2000
        seed = args.seed if args.seed is not None else 2009
        graph = make_tiny_web(num_pages=pages, seed=seed).graph
        origin = f"synthetic tiny web ({pages} pages, seed {seed})"

    service = RankingService(
        graph,
        policy=BatchPolicy(enabled=not args.no_batching),
    )
    if args.store_dir:
        loaded = service.store.warm_load(args.store_dir, graph)
        print(
            f"[warm-loaded {loaded} score entries from "
            f"{args.store_dir}]",
            file=sys.stderr,
        )
    server = RankingServer(service, host=args.host, port=args.port)

    async def _serve() -> None:
        host, port = await server.start()
        print(
            f"serving {origin}: {graph.num_nodes} pages, "
            f"{graph.num_edges} edges on http://{host}:{port}",
            file=sys.stderr,
        )
        print(
            f"endpoints: {_endpoint_list()}  (Ctrl-C drains and exits)",
            file=sys.stderr,
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    if args.store_dir:
        written = service.store.persist(args.store_dir)
        print(
            f"[persisted {written} score entries to {args.store_dir}]",
            file=sys.stderr,
        )
    return 0


def _run_serve_cluster(args: argparse.Namespace) -> int:
    """The ``serve-cluster`` subcommand: shards + replicas + router."""
    import time

    from repro.serve.cluster import start_cluster

    if args.graph:
        from repro.graph.io import load_npz

        graph, __ = load_npz(args.graph)
        origin = args.graph
    else:
        from repro.generators.datasets import make_tiny_web

        pages = 600 if args.fast else 2000
        seed = args.seed if args.seed is not None else 2009
        graph = make_tiny_web(num_pages=pages, seed=seed).graph
        origin = f"synthetic tiny web ({pages} pages, seed {seed})"

    handle = start_cluster(
        graph,
        num_shards=args.shards,
        replicas_per_shard=args.replicas,
        placement=args.placement,
        manager_kwargs={"host": args.host},
        host=args.host,
        port=args.port,
    )
    try:
        host, port = handle.address
        print(
            f"cluster serving {origin}: {graph.num_nodes} pages, "
            f"{graph.num_edges} edges — {args.shards} shard(s) × "
            f"{args.replicas} replica(s), {args.placement} placement, "
            f"router on http://{host}:{port}",
            file=sys.stderr,
        )
        print(
            f"endpoints: {_endpoint_list()}  (Ctrl-C stops the fleet)",
            file=sys.stderr,
        )
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        handle.stop()
    return 0


def _run_query(args: argparse.Namespace) -> int:
    """One /rank, /search, or /semantic-search request."""
    import json

    from repro.exceptions import ServeRequestError
    from repro.serve.client import RankingClient

    if not args.nodes and not args.terms:
        print(
            "query requires --nodes (page ids) and/or --terms "
            "(term ids); --terms alone sends /semantic-search",
            file=sys.stderr,
        )
        return 2
    terms = (
        [int(x) for x in args.terms.split(",") if x.strip()]
        if args.terms
        else None
    )
    client = RankingClient(args.host, args.port)
    try:
        if args.nodes:
            nodes = [
                int(x) for x in args.nodes.split(",") if x.strip()
            ]
            if terms:
                payload = client.search(
                    nodes, terms, k=args.k, damping=args.damping,
                    estimator=args.estimator,
                )
            else:
                payload = client.rank(
                    nodes, damping=args.damping,
                    estimator=args.estimator,
                )
        else:
            payload = client.semantic_search(
                terms, k=args.k, damping=args.damping,
                estimator=args.estimator,
            )
    except ServeRequestError as exc:
        print(f"error (HTTP {exc.status}): {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(
            f"error: cannot reach http://{args.host}:{args.port} "
            f"({exc})",
            file=sys.stderr,
        )
        return 1
    print(json.dumps(payload, indent=2))
    return 0


def _run_semantic_search(args: argparse.Namespace) -> int:
    """One query through the offline semantic pipeline."""
    import json

    from repro.exceptions import ReproError
    from repro.search.lexicon import SyntheticLexicon
    from repro.semantic import SemanticPipeline

    seed = args.seed if args.seed is not None else 3
    if args.graph:
        from repro.graph.io import load_npz

        graph, __ = load_npz(args.graph)
        group_of = None
        origin = args.graph
    else:
        from repro.generators.datasets import make_tiny_web

        pages = 300 if args.fast else 600
        dataset = make_tiny_web(num_pages=pages, seed=seed)
        graph = dataset.graph
        group_of = dataset.labels["domain"]
        origin = f"synthetic tiny web ({pages} pages, seed {seed})"

    lexicon = SyntheticLexicon(graph, group_of=group_of, seed=seed)
    pipeline = SemanticPipeline(graph, lexicon, embedding_seed=seed)
    if args.terms:
        terms = [int(x) for x in args.terms.split(",") if x.strip()]
    else:
        terms = [int(t) for t in lexicon.popular_terms(3)]
    print(
        f"semantic search over {origin}: terms {terms}, "
        f"k={args.k}, estimator={args.estimator or 'exact'}",
        file=sys.stderr,
    )
    try:
        answer = pipeline.run(terms, k=args.k, estimator=args.estimator)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = {
        "terms": terms,
        "query_digest": answer.query_digest,
        "estimator": answer.estimator,
        "error_bound": answer.error_bound,
        "neighborhood_size": answer.neighborhood_size,
        "candidates_pruned": answer.candidates_pruned,
        "dedup_merges": answer.dedup_merges,
        "hits": [
            {
                "page": hit.page,
                "score": hit.score,
                "rank": hit.rank,
                "similarity": hit.similarity,
                "cluster_size": hit.cluster_size,
                "merged_score": hit.merged_score,
            }
            for hit in answer.hits
        ],
    }
    report = json.dumps(payload, indent=2)
    print(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        print(f"[written to {args.output}]", file=sys.stderr)
    return 0


def _run_bench(args: argparse.Namespace) -> int:
    """The ``bench NAME`` subcommand: one registered benchmark.

    ``--fast`` runs the smoke workload, whose gate sets the exit code;
    a full run records whatever it measures and exits 0.
    """
    from repro.perf.harness import (
        DEFAULT_SEED,
        REGISTRY,
        failing_clauses,
        load_bench,
        render_record,
        run_bench,
    )

    if args.snapshot not in REGISTRY:
        print(
            f"bench requires a benchmark name: python -m repro bench "
            f"{{{','.join(REGISTRY)}}} [--fast] [--seed S] [--output P]",
            file=sys.stderr,
        )
        return 2
    output = args.output or load_bench(args.snapshot).record
    record = run_bench(
        args.snapshot,
        smoke=args.fast,
        seed=args.seed if args.seed is not None else DEFAULT_SEED,
        output=output,
    )
    print(render_record(record))
    print(f"[record written to {output}]", file=sys.stderr)
    if args.fast and not record["gate_passed"]:
        print(
            "GATE FAILED: " + ", ".join(failing_clauses(record)),
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    from repro import obs

    if args.verbose:
        import logging

        obs.configure_logging(logging.INFO)
    if args.obs or args.obs_out:
        obs.enable()

    if args.float32:
        # Applies to every solve in this process: experiments, the
        # benches, and the serving tier all resolve through the
        # process default (same effect as REPRO_DTYPE=float32).
        from repro.pagerank.backends import set_default_backend

        set_default_backend("float32")

    if args.experiment == "bench-diff":
        from repro.perf.diff import (
            DEFAULT_THRESHOLD,
            SchemaMismatch,
            diff_records,
            format_diff,
            load_record,
        )

        if not args.snapshot or not args.snapshot_new:
            print(
                "bench-diff requires two record paths: "
                "python -m repro bench-diff OLD.json NEW.json",
                file=sys.stderr,
            )
            return 2
        try:
            report = diff_records(
                load_record(args.snapshot),
                load_record(args.snapshot_new),
                threshold=(
                    args.threshold
                    if args.threshold is not None
                    else DEFAULT_THRESHOLD
                ),
            )
        except SchemaMismatch as exc:
            print(f"bench-diff: {exc}", file=sys.stderr)
            return 2
        print(format_diff(report))
        if args.strict and (report["regressions"] or report["gate_lost"]):
            return 1
        return 0

    if args.experiment == "obs-report":
        snapshot = obs.load_snapshot(args.snapshot or "obs.json")
        report = obs.render_report(snapshot)
        print(report, end="")
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(report)
            print(f"[written to {args.output}]", file=sys.stderr)
        return 0

    if args.faults is not None:
        # Validate the spec up front (a typo should fail the CLI, not
        # a worker), then arm it for every pool this process builds.
        import os

        from repro.resilience.faults import parse_faults

        parse_faults(args.faults)
        os.environ["REPRO_FAULTS"] = args.faults

    if args.experiment == "bench":
        return _run_bench(args)

    if args.experiment == "semantic-search":
        return _run_semantic_search(args)

    if args.experiment == "serve":
        return _run_serve(args)

    if args.experiment == "serve-cluster":
        return _run_serve_cluster(args)

    if args.experiment == "query":
        return _run_query(args)

    context = ExperimentContext(
        config_from_args(args), workers=args.workers
    )

    if args.experiment == "all":
        from repro.experiments.run_all import DEFAULT_CHECKPOINT

        results = run_all(
            context,
            verbose=not args.markdown,
            checkpoint=args.checkpoint or DEFAULT_CHECKPOINT,
            resume=args.resume,
        )
        report = build_markdown_report(results, context)
        if args.markdown:
            print(report)
    else:
        result = SINGLE_EXPERIMENTS[args.experiment](context)
        report = (
            result.to_markdown() if args.markdown else result.render()
        )
        print(report)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        print(f"[written to {args.output}]", file=sys.stderr)

    if args.obs_out:
        obs.write_snapshot(args.obs_out)
        print(
            f"[observability snapshot written to {args.obs_out}; "
            f"render with: python -m repro obs-report {args.obs_out}]",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
