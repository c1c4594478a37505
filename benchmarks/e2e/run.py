"""End-to-end serving benchmark: the real server, five workloads.

Each run generates its inputs from ``--seed``, boots ``python -m repro
serve`` (or ``serve-cluster``) as a separate process three times to
time set-up, drives closed-loop load over two keep-alive connections
against the last boot through a warm-up and a measured window, and checks
sampled answers against the offline library.  See README.md for the
workloads, the metrics and how to compare two commits.

    python3 benchmarks/e2e/run.py                      # all workloads
    python3 benchmarks/e2e/run.py --workload rank-hot --seed 7
    python3 benchmarks/e2e/run.py --trace 1            # per-layer metrics
    python3 benchmarks/e2e/run.py --repeat 3 --out results/run.json
    python3 benchmarks/e2e/run.py --smoke              # 2 s per workload

The last line of standard output is a JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics named
in BENCHMARK.json, or its per-layer metrics with ``--trace 1``; keyed
by ``workload/seed`` when there is more than one run).  A verifier
violation exits 1; a server that fails to boot exits 2 without a result.
"""

from __future__ import annotations

import argparse
import asyncio
import compileall
import json
import os
import platform
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"run.py: no source tree at {SRC}; run it from a checkout "
             "of the repository")
# The benchmark runs the checkout's own source, never an installed copy.
sys.path.insert(0, str(SRC))

import metrics  # noqa: E402
from boot import BootError, ServerProcess  # noqa: E402
from loadgen import Connection, Load, Outcome, phase  # noqa: E402
from verify import Verifier  # noqa: E402
from workloads import WORKLOADS, Inputs, build  # noqa: E402

WORKDIR = ROOT / ".bench_build" / "e2e"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 2009
#: Every compared run measures the same window: run_seconds.
WINDOW_S = float(SPEC["run_seconds"])
#: The first second after priming serves up to 25% fewer requests on
#: rank-hot than the seconds after it; later seconds show no trend.
WARMUP_S = 2.0
#: Servers booted per run to time set-up (setup_s is their median); the
#: last one serves the load.
BOOTS = 3
SMOKE_WINDOW_S, SMOKE_WARMUP_S = 2.0, 0.5
DUMP_TIMEOUT_S = 10.0
CPU_WARNING = 0.8
_HEALTH = b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n"


@dataclass
class Segment:
    """One loaded server: its set-up time and the load it served."""

    setup_s: float
    backend: str | None
    load: Load
    outcomes: list[Outcome]
    #: VmRSS after set-up and priming, before the load starts.
    rss_mb: float
    #: VmHWM when the window closes.
    peak_rss_mb: float
    cpu_s: float
    dump: dict | None = None

    def phase(self, name: str) -> list[Outcome]:
        return [o for o in self.outcomes if phase(o, self.load) == name]


def _exchange(address, raws: list[bytes]) -> list[tuple[int, bytes]]:
    """Send requests one after another on a fresh connection."""

    async def go():
        connection = Connection(*address)
        try:
            return [await connection.send(raw) for raw in raws]
        finally:
            await connection.close()

    return asyncio.run(go())


def _backend(address) -> str | None:
    """The solver backend ``/healthz`` reports (a replica's, for a
    cluster router, which reports none of its own)."""
    health = json.loads(_exchange(address, [_HEALTH])[0][1])
    if "solver_backend" not in health and health.get("replicas"):
        replica = next(iter(health["replicas"].values()))["address"]
        health = json.loads(_exchange(tuple(replica), [_HEALTH])[0][1])
    backend = health.get("solver_backend")
    return json.dumps(backend, sort_keys=True) if backend else None


def _boot(
    inputs: Inputs, log: Path, trace_out: Path | None = None
) -> tuple[ServerProcess, tuple[str, int], float]:
    """Launch a server and time it until it has answered every probe:
    set-up includes lazy builds (lexicon, embeddings) the first request
    of each kind pays."""
    log.parent.mkdir(parents=True, exist_ok=True)
    server = ServerProcess(
        inputs.workload.command, inputs.graph_path, log, trace_out
    )
    try:
        address = server.address()
        replies = _exchange(address, [p.raw for p in inputs.probes])
        setup_s = time.perf_counter() - server.launched
        for status, body in replies:
            if status != 200:
                raise BootError(f"set-up probe failed: {body[:300]!r}")
    except BaseException:
        server.stop()
        raise
    return server, address, setup_s


def set_up(inputs: Inputs, log: Path) -> float:
    """One set-up time: boot, answer the probes, stop."""
    server, __, setup_s = _boot(inputs, log)
    server.stop()
    return setup_s


def measure(
    inputs: Inputs, window_s: float, warmup_s: float, traced: bool
) -> Segment:
    """Boot a server and load it for a warm-up and ``window_s``."""
    tag = f"{inputs.workload.name}-{'traced' if traced else 'plain'}"
    trace_out = WORKDIR / f"{tag}.trace.json" if traced else None
    if trace_out is not None and trace_out.exists():
        trace_out.unlink()
    server, address, setup_s = _boot(
        inputs, WORKDIR / f"{tag}.log", trace_out
    )
    try:
        backend = _backend(address)
        primed = _exchange(address, [p.raw for p in inputs.primer])
        if any(status != 200 for status, __ in primed):
            raise BootError("priming the hot pool failed")
        # Read before the load: at the window's opening it would count
        # the caches the warm-up filled, and how many requests a warm-up
        # serves follows the host's speed.
        edges = {"rss": server.memory_mb()[0]}

        def window_start():
            edges["cpu"] = time.process_time()
            if traced:
                server.signal(signal.SIGUSR1)

        def window_end():
            edges["cpu"] = time.process_time() - edges["cpu"]
            edges["peak"] = server.memory_mb()[1]
            if traced:
                server.signal(signal.SIGUSR2)

        load = Load(inputs, address, warmup_s, window_s,
                    window_start, window_end)
        outcomes = load.run()
        dump = None
        if traced:
            deadline = time.monotonic() + DUMP_TIMEOUT_S
            while not trace_out.exists():
                if time.monotonic() > deadline:
                    raise BootError("traced server wrote no counters")
                time.sleep(0.01)
            dump = json.loads(trace_out.read_text())
    finally:
        server.stop()
    return Segment(setup_s, backend, load, outcomes, edges["rss"],
                   edges["peak"], edges["cpu"], dump)


def _phases(segment: Segment, inputs: Inputs, boots: int) -> dict:
    """Requests sent, succeeded and failed in every phase of a run."""
    phases = {}
    for name, sent in (("setup", len(inputs.probes) * boots),
                       ("prime", len(inputs.primer))):
        # A failure in either phase aborts the run.
        phases[name] = {"sent": sent, "succeeded": sent, "failed": 0}
    for name in ("warmup", "window", "drain"):
        outcomes = segment.phase(name)
        ok = sum(o.ok for o in outcomes)
        phases[name] = {"sent": len(outcomes), "succeeded": ok,
                        "failed": len(outcomes) - ok}
    return phases


def _failures(outcomes: list[Outcome]) -> list[str]:
    """Every failed operation of a run (all phases), for the report."""
    return [
        f"{o.request.kind} HTTP {o.status or 'transport error'}: "
        f"{(o.body or b'').decode(errors='replace')[:200]}"
        for o in outcomes if not o.ok
    ]


def run_workload(
    name: str, seed: int, window_s: float, warmup_s: float, boots: int,
    trace: bool,
) -> dict:
    """One workload run: inputs, set-up boots, load, metrics, checks.

    ``boots - 1`` servers are booted only to time set-up and the last
    one also serves the load.  With ``trace`` the window is split in
    two halves: a plain server serves one and a traced server the
    other, so the overhead of the shims is measured on equal terms.
    """
    inputs = build(name, seed, WORKDIR)
    if trace:
        window_s /= 2
    setups = [set_up(inputs, WORKDIR / f"{name}-setup-{number}.log")
              for number in range(boots - 1)]
    plain = measure(inputs, window_s, warmup_s, traced=False)
    setups.append(plain.setup_s)
    traced = measure(inputs, window_s, warmup_s, traced=True) if trace else None
    verifier = Verifier(inputs)
    verifier.check(plain.outcomes + (traced.outcomes if traced else []))
    window = plain.phase("window")
    updates = [o for o in plain.outcomes if o.request.kind == "update"]
    record = {
        "workload": name,
        "seed": seed,
        "window_s": window_s,
        "warmup_s": warmup_s,
        "boots": boots,
        "metrics": metrics.end_to_end(window, updates, window_s, setups,
                                      plain.rss_mb),
        "server_peak_rss_mb": plain.peak_rss_mb,
        "setup_s_boots": setups,
        "latency_samples": int(metrics.read_latencies_ms(window).size),
        "phases": _phases(plain, inputs, boots),
        "attempted": len(window),
        "failed": sum(not o.ok for o in window),
        "failures": _failures(plain.outcomes),
        "loadgen_cpu_share": plain.cpu_s / window_s,
        "solver_backend": plain.backend,
        "verifier": verifier.summary(),
    }
    if traced is not None:
        traced_window = traced.phase("window")
        latencies = metrics.read_latencies_ms(traced_window)
        record["layers"] = metrics.per_layer(
            traced.dump,
            float(statistics.median(latencies.tolist())),
            latencies.size / window_s,
            record["metrics"]["throughput_rps"],
        )
        record["attempted"] = len(traced_window)
        record["failed"] = sum(not o.ok for o in traced_window)
        record["failures"] += _failures(traced.outcomes)
    return record


def _print_record(record: dict) -> None:
    print(
        f"[{record['workload']} seed={record['seed']}] "
        f"{record['window_s']:g} s window, {record['latency_samples']} "
        f"read samples, {record['boots']} boot(s), load generator CPU "
        f"{record['loadgen_cpu_share']:.0%}"
    )
    values = dict(record["metrics"], **record.get("layers", {}))
    for name, value in values.items():
        print(f"  {name:<40} {value:>14.6g} {metrics.DECLARED[name].unit}")
    if "layers" in record:
        for layers, moves, where in metrics.LAYER_MAP:
            if record["workload"] in where or where == "every workload":
                print(f"  map: {layers} -> {moves}")
    summary = record["verifier"]
    print(f"  verifier: {summary['checked']} answers checked, "
          f"{len(summary['violations'])} violation(s)")
    for violation in summary["violations"][:10]:
        print(f"    {violation}")
    for failure in record["failures"][:10]:
        print(f"  failed: {failure}")
    if record["loadgen_cpu_share"] >= CPU_WARNING:
        print(f"  WARNING: the load generator used "
              f"{record['loadgen_cpu_share']:.0%} of a core", file=sys.stderr)


def summarize(records: list[dict]) -> dict:
    """Median and quartiles per workload and metric; flag wide spreads."""
    summary: dict[str, dict] = {}
    for record in records:
        table = summary.setdefault(record["workload"], {})
        values = dict(record["metrics"], **record.get("layers", {}))
        for name, value in values.items():
            table.setdefault(name, []).append(value)
    for table in summary.values():
        for name, values in table.items():
            if len(values) > 1:
                q1, median, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = median = q3 = values[0]
            metric = metrics.DECLARED[name]
            spread = q3 - q1
            if not metric.absolute:
                spread = spread / median if median else 0.0
            table[name] = {
                "unit": metric.unit, "values": values, "median": median,
                "q1": q1, "q3": q3, "spread": spread, "bound": metric.bound,
                "absolute": metric.absolute,
                "flagged": metric.bound is not None and spread > metric.bound,
            }
    return summary


def environment(records: list[dict]) -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "solver_backend": sorted({
            r["solver_backend"] for r in records if r["solver_backend"]
        }),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--seconds", type=float, default=WINDOW_S,
                        help="the measured window, fixed by run_seconds in "
                             f"BENCHMARK.json: {WINDOW_S:g}")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_WINDOW_S:g} s windows and one boot: a "
                             "quick end-to-end check")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, with seeds seed..seed+N-1")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the full record (all runs) as JSON")
    args = parser.parse_args(argv)
    if args.seconds != WINDOW_S:
        parser.error(f"--seconds must be {WINDOW_S:g}, the run_seconds of "
                     "BENCHMARK.json: compared runs measure equal windows")

    window_s = SMOKE_WINDOW_S if args.smoke else WINDOW_S
    warmup_s = SMOKE_WARMUP_S if args.smoke else WARMUP_S
    # Servers import modules run.py does not; compile them before any
    # boot is timed, so no boot pays for writing bytecode.
    compileall.compile_dir(SRC, quiet=1)
    # A traced run reports per-layer metrics, not set-up: one boot each.
    boots = 1 if args.smoke or args.trace else BOOTS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for offset in range(args.repeat):
        for name in names:
            record = run_workload(name, args.seed + offset, window_s,
                                  warmup_s, boots, bool(args.trace))
            _print_record(record)
            records.append(record)
    summary = summarize(records)
    if args.repeat > 1:
        for workload, table in summary.items():
            print(f"[{workload}] median (q1-q3) over {args.repeat} runs")
            for name, row in table.items():
                flag = "  SPREAD EXCEEDS BOUND" if row["flagged"] else ""
                print(f"  {name:<40} {row['median']:>12.6g} "
                      f"({row['q1']:.6g}-{row['q3']:.6g}) {row['unit']}{flag}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "environment": environment(records),
            "settings": {"seed": args.seed, "repeat": args.repeat,
                         "window_s": window_s, "warmup_s": warmup_s,
                         "boots": boots, "trace": bool(args.trace)},
            "summary": summary,
            "runs": records,
        }, indent=1) + "\n")

    contract = SPEC["per_layer" if args.trace else "end_to_end"]

    def contract_metrics(record: dict) -> dict:
        values = dict(record["metrics"], **record.get("layers", {}))
        return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in contract}

    correct = not any(r["verifier"]["violations"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": (
            contract_metrics(records[0]) if len(records) == 1
            else {f"{r['workload']}/{r['seed']}": contract_metrics(r)
                  for r in records}
        ),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    # A SIGTERM unwinds through the finally blocks that stop every
    # server this process started.
    signal.signal(signal.SIGTERM, lambda *a: sys.exit(143))
    try:
        sys.exit(main())
    except BootError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        sys.exit(2)
