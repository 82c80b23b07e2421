"""One command: generate inputs, run, check, print every metric by name.

Three ways in, one code path:

* ``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
  — one workload, one pass; the last line of standard output is the JSON
  object ``BENCHMARK.json``'s contract asks for.
* ``PYTHONPATH=src python -m benchmarks.e2e [--workload W] [--seed N]
  [--trace] [--repeat K] [--out FILE]`` — without ``--workload`` every
  workload runs, untraced and (with ``--trace``) traced; ``--out`` keeps all
  values for :mod:`benchmarks.e2e.compare`.
* ``--selftest`` — toy sizes, planted failures (:mod:`selftest`).

The launcher never imports the library.  Every pass runs in a fresh child
process with ``PYTHONHASHSEED=0`` and every ``REPRO_*`` variable removed, so
set iteration order and engine flags are the same on every run; ``setup_s``
is the median over further fresh children, because only a fresh process has
cold plan and kernel caches.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from . import config
from .measure import percentile

ROOT = Path(__file__).resolve().parents[2]
RUN_PY = Path(__file__).resolve().with_name("run.py")
#: scratch (durable stores, span logs) stays inside the checkout, and in
#: ``.gitignore``
SCRATCH = ROOT / ".bench_e2e"


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=config.WORKLOADS, help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=config.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="length of the measured window (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", const="1", default="0", choices=("0", "1"),
                        help="traced pass: per-layer metrics, at a quarter of the op count")
    parser.add_argument("--repeat", type=int, default=1, help="all-workloads mode: passes per workload, seeds N, N+1, ...")
    parser.add_argument("--out", type=Path, help="all-workloads mode: write every value as JSON")
    parser.add_argument("--selftest", action="store_true", help="toy sizes plus planted failures, < 20 s")
    parser.add_argument("--sizes", choices=sorted(config.SIZES), default="full", help=argparse.SUPPRESS)
    parser.add_argument("--plant", choices=("oracle", "dropped_write"), help=argparse.SUPPRESS)
    parser.add_argument("--child", choices=("run", "setup"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# child: the only code that imports the library
# ----------------------------------------------------------------------
def child(args: argparse.Namespace) -> int:
    from . import layers, workloads
    from .api import Api

    api = Api()
    sizes = config.SIZES[args.sizes]
    if not args.workload.startswith("serve_") and hasattr(os, "sched_setaffinity"):
        # one client thread: keep it on one core (the highest-numbered, away
        # from where interrupts usually land) instead of letting it migrate
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.child == "setup":
            print(json.dumps({"setup_s": workloads.setup_once(api, args.workload, args.seed, sizes, scratch)}))
            return 0
        if args.trace == "1":
            run, metrics, log = layers.trace(api, args.workload, args.seed, args.seconds, sizes, scratch)
            log.write(SCRATCH / f"spans-{args.workload}.jsonl")
            self_times = {name: list(value) for name, value in sorted(log.self_times().items())}
        else:
            ops = sizes.closed_loop_ops(args.workload, args.seconds)
            if args.workload == "adhoc_onesided":
                run = workloads.run_adhoc(api, args.seed, ops, sizes, args.plant)
            elif args.workload in ("materialize_thin", "materialize_fat"):
                run = workloads.run_materialize(api, args.workload, args.seed, ops, sizes, args.plant)
            else:
                run = workloads.run_serve(api, args.workload, args.seed, args.seconds, sizes, scratch, plant=args.plant)
            metrics = workloads.end_to_end(args.workload, run)
            self_times = {}
        whole = workloads.whole_window(args.workload, run)
        print(json.dumps({
            "metrics": metrics,
            "attempted": run.tally.attempted,
            "failed": run.tally.failed,
            "notes": run.tally.notes + [f"probe gone: repro.{name} (its metrics read 0)" for name in api.missing],
            "samples": len(run.ops),
            "window_s": run.window_seconds,
            "whole_window": whole,
            "self_times": self_times,
        }))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# ----------------------------------------------------------------------
# launcher
# ----------------------------------------------------------------------
def spawn(args: argparse.Namespace, mode: str, workload: str, seed: int, trace: str) -> Dict[str, Any]:
    """Run one child to completion and return the JSON it printed last."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, str(RUN_PY), "--child", mode, "--workload", workload, "--seed", str(seed),
               "--seconds", repr(args.seconds), "--trace", trace, "--sizes", args.sizes]
    if args.plant:
        command += ["--plant", args.plant]
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} ({mode}) exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def one_pass(args: argparse.Namespace, spec: Dict[str, Any], workload: str, seed: int, trace: str) -> Dict[str, Any]:
    """One workload, one pass, as the contract's result object (plus notes)."""
    kind = "per_layer" if trace == "1" else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}
    result = spawn(args, "run", workload, seed, trace)
    values = dict(result["metrics"])
    if trace == "1":
        values["failed_share"] = result["failed"] / max(1, result["attempted"])
        # a layer this workload bypasses did no work: 0 calls, 0 seconds
        values = {name: values.get(name, 0.0) for name in units}
    else:
        probes = config.SIZES[args.sizes].setup_probes
        # the quartile on the undisturbed side, like the best-stretch metrics
        values["setup_s"] = percentile(
            [spawn(args, "setup", workload, seed, "0")["setup_s"] for _ in range(probes)], 0.25
        )
    if set(values) != set(units):
        raise RuntimeError(f"{workload}: metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json {kind}")
    result["metrics"] = {name: {"value": values[name], "unit": units[name]} for name in units}
    result["correct"] = result["failed"] == 0
    return result


def header(args: argparse.Namespace, seeds: Sequence[int]) -> Dict[str, Any]:
    sizes = config.SIZES[args.sizes]
    try:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True).stdout.strip()
    except OSError:
        commit = ""
    counts = {workload: sizes.closed_loop_ops(workload, args.seconds) for workload in config.WORKLOADS}
    return {
        "commit": commit or "unknown (not a git checkout)",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seeds": list(seeds),
        "seconds": args.seconds,
        "sizes": args.sizes,
        "op_counts": {**counts, "serve_read_mostly": f"{counts['serve_read_mostly']} paced commits; reads closed-loop"},
        "tail_percentile": config.TAIL,
        "configuration": (
            f"FlushPolicy() defaults, StorageConfig(fsync=True, snapshot_interval={config.SNAPSHOT_INTERVAL}), "
            f"readers={config.READERS}, cache_entries={sizes.cache_entries}, NullRegistry/NullTracer unless traced, "
            "PYTHONHASHSEED=0, no REPRO_* variables; one load-generating process: 2 client threads on serve_*, "
            "1 elsewhere (pinned to the highest-numbered CPU)"
        ),
        "caveat": "fsync, recovery and read latencies are this sandbox's (page cache, cheap fsync), not a device's",
    }


def check_inputs(args: argparse.Namespace) -> None:
    """Refuse to run on drifted generators (default seed, frozen sizes)."""
    if args.sizes != "full":
        return
    drifted = {
        name: value
        for name, value in config.input_digests(config.DEFAULT_SEED, config.FULL).items()
        if config.PINNED.get(name) != value
    }
    if drifted:
        raise RuntimeError(f"generated inputs drifted from the pinned digests: {drifted}")


def show(workload: str, seed: int, trace: str, result: Dict[str, Any]) -> None:
    kind = "per-layer (traced, quarter op count)" if trace == "1" else "end-to-end (untraced)"
    beyond = int((1 - config.TAIL[workload]) * result["samples"])
    print(f"\n== {workload}  seed {seed}  {kind}")
    whole = result["whole_window"]
    print(f"   window {result['window_s']:.2f} s, {result['samples']} primary ops; whole window, neighbours included: "
          f"{whole['ops_per_s']:.6g} ops/s, p50 {whole['op_p50_ms']:.6g} ms, "
          f"p{config.TAIL[workload] * 100:g} {whole['op_tail_ms']:.6g} ms ({beyond} samples beyond)")
    for name, metric in result["metrics"].items():
        print(f"   {name:<46} {metric['value']:>16.6g} {metric['unit']}")
    print(f"   attempted {result['attempted']}, failed {result['failed']}")
    for note in result["notes"]:
        print(f"   note: {note}")
    if result["self_times"]:
        total = sum(seconds for seconds, _ in result["self_times"].values())
        print("   self time by span (share of all spans recorded):")
        for name, (seconds, calls) in result["self_times"].items():
            print(f"     {name:<40} {seconds:>10.4f} s {seconds / total:>7.1%}  x{calls}")
    if trace == "1" and workload == "serve_write_burst":
        show_commit_shares(result["metrics"])


def show_commit_shares(metrics: Dict[str, Dict[str, Any]]) -> None:
    """Where one median commit goes: rows, WAL, and everything the service adds."""
    value = {name: metric["value"] for name, metric in metrics.items()}
    commit = value["service.commit_p50_ms"]
    if not commit:
        return
    queue = value["service.queue_overhead_ms"]
    wal = value["storage.append_mean_ms"]
    rows = commit - queue - wal
    print(f"   commit p50 {commit:.3f} ms = incremental.* rows {rows:.3f} ({rows / commit:.1%})"
          f" + storage.append (fsync inside) {wal:.3f} ({wal / commit:.1%})"
          f" + service.queue_overhead_ms {queue:.3f} ({queue / commit:.1%})")
    recovery = value["recovery_s"]
    if recovery:
        print(f"   recovery_s {recovery:.3f} = storage.recover_s {value['storage.recover_s']:.3f}"
              f" + incremental.materialize_s {value['incremental.materialize_s']:.3f}"
              f" + residual {recovery - value['storage.recover_s'] - value['incremental.materialize_s']:.3f}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.child:
        return child(args)
    if importlib.util.find_spec("repro") is None and not (ROOT / "src" / "repro").is_dir():
        print("error: the repro package is not importable (expected under src/ of this checkout, or on PYTHONPATH)",
              file=sys.stderr)
        return 2
    if args.selftest:
        from .selftest import selftest

        return selftest()
    if (os.cpu_count() or 1) < config.READERS:
        raise RuntimeError(f"{config.READERS} client threads need {config.READERS} cores; nproc is {os.cpu_count()}")
    check_inputs(args)

    if args.workload:
        # the contract's form: one pass, result object on the last line
        print(json.dumps(header(args, [args.seed]), indent=1))
        result = one_pass(args, spec, args.workload, args.seed, args.trace)
        show(args.workload, args.seed, args.trace, result)
        print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
        return 0 if result["correct"] else 1

    seeds = [args.seed + index for index in range(args.repeat)]
    report: Dict[str, Any] = {"header": header(args, seeds), "spec": spec, "results": {}}
    print(json.dumps(report["header"], indent=1))
    failed = 0
    for workload in config.WORKLOADS:
        kept: Dict[str, Dict[str, List[float]]] = {"end_to_end": {}, "per_layer": {}}
        for seed in seeds:
            for trace in ("0", "1") if args.trace == "1" else ("0",):
                result = one_pass(args, spec, workload, seed, trace)
                show(workload, seed, trace, result)
                failed += result["failed"]
                for name, metric in result["metrics"].items():
                    kept["per_layer" if trace == "1" else "end_to_end"].setdefault(name, []).append(metric["value"])
        report["results"][workload] = kept
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nfailed operations across all workloads: {failed}")
    return 0 if failed == 0 else 1
