"""``--selftest``: the whole benchmark at toy sizes, and proof that it can fail.

Every workload runs untraced and traced through the same command the
contract uses, and each result line is checked against ``BENCHMARK.json``'s
name lists.  Then two defects are planted on purpose — an oracle answer that
is wrong, and a commit the benchmark believes was acknowledged but the
service never received — and the command must count failures and exit
non-zero for each.  A benchmark that cannot go red proves nothing when green.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from . import config

Case = Tuple[str, str, Optional[str]]  # workload, trace, plant

PLANTED: List[Case] = [
    ("adhoc_onesided", "0", "oracle"),
    ("materialize_fat", "0", "oracle"),
    ("serve_write_burst", "0", "dropped_write"),
]


def _run(case: Case) -> Tuple[Case, int, Optional[Dict[str, Any]]]:
    from .cli import ROOT, RUN_PY

    workload, trace, plant = case
    command = [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(config.DEFAULT_SEED),
               "--seconds", "1", "--trace", trace, "--sizes", "toy"]
    if plant:
        command += ["--plant", plant]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return case, done.returncode, result


def _problem(spec: Dict[str, Any], case: Case, code: int, result: Optional[Dict[str, Any]]) -> Optional[str]:
    _, trace, plant = case
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"no result object on the last line (exit code {code})"
    wanted = {metric["name"]: metric["unit"] for metric in spec["per_layer" if trace == "1" else "end_to_end"]}
    got = {name: metric.get("unit") for name, metric in result["metrics"].items()}
    if got != wanted:
        return f"metric names or units differ from BENCHMARK.json: {sorted(set(got) ^ set(wanted))}"
    if not all(isinstance(metric["value"], (int, float)) for metric in result["metrics"].values()):
        return "a metric value is not a number"
    if plant:
        if code == 0 or result["failed"] == 0 or result["correct"]:
            return f"planted {plant} went unnoticed (exit code {code}, failed {result['failed']})"
    elif code != 0 or result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
        return f"exit code {code}, failed {result['failed']} of {result['attempted']}"
    return None


def selftest() -> int:
    from .cli import load_spec

    spec = load_spec()
    started = time.perf_counter()
    cases: List[Case] = [(workload, trace, None) for workload in config.WORKLOADS for trace in ("0", "1")] + PLANTED
    with ThreadPoolExecutor(max_workers=config.READERS) as pool:
        outcomes = list(pool.map(_run, cases))
    problems = 0
    for case, code, result in outcomes:
        problem = _problem(spec, case, code, result)
        workload, trace, plant = case
        label = f"{workload} --trace {trace}" + (f" --plant {plant}" if plant else "")
        print(f"{'FAIL' if problem else 'ok  '} {label}" + (f": {problem}" if problem else ""))
        problems += problem is not None
    print(f"selftest: {len(cases) - problems}/{len(cases)} passed in {time.perf_counter() - started:.1f} s")
    return 1 if problems else 0
