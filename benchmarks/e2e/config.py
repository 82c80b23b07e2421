"""What is frozen: sizes, op counts, the service configuration, input digests.

Nothing here may change together with a change that claims a gain; a
different size or rate is a different benchmark, and its baseline is
measured again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from . import inputs

WORKLOADS = ("adhoc_onesided", "materialize_thin", "materialize_fat", "serve_read_mostly", "serve_write_burst")
DEFAULT_SEED = 11

#: ``DatalogService(..., readers=READERS)``; also the benchmark's client
#: thread count, which must not exceed ``nproc``
READERS = 2
#: ``StorageConfig(fsync=True, snapshot_interval=SNAPSHOT_INTERVAL)``
SNAPSHOT_INTERVAL = 64
#: the tail reported per workload (ungated): the highest percentile that
#: still leaves at least ten samples beyond it at the frozen op counts
TAIL = {
    "adhoc_onesided": 0.99,
    "materialize_thin": 0.90,
    "materialize_fat": 0.90,
    "serve_read_mostly": 0.99,
    "serve_write_burst": 0.80,
}

#: ops per stretch for the best-stretch statistics (``workloads.end_to_end``):
#: the smallest run of consecutive ops that always holds the same mix of work
#: — two blocks of the ad-hoc stream, two evaluations, one delete-an-interior-
#: edge commit plus the commit that puts it back.  ``serve_read_mostly`` cuts
#: by time instead: one paced-commit period, so every stretch has one cache flush.
STRETCH = {"adhoc_onesided": 16, "materialize_thin": 2, "materialize_fat": 2, "serve_write_burst": 2}

#: untimed ops before the measured window, so lazy index builds, plan
#: compilation and kernel generation are paid before timing starts (users
#: pay them once per process, and ``setup_s`` reports them)
WARMUP = {"adhoc_onesided": 64, "materialize_thin": 2, "materialize_fat": 2, "reads": 2000, "commits": 4}


@dataclass(frozen=True)
class Sizes:
    """Input sizes and op counts per second of requested window."""

    trees: int = 64
    depth: int = 7
    chain: int = 400
    dag: Tuple[int, int, int] = (12, 60, 8)
    read_keys: int = 8192
    cache_entries: int = 1024
    hot_keys: int = 64
    reopens: int = 5
    #: fresh subprocesses whose median is ``setup_s``
    setup_probes: int = 5
    #: queries of the stream each per-layer probe replays (traced runs)
    sample: int = 512
    #: how many of those the magic and counting baselines replay
    baseline_sample: int = 32
    #: row ops of the write stream replayed on a bare ``Session`` (traced runs)
    write_sample: int = 256
    #: closed-loop op counts are ``rate * seconds``, so they repeat exactly;
    #: calibrated once on the reference box so a window lasts about
    #: ``seconds``, then frozen (README, "Sizes")
    adhoc_per_s: float = 480.0
    thin_per_s: float = 19.5
    fat_per_s: float = 8.5
    burst_commits_per_s: float = 4.8
    #: open-loop rates: the paced side of each serve workload
    paced_commits_per_s: float = 4.0
    paced_reads_per_s: float = 200.0

    def closed_loop_ops(self, workload: str, seconds: float) -> int:
        rate = {
            "adhoc_onesided": self.adhoc_per_s,
            "materialize_thin": self.thin_per_s,
            "materialize_fat": self.fat_per_s,
            "serve_read_mostly": self.paced_commits_per_s,
            "serve_write_burst": self.burst_commits_per_s,
        }[workload]
        return max(2, round(rate * seconds))


FULL = Sizes()
#: ``--selftest``: every code path in seconds, no number meaningful
TOY = Sizes(
    trees=4, depth=4, chain=40, dag=(5, 8, 3), read_keys=48, cache_entries=16, hot_keys=8,
    reopens=2, setup_probes=1, sample=16, baseline_sample=8, write_sample=16,
    adhoc_per_s=48.0, thin_per_s=8.0, fat_per_s=8.0, burst_commits_per_s=12.0,
    paced_commits_per_s=8.0, paced_reads_per_s=100.0,
)
SIZES = {"full": FULL, "toy": TOY}


def input_digests(seed: int, sizes: Sizes) -> Dict[str, str]:
    """Digests of every generator's output at fixed lengths (op counts vary
    with ``--seconds``; what a generator yields for a seed must not)."""
    graph = inputs.forest(seed, sizes.trees, sizes.depth)
    parents = inputs.hot_parents(seed, graph, sizes.hot_keys)
    return {
        "forest": inputs.digest(graph.edges),
        "chain": inputs.digest(inputs.chain(seed, sizes.chain)),
        "layered_dag": inputs.digest(inputs.layered_dag(seed, *sizes.dag)),
        "adhoc_stream": inputs.digest(inputs.adhoc_stream(seed, graph, 256)),
        "read_keys": inputs.digest(inputs.read_keys(seed, graph, sizes.read_keys)),
        "zipf_ranks": inputs.digest(inputs.zipf_ranks(seed, sizes.read_keys, 1024)),
        "write_stream": inputs.digest(inputs.write_stream(seed, graph, parents, 64, deletes=True)),
        "insert_stream": inputs.digest(inputs.write_stream(seed, graph, parents, 64, deletes=False)),
    }


#: ``input_digests(DEFAULT_SEED, FULL)``, pinned: a generator that drifts
#: changes every number downstream of it, so the run refuses to start
PINNED: Dict[str, str] = {
    "forest": "100420ba419c2edc",
    "chain": "e4ce116e2fdd6cbd",
    "layered_dag": "341d31daae0832d6",
    "adhoc_stream": "44c43fbfe808a45a",
    "read_keys": "89c06409522c5d65",
    "zipf_ranks": "eebc0529009992cc",
    "write_stream": "4bff4a6c85c267cd",
    "insert_stream": "1dd0921b43e46e5f",
}
