"""Durable persistence: write-ahead log + compacted snapshots.

The storage layer makes the serving layer's epochs durable.  Each coalesced
flush batch becomes one CRC-framed WAL record (appended and fsynced before
the service publishes the epoch or resolves any ticket), and a periodic
compaction writes a covering snapshot — full domain dictionary, program
text, struct-packed EDB relations — then resets the log.  Recovery is
"load latest snapshot, replay WAL, rebuild views incrementally":
:meth:`~repro.service.DatalogService.open` drives it end to end.
"""

from .errors import CorruptSnapshotError, SimulatedCrash, StorageError, is_transient
from .format import FORMAT_VERSION, MAGIC, frame, split_frames
from .snapshot import (
    SnapshotData,
    load_latest_snapshot,
    snapshot_files,
    write_snapshot,
)
from .store import (
    DurableStore,
    RecoveredState,
    StorageConfig,
    StorageStats,
)
from .wal import WriteAheadLog, segment_files

__all__ = [
    "CorruptSnapshotError",
    "DurableStore",
    "FORMAT_VERSION",
    "MAGIC",
    "RecoveredState",
    "SimulatedCrash",
    "SnapshotData",
    "StorageConfig",
    "StorageError",
    "StorageStats",
    "WriteAheadLog",
    "frame",
    "load_latest_snapshot",
    "segment_files",
    "is_transient",
    "snapshot_files",
    "split_frames",
    "write_snapshot",
]
