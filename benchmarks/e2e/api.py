"""Import discipline: the one place the benchmark touches ``repro``.

End-to-end paths ask for a name with :meth:`Api.require`: it must be listed
in ``repro.__all__``, and a missing one stops the run loudly — the
user-facing surface changed, and a benchmark that silently measured
something else would be worse than none.  Per-layer probes ask with
:meth:`Api.probe`: a layer that a later simplification deleted yields
``None`` and a note, its metrics read 0, and the run goes on.
"""

from __future__ import annotations

from typing import Any, List, Optional

import repro


class MissingAPI(RuntimeError):
    """An end-to-end entry point is no longer exported by ``repro``."""


class Api:
    def __init__(self) -> None:
        #: probe names that were asked for and are gone; printed as notes
        self.missing: List[str] = []

    def require(self, name: str) -> Any:
        if name not in repro.__all__ or not hasattr(repro, name):
            raise MissingAPI(
                f"repro.{name} is not in repro.__all__; the end-to-end workloads drive "
                "the library only through its public names and cannot run without it"
            )
        return getattr(repro, name)

    def probe(self, name: str) -> Optional[Any]:
        if name in repro.__all__ and hasattr(repro, name):
            return getattr(repro, name)
        if name not in self.missing:
            self.missing.append(name)
        return None
