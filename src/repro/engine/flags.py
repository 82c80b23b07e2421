"""Engine feature flags — the env-var/override machinery.

The columnar batch executor (:mod:`repro.engine.columnar`) ships behind a
three-part switch:

* an environment variable (``REPRO_COLUMNAR``) that turns the path off for a
  whole process (``off``/``0``/``false``/``no``/``disabled``), read once per
  process;
* a tri-state programmatic override (``set_columnar_enabled``) where
  ``None`` restores the environment variable's verdict; and
* a context manager (``columnar_mode``) that forces the flag for a scope and
  restores the previous override on exit — the differential harness's hook
  for pinning each execution mode.

:class:`EngineFlag` implements that contract; :mod:`repro.engine.columnar`
instantiates it and re-exports its historical function names on top.  The
row executor has no flag: every compiled plan runs on generated kernels
(:mod:`repro.engine.kernels`), and tests reach the reference step machine
through :func:`repro.testing.reference.step_machine`.

Beyond on/off, a flag can carry a *forcing* state (``force``/``always``).
The columnar engine uses it: ``on`` means "batch execution where the adaptive
planner predicts a win", while ``force`` bypasses the prediction so tests can
exercise the batch path on workloads too small to profit from it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional, Union

__all__ = ["DISABLING_VALUES", "FORCING_VALUES", "EngineFlag"]

#: environment values that turn a flag off
DISABLING_VALUES = frozenset(("off", "0", "false", "no", "disabled"))
#: environment values that additionally bypass adaptive heuristics
FORCING_VALUES = frozenset(("force", "always"))


class EngineFlag:
    """One engine feature switch: environment variable + tri-state override.

    The environment variable is read once per process, on first use: a flag
    is consulted on every query, and ``os.environ`` costs about a microsecond
    a read.  :meth:`refresh` reads it again (for tests that change it).
    """

    __slots__ = ("env_var", "default", "_forced", "_environment")

    def __init__(self, env_var: str, default: str = "on") -> None:
        self.env_var = env_var
        self.default = default
        #: override installed by :meth:`set`; ``None`` defers to the
        #: environment variable
        self._forced: Optional[str] = None
        #: the environment variable's setting, once read
        self._environment: Optional[str] = None

    def state(self) -> str:
        """The effective setting string (override first, then environment)."""
        if self._forced is not None:
            return self._forced
        if self._environment is None:
            return self.refresh()
        return self._environment

    def refresh(self) -> str:
        """Read the environment variable again; returns its setting."""
        self._environment = os.environ.get(self.env_var, self.default).strip().lower()
        return self._environment

    def enabled(self) -> bool:
        """``True`` unless the effective setting is a disabling value."""
        return self.state() not in DISABLING_VALUES

    def forced(self) -> bool:
        """``True`` when the effective setting bypasses adaptive heuristics."""
        return self.state() in FORCING_VALUES

    def set(self, enabled: Union[bool, str, None]) -> None:
        """Install an override; ``None`` restores the environment switch.

        Booleans map to ``"on"``/``"off"``; a string installs that state
        verbatim (e.g. ``"force"``).
        """
        if enabled is None:
            self._forced = None
        elif isinstance(enabled, str):
            self._forced = enabled.strip().lower()
        else:
            self._forced = "on" if enabled else "off"

    @contextmanager
    def mode(self, enabled: Union[bool, str, None]):
        """Temporarily force the flag for a scope (differential-testing hook)."""
        previous = self._forced
        self.set(enabled)
        try:
            yield
        finally:
            self._forced = previous

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EngineFlag({self.env_var}={self.state()!r})"
