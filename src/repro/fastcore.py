"""Engine-core selection: the SM issue stage each system runs.

Both cores share one event engine (:class:`repro.sim.engine.Engine`) and
one memory datapath; they differ only in the SM issue stage:

* the **python core** runs :meth:`repro.gpu.sm.SM.tick`, the readable
  Algorithm 1/2 implementation.  It is the *byte-identity oracle*: every
  golden artifact, cached scenario result and record->replay trace is
  defined by its behavior.
* the **fast core** runs :class:`repro.gpu.sm_fast.FastSM`, the same
  stage flattened into one loop.  It must produce byte-identical results;
  CI regenerates the fig6.x goldens under both cores and ``cmp``s them.

Selection happens at **import time** from the environment and can be
overridden per-config:

* ``REPRO_CORE=fast`` (or ``python``) selects the core for the whole
  process -- including executor worker processes, which inherit the
  environment through ``multiprocessing``;
* ``SystemConfig.core`` (``"auto"`` by default) pins a single system:
  ``"auto"`` defers to the environment, ``"python"``/``"fast"`` win over
  it.  The field never enters ``to_dict()`` / scenario cache keys --
  both cores must produce the same bytes, so results are shared.
"""

from __future__ import annotations

import os

CORES = ("auto", "python", "fast")

#: Process-wide default, read once at import so every subsystem -- and
#: every executor worker forked later -- agrees on one answer.
DEFAULT_CORE: str = os.environ.get("REPRO_CORE", "python")
if DEFAULT_CORE not in ("python", "fast"):
    raise RuntimeError(
        "REPRO_CORE must be 'python' or 'fast', got %r" % DEFAULT_CORE
    )


def resolve_core(config_core: str = "auto") -> str:
    """The core a system with ``config_core`` actually runs on.

    ``"auto"`` (the default) defers to ``REPRO_CORE``; an explicit
    ``"python"``/``"fast"`` pins the system regardless of environment.
    """
    if config_core == "auto":
        return DEFAULT_CORE
    return config_core

