"""Deterministic crash injection for testing the execution supervisor.

The resilience guarantees of :mod:`repro.experiments.pipeline` — a grid
survives SIGKILLed workers — are only testable if something actually
kills a worker.  This module is that something: a worker calls
:func:`maybe_crash` before simulating, and when chaos is armed via
environment variables the process SIGKILLs *itself*, exactly once per
work item, so retries then succeed and the test can assert bit-identical
recovery.

Chaos is armed by exporting both variables (the pool's workers inherit
the parent's environment):

``REPRO_CHAOS_DIR``
    A scratch directory for once-only markers.  A crash first claims one
    budget slot (``<kind>-slot-<k>``, created with ``O_EXCL``), then
    writes one ``<digest>.killed`` marker per crashed item, so a
    resubmitted run of the same digest proceeds normally.
``REPRO_CHAOS_KILL``
    Maximum number of distinct work items to crash (an integer budget).
``REPRO_CHAOS_BATCH``
    Maximum number of *multi-run batches* to crash (an integer budget,
    independent of ``REPRO_CHAOS_KILL``).  :func:`maybe_crash_batch`
    fires while the worker holds a whole batch of runs — the correlated
    analogue of a single-item crash, modelling a fault domain taking out
    every run a worker carried at once.  The supervisor must then split
    the batch into singletons without charging the innocent runs.

The budget is enforced by the slots alone: each of the ``budget`` slot
files can be created by exactly one process, so concurrent workers can
never crash more items than the budget allows.

Unset (the default everywhere outside the chaos tests and the CI
``chaos-smoke`` job), :func:`maybe_crash` is a single dict lookup.
"""

from __future__ import annotations

import os
import signal

ENV_DIR = "REPRO_CHAOS_DIR"
ENV_KILL = "REPRO_CHAOS_KILL"
ENV_BATCH = "REPRO_CHAOS_BATCH"


def _create(path: str) -> bool:
    """Atomically create ``path``; False when it already exists."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _crash_once(kind: str, budget_env: str, digest: str) -> None:
    """SIGKILL this process once for ``digest`` if a ``kind`` slot is free."""
    chaos_dir = os.environ.get(ENV_DIR)
    if not chaos_dir:
        return
    try:
        budget = int(os.environ.get(budget_env, "0"))
    except ValueError:
        return
    if budget <= 0 or not os.path.isdir(chaos_dir):
        return
    marker = os.path.join(chaos_dir, f"{digest}.{kind}")
    if os.path.exists(marker):
        return  # this item already took its crash; run normally
    if not any(
        _create(os.path.join(chaos_dir, f"{kind}-slot-{k}")) for k in range(budget)
    ):
        return  # every slot is taken: the budget is spent
    if not _create(marker):  # lost the race: another worker crashed it
        return
    os.kill(os.getpid(), signal.SIGKILL)


def maybe_crash(digest: str) -> None:
    """SIGKILL this process if chaos is armed and the budget allows it."""
    _crash_once("killed", ENV_KILL, digest)


def maybe_crash_batch(digests: list[str]) -> None:
    """SIGKILL this process while it holds a whole multi-run batch.

    Armed via ``REPRO_CHAOS_BATCH`` (plus the shared ``REPRO_CHAOS_DIR``);
    one ``<first-digest>.batchkilled`` marker makes each batch crash at
    most once.  Singleton batches never crash here — after the supervisor
    splits a killed batch, the singleton reruns must proceed — so a
    budget of 1 kills exactly one correlated batch per grid.
    """
    if len(digests) >= 2:
        _crash_once("batchkilled", ENV_BATCH, digests[0])
