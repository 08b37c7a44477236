"""Multiprocessing execution for partitioned simulations.

:func:`run_group_pool` executes independent simulation groups on a
pool of ``spawn`` workers (the scale-bench decomposition: one Tiger
cub-group subsystem per worker task, merged afterwards with
:func:`repro.obs.registry.merge_snapshots`); :func:`derive_seed` gives
each group its own seed.

``spawn`` (not ``fork``) is used: a spawned worker boots a fresh
interpreter, so module-global sequence counters (event seq, message
ids, viewer-state instance ids) start from zero in every worker and a
group run is a pure function of its spec — the same
property that makes the single-process kernel deterministic.
"""

from __future__ import annotations

import hashlib
import importlib
import multiprocessing
from time import perf_counter
from typing import Any, Callable, List, Sequence, Tuple


def derive_seed(seed: int, index: int) -> int:
    """A stable, well-separated child seed for group ``index``.

    SHA-256 over the pair, reduced to 63 bits: adjacent parent seeds or
    group indices share no RNG structure, and the derivation is
    identical on every platform and Python build (``hash()`` is not).
    """
    digest = hashlib.sha256(f"{seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _warm(module_name: str) -> None:
    """Pool warm-up task: pull the worker's module into the child."""
    importlib.import_module(module_name)


def run_group_pool(
    worker: Callable[[Any], Any],
    specs: Sequence[Any],
    shards: int,
) -> Tuple[List[Any], float]:
    """Run ``worker`` over ``specs``; returns (results, timed wall s).

    ``shards == 1`` executes serially in-process — the honest baseline
    the partitioned tiers are compared against.  ``shards > 1`` maps
    the specs over that many ``spawn`` workers; the pool is created and
    warmed (worker module imported in every child) *before* timing
    starts, matching the harness convention that construction cost
    never pollutes events/sec.

    :param worker: Top-level (picklable) function of one spec.
    :param specs: One spec per independent simulation group.
    :param shards: Worker process count; 1 means serial in-process.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if shards == 1 or len(specs) <= 1:
        started = perf_counter()
        results = [worker(spec) for spec in specs]
        return results, perf_counter() - started
    context = multiprocessing.get_context("spawn")
    processes = min(shards, len(specs))
    with context.Pool(processes=processes) as pool:
        # chunksize=1 spreads the warm tasks across workers; two rounds
        # make it overwhelmingly likely every child has imported the
        # worker module before the clock starts.
        pool.map(_warm, [worker.__module__] * (processes * 2), chunksize=1)
        started = perf_counter()
        results = pool.map(worker, list(specs), chunksize=1)
        wall = perf_counter() - started
    return results, wall
