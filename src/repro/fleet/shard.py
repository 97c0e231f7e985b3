"""Sharded fleet execution: one simulation kernel per worker process.

A 1000-home fleet in one kernel is a single Python process grinding one
event heap — metro-scale runs need the machine's cores. The shard runner
partitions the fleet's global home indices over ``FleetConfig.shards``
worker processes (home *i* goes to shard ``i % shards``, stable as the
fleet grows), runs an ordinary :class:`~repro.fleet.harness.Fleet` with a
private kernel in each worker, ships the picklable per-home results back,
and merges them through the same :func:`~repro.fleet.harness.
aggregate_report` the single-kernel path uses.

The merge is *equivalence-preserving*, not approximate: homes never share
simulation state (each has its own topology, registry and string-keyed RNG
streams, and per-home seeds derive from the global index), so a home's
results are identical whichever kernel runs it, and the merged report
matches a ``shards=1`` run bit for bit up to the shard provenance fields.
``tests/fleet/test_shard.py`` pins this for shard counts {1, 2, 4}.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import dataclass, field

from ..errors import FleetShardError
from .harness import Fleet, FleetConfig, FleetReport, HomeResult, aggregate_report


def shard_assignment(homes: int, shards: int) -> dict[int, list[int]]:
    """Global home index -> shard map: home *i* goes to shard ``i % shards``.

    Round-robin keeps the assignment stable under fleet growth — adding
    homes never moves an existing home to a different shard, so cached
    per-shard artifacts stay valid. Shards with no homes (``shards >
    homes``) get an empty list and no worker."""
    assignment: dict[int, list[int]] = {shard: [] for shard in range(shards)}
    for index in range(homes):
        assignment[index % shards].append(index)
    return assignment


@dataclass(slots=True)
class ShardResult:
    """What one worker ships back: its shard id and the per-home results
    for the global indices it ran. Plain picklable data."""

    shard: int
    home_indices: list[int]
    results: list[HomeResult] = field(default_factory=list)


def _run_shard_worker(
    config: FleetConfig, shard: int, home_indices: list[int]
) -> ShardResult:
    """Worker entry point: build and run this shard's slice of the fleet
    on a private kernel. Module-level so it pickles under spawn too."""
    fleet = Fleet(config, home_indices=home_indices)
    fleet.run()
    return ShardResult(
        shard=shard,
        home_indices=home_indices,
        results=fleet.home_results(shard=shard),
    )


class FleetShardRunner:
    """Coordinator: fan a fleet out over worker processes, merge reports.

    ``run()`` is the whole lifecycle — spawn ``config.shards`` workers
    (never more than there are non-empty shards), wait for all per-shard
    results, and fold them into one :class:`FleetReport`. A worker that
    raises or dies aborts the run with :class:`~repro.errors.
    FleetShardError` naming the shard, rather than hanging on the
    remaining futures or surfacing a bare pickle traceback.
    """

    def __init__(self, config: FleetConfig) -> None:
        self.config = config
        self.assignment = shard_assignment(config.homes, config.shards)

    def run(self) -> FleetReport:
        occupied = {s: idx for s, idx in self.assignment.items() if idx}
        if len(occupied) <= 1:
            # one (or zero) occupied shards: a worker process buys nothing,
            # run in-process on the same code path the workers use
            results: list[HomeResult] = []
            for shard, indices in occupied.items():
                results.extend(_run_shard_worker(
                    self.config, shard, indices
                ).results)
            return self._merge(results)
        # fork shares the warmed-up interpreter (module registry included);
        # fall back to the platform default where fork is unavailable
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        results = []
        with ProcessPoolExecutor(
            max_workers=len(occupied), mp_context=context
        ) as pool:
            futures = {
                pool.submit(_run_shard_worker, self.config, shard, indices):
                    shard
                for shard, indices in occupied.items()
            }
            done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
            for future in done:
                shard = futures[future]
                error = future.exception()
                if error is not None:
                    for pending in not_done:
                        pending.cancel()
                    raise FleetShardError(
                        f"shard {shard} "
                        f"({len(occupied[shard])} homes) failed: {error}",
                        shard=shard,
                    ) from error
                results.extend(future.result().results)
        return self._merge(results)

    def _merge(self, results: list[HomeResult]) -> FleetReport:
        return aggregate_report(
            self.config,
            results,
            shards=self.config.shards,
            shard_homes={
                shard: len(indices)
                for shard, indices in self.assignment.items()
                if indices
            },
        )
