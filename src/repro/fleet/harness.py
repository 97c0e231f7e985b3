"""Fleet-scale workload harness: N homes in ONE simulation kernel.

The ROADMAP's north star is scale — placement quality claims made on one
home say nothing about a fleet of heterogeneous ones. This harness
instantiates ``FleetConfig.homes`` independent :class:`VideoPipe` homes on
a single shared :class:`~repro.sim.kernel.Kernel` (one clock, one event
heap), each with its own seeded device mix, services and pipeline, runs
them concurrently, and aggregates fleet-level metrics: p50/p99 end-to-end
latency, drop rate, migration and replan counts, cloud egress and $/home.

Everything is deterministic under ``FleetConfig.seed``: device mixes and
frame rates come from per-home ``random.Random`` streams derived from it,
and each home's own RNG seed comes from an independent ``(seed, index)``
string stream (:func:`home_seed`). Homes never interact through shared
simulation state — each has its own topology, registry and RNG streams —
so a home's results depend only on ``(seed, index)``, never on which other
homes share its kernel. That independence is what makes the sharded runner
(:mod:`repro.fleet.shard`) merge-equivalent: any partition of the homes
across worker-process kernels reproduces the single-kernel report bit for
bit (``docs/FLEET.md``).
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass, field

from ..core.videopipe import VideoPipe
from ..devices.catalog import make_spec
from ..errors import ConfigError
from ..metrics.stats import Summary, summarize
from ..net.link import LinkSpec
from ..pipeline.optimizer import OPTIMIZED, CloudPricing, plan_optimized
from ..pipeline.pipeline import Pipeline
from ..pipeline.placement import COLOCATED, SINGLE_HOST
from ..sim.kernel import Kernel
from .workload import (
    home_device_kinds,
    home_pipeline_config,
    install_cloud_services,
    install_home_services,
    install_scene_home_services,
    scene_home_pipeline_config,
)

STRATEGIES = (COLOCATED, SINGLE_HOST, OPTIMIZED)

#: Per-home application shapes the harness can run: the linear ``stage``
#: DAG (camera → detect → classify → alert → sink) or the fan-in ``scene``
#: DAG (rig → two camera-track branches → fusion sink).
WORKLOADS = ("stage", "scene")


def home_seed(master_seed: int, index: int) -> int:
    """Home *index*'s RNG seed under *master_seed*.

    Derived through an independent string-keyed stream (the same idiom as
    the per-home mix RNG) rather than an affine function: the old
    ``seed + 101 * index`` made home *i* under master seed *s* identical
    to home *i - 1* under seed *s + 101*, so fleet-level seed-sensitivity
    claims were false. ``random.Random`` seeds strings via SHA-512, so the
    value is stable across processes and hash seeds — shard workers derive
    the same home seeds as the single-kernel path.
    """
    return random.Random(f"fleet/home-seed/{master_seed}/{index}").getrandbits(63)


@dataclass(frozen=True, slots=True)
class FleetConfig:
    """Shape of one fleet run.

    Attributes:
        homes: number of homes in the fleet (the bench uses 50 per kernel).
        seed: master seed; the whole fleet is deterministic under it.
        strategy: placement strategy for every home's pipeline.
        fps_choices: per-home frame rate, drawn from this tuple.
        duration_s: camera capture duration per home.
        tail_s: extra simulated seconds after capture ends, letting
            in-flight frames drain before metrics are read.
        shards: worker processes to spread the homes over. 1 (default)
            runs every home in this process on one kernel; more hands
            ``index % shards`` slices to :class:`~repro.fleet.shard.
            FleetShardRunner`, one kernel per worker, with per-home
            results merged into one report. Per-home results are
            bit-identical for every shard count.
        cloud: attach the shared cloud tier: every home gets a ``cloud``
            device behind a metered WAN uplink hosting replicas of the
            heavy services. Home-vs-cloud is decided by module placement;
            a remote call dials the fastest live replica.
        wan: WAN uplink profile for the cloud tier (``None`` keeps
            :data:`~repro.net.link.WAN_METRO`).
        online: enable each home's :class:`OnlineOptimizer
            <repro.pipeline.optimizer.OnlineOptimizer>` (live re-placement).
        audit: enable each home's invariant auditor.
        tracing: enable each home's trace recorder (spans only: no
            controller reads them).
        workload: per-home application shape — ``"stage"`` (default, the
            linear camera → detect → classify → alert → sink DAG) or
            ``"scene"`` (the multi-camera fan-in scene-fusion DAG; the
            fusion module doubles as the ``sink``).
    """

    homes: int = 50
    seed: int = 0
    strategy: str = OPTIMIZED
    fps_choices: tuple[float, ...] = (4.0, 6.0, 8.0)
    duration_s: float = 4.0
    tail_s: float = 2.0
    shards: int = 1
    cloud: bool = False
    wan: LinkSpec | None = None
    online: bool = False
    audit: bool = False
    tracing: bool = False
    workload: str = "stage"

    def __post_init__(self) -> None:
        if self.homes < 1:
            raise ConfigError("homes must be >= 1")
        if self.workload not in WORKLOADS:
            raise ConfigError(
                f"unknown fleet workload {self.workload!r}; known: {WORKLOADS}"
            )
        if self.shards < 1:
            raise ConfigError("shards must be >= 1")
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"unknown fleet strategy {self.strategy!r}; known: {STRATEGIES}"
            )
        if not self.fps_choices or any(f <= 0 for f in self.fps_choices):
            raise ConfigError("fps_choices must be positive")
        if self.duration_s <= 0 or self.tail_s < 0:
            raise ConfigError("duration_s must be positive, tail_s >= 0")


@dataclass(slots=True)
class HomeResult:
    """One home's outcome after a fleet run.

    Picklable by construction — shard workers ship these back to the
    coordinator, so everything here is plain data."""

    name: str
    #: global home index (stable across shard counts; the merge key).
    index: int
    devices: list[str]
    strategy: str  # the plan actually used (optimized may fall back)
    completed: int
    dropped: int
    migrations: int
    replans: int
    latencies: list[float]
    sink_frame_ids: list[int]
    #: circuit-breaker open rejections the pipeline's calls hit.
    service_rejections: int = 0
    #: calls this home sent to cloud-hosted service replicas.
    cloud_calls: int = 0
    #: modeled CPU seconds those calls burned in the cloud tier.
    cloud_compute_s: float = 0.0
    #: bytes this home pushed across its metered WAN uplink.
    cloud_egress_bytes: int = 0
    #: this home's $/hour at :class:`CloudPricing` rates (edge + cloud +
    #: egress).
    cost_usd_per_hour: float = 0.0
    #: which shard's kernel ran the home (provenance only — results are
    #: shard-invariant).
    shard: int = 0


@dataclass(slots=True)
class FleetReport:
    """Fleet-level aggregates plus the per-home results behind them."""

    homes: int
    strategy: str
    duration_s: float
    completed: int
    dropped: int
    migrations: int
    replans: int
    latency: Summary
    results: list[HomeResult] = field(default_factory=list)
    #: homes whose ``optimized`` plan fell back to the co-located heuristic
    #: (0 under any other strategy) — the report's ``strategy`` labels the
    #: *request*, this counts where the search declined to differ.
    plans_fell_back: int = 0
    #: total bytes the fleet pushed across metered WAN uplinks.
    cloud_egress_bytes: int = 0
    #: total calls served by cloud-hosted replicas.
    cloud_calls: int = 0
    #: mean per-home $/hour at :class:`CloudPricing` rates.
    cost_per_home: float = 0.0
    #: total circuit-breaker open rejections across all pipelines.
    service_rejections: int = 0
    #: shard provenance: how many worker kernels ran the fleet, and how
    #: many homes each took. Excluded from merge-equivalence comparisons.
    shards: int = 1
    shard_homes: dict[int, int] = field(default_factory=dict)

    @property
    def drop_rate(self) -> float:
        total = self.completed + self.dropped
        return self.dropped / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "homes": self.homes,
            "strategy": self.strategy,
            "duration_s": self.duration_s,
            "completed": self.completed,
            "dropped": self.dropped,
            "drop_rate": self.drop_rate,
            "migrations": self.migrations,
            "replans": self.replans,
            "latency": self.latency.as_dict(),
            "plans_fell_back": self.plans_fell_back,
            "cloud_egress_bytes": self.cloud_egress_bytes,
            "cloud_calls": self.cloud_calls,
            "cost_per_home": self.cost_per_home,
            "service_rejections": self.service_rejections,
            "shards": self.shards,
            "shard_homes": {str(k): v for k, v in self.shard_homes.items()},
        }

    def describe(self) -> str:
        lat = self.latency
        text = (
            f"fleet[{self.strategy}] {self.homes} homes:"
            f" {self.completed} frames,"
            f" drop {self.drop_rate:.1%},"
            f" latency mean {lat.mean * 1e3:.1f} ms"
            f" p50 {lat.p50 * 1e3:.1f} ms p99 {lat.p99 * 1e3:.1f} ms,"
            f" {self.migrations} migrations, {self.replans} replans"
        )
        if self.shards > 1:
            text += f", {self.shards} shards"
        if self.plans_fell_back:
            text += f", {self.plans_fell_back} plans fell back"
        if self.cloud_calls:
            text += (
                f", cloud: {self.cloud_calls} calls"
                f" {self.cloud_egress_bytes / 1e6:.1f} MB egress"
            )
        text += f", ${self.cost_per_home:.4f}/home-hour"
        if self.service_rejections:
            text += f", {self.service_rejections} service rejections"
        return text


def aggregate_report(
    config: FleetConfig,
    results: list[HomeResult],
    shards: int = 1,
    shard_homes: dict[int, int] | None = None,
) -> FleetReport:
    """Fold per-home results into one :class:`FleetReport`.

    Both the single-kernel :meth:`Fleet.report` and the shard coordinator's
    merge go through here, which is what pins merge-equivalence: given the
    same :class:`HomeResult` list in global-index order, the aggregates are
    computed identically — latencies concatenate in home order, so even
    float summation order matches.
    """
    results = sorted(results, key=lambda r: r.index)
    latencies: list[float] = []
    for result in results:
        latencies.extend(result.latencies)
    costs = [r.cost_usd_per_hour for r in results]
    return FleetReport(
        homes=len(results),
        strategy=config.strategy,
        duration_s=config.duration_s,
        completed=sum(r.completed for r in results),
        dropped=sum(r.dropped for r in results),
        migrations=sum(r.migrations for r in results),
        replans=sum(r.replans for r in results),
        latency=summarize(latencies) if latencies else Summary.empty(),
        results=results,
        plans_fell_back=sum(
            1 for r in results
            if config.strategy == OPTIMIZED and r.strategy == COLOCATED
        ),
        cloud_egress_bytes=sum(r.cloud_egress_bytes for r in results),
        cloud_calls=sum(r.cloud_calls for r in results),
        cost_per_home=sum(costs) / len(costs) if costs else 0.0,
        service_rejections=sum(r.service_rejections for r in results),
        shards=shards,
        shard_homes=dict(shard_homes or {}),
    )


class Fleet:
    """N homes, one kernel. Build, :meth:`run`, :meth:`report`.

    *home_indices* restricts the build to a subset of the fleet's global
    home indices — the shard runner hands each worker its slice this way.
    Seeds, mixes and names key off the global index, so ``Fleet(cfg,
    home_indices=[3])`` builds home 3 exactly as the full fleet would.
    """

    def __init__(
        self,
        config: FleetConfig | None = None,
        home_indices: Sequence[int] | None = None,
    ) -> None:
        self.config = config or FleetConfig()
        if home_indices is None:
            self.home_indices = list(range(self.config.homes))
        else:
            self.home_indices = list(home_indices)
            if any(
                i < 0 or i >= self.config.homes for i in self.home_indices
            ):
                raise ConfigError(
                    f"home_indices out of range for {self.config.homes} homes"
                )
        self.kernel = Kernel()
        self.homes: list[VideoPipe] = []
        self.home_seeds: list[int] = []
        self.pipelines: list[Pipeline] = []
        self._build()

    # -- construction --------------------------------------------------------
    def _build(self) -> None:
        cfg = self.config
        for index in self.home_indices:
            # a per-home stream for the mix/fps draws, decoupled from the
            # home's own RNG so adding knobs never shifts another home
            mix_rng = random.Random(f"fleet/{cfg.seed}/{index}")
            seed = home_seed(cfg.seed, index)
            self.home_seeds.append(seed)
            home = VideoPipe(seed=seed, kernel=self.kernel)
            self.homes.append(home)
            device_names = self._add_devices(home, home_device_kinds(mix_rng))
            camera, hub = device_names[0], device_names[1]
            if cfg.workload == "scene":
                install_scene_home_services(home, hub)
            else:
                install_home_services(home, hub, camera)
            if cfg.cloud:
                install_cloud_services(home, wan=cfg.wan)
            if cfg.audit:
                home.enable_audit()
            if cfg.tracing:
                home.enable_tracing()
            if cfg.online:
                home.enable_optimizer()
            fps = cfg.fps_choices[mix_rng.randrange(len(cfg.fps_choices))]
            if cfg.workload == "scene":
                pipeline_config = scene_home_pipeline_config(
                    f"home{index}",
                    camera,
                    fps=fps,
                    duration_s=cfg.duration_s,
                )
            else:
                pipeline_config = home_pipeline_config(
                    f"home{index}",
                    camera,
                    fps=fps,
                    duration_s=cfg.duration_s,
                )
            if cfg.strategy == SINGLE_HOST:
                # the EdgeEye-style baseline: the whole app on the camera
                # device, every service call remote
                pipeline = home.deploy_pipeline(
                    pipeline_config,
                    strategy=SINGLE_HOST,
                    host_device=camera,
                    prefer_local_services=False,
                )
            elif cfg.strategy == OPTIMIZED:
                placement = plan_optimized(
                    pipeline_config, home.devices, home.registry,
                    home.topology, camera,
                )
                pipeline = home.deploy_pipeline(
                    pipeline_config, placement=placement
                )
            else:
                pipeline = home.deploy_pipeline(
                    pipeline_config,
                    strategy=cfg.strategy,
                    default_device=camera,
                )
            self.pipelines.append(pipeline)

    @staticmethod
    def _add_devices(home: VideoPipe, kinds: list[str]) -> list[str]:
        names: list[str] = []
        counts: dict[str, int] = {}
        for kind in kinds:
            counts[kind] = counts.get(kind, 0) + 1
            name = kind if counts[kind] == 1 else f"{kind}{counts[kind]}"
            home.add_device(make_spec(kind, name))
            names.append(name)
        return names

    # -- execution -----------------------------------------------------------
    def run(self, until: float | None = None) -> float:
        """Run the shared kernel, then stop any online optimizers.

        With ``until=None`` (the default) the kernel first runs to the
        capture horizon (``duration_s + tail_s``) and then — optimizers
        stopped — drains every remaining in-flight event so quiesce-time
        invariants hold. An explicit *until* is honored as a hard horizon:
        stopping an optimizer only takes its next tick off the queue, and
        any work scheduled after *until* stays unrun.
        """
        horizon = (
            until if until is not None
            else self.config.duration_s + self.config.tail_s
        )
        self.kernel.run(until=horizon)
        for home in self.homes:
            if home.optimizer is not None:
                home.optimizer.stop()
        return self.kernel.run(until=until)

    # -- reporting -----------------------------------------------------------
    def home_results(self, shard: int = 0) -> list[HomeResult]:
        """Per-home outcomes (plain data — this is what shard workers
        return to the coordinator)."""
        cfg = self.config
        pricing = CloudPricing()
        results: list[HomeResult] = []
        for index, home, pipeline in zip(
            self.home_indices, self.homes, self.pipelines
        ):
            metrics = pipeline.metrics
            sink = pipeline.module_instance("sink")
            # the snapshot's cloud section alone: this runs in the timed
            # report phase, and nothing else of the snapshot is reported
            cloud = home._cloud_section()
            edge_devices = len(home.devices) - len(cloud["devices"])
            results.append(HomeResult(
                name=pipeline.name,
                index=index,
                devices=sorted(home.devices),
                strategy=pipeline.placement.strategy,
                completed=metrics.counter("frames_completed"),
                dropped=metrics.counter("frames_dropped"),
                migrations=metrics.counter("migrations"),
                replans=metrics.counter("replans"),
                latencies=metrics.total_latencies,
                sink_frame_ids=list(sink.frame_ids),
                service_rejections=metrics.counter("service_rejections"),
                cloud_calls=cloud["calls"],
                cloud_compute_s=cloud["compute_s"],
                cloud_egress_bytes=cloud["egress_bytes"],
                cost_usd_per_hour=pricing.home_hourly_cost(
                    edge_devices, cloud["compute_s"],
                    cloud["egress_bytes"], cfg.duration_s,
                ),
                shard=shard,
            ))
        return results

    def report(self) -> FleetReport:
        return aggregate_report(self.config, self.home_results())


def run_fleet(config: FleetConfig | None = None) -> FleetReport:
    """Build a fleet, run it to completion, and return its report.

    ``config.shards > 1`` spreads the homes over that many worker
    processes (one kernel each) via :class:`~repro.fleet.shard.
    FleetShardRunner`; the merged report is bit-identical to a
    single-kernel run up to the shard provenance fields.
    """
    config = config or FleetConfig()
    if config.shards > 1:
        from .shard import FleetShardRunner

        return FleetShardRunner(config).run()
    fleet = Fleet(config)
    fleet.run()
    return fleet.report()
