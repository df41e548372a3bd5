"""System configuration dataclasses mirroring Table III of the paper.

The default values reproduce the Intel Cascade Lake-like baseline used in the
paper: a 3.8 GHz 4-wide out-of-order core with a 224-entry re-order buffer,
32KB/8-way L1D, 1MB/16-way L2, 1.375MB-per-core/11-way LLC, and DDR4 DRAM
with 12.8 GB/s per core in single-core mode and 3.2 GB/s per core in
multi-core mode.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

from repro.common.addresses import BLOCK_SIZE


@dataclass(frozen=True)
class CacheConfig:
    """Configuration of one cache level.

    Attributes:
        name: human readable name ("L1D", "L2C", "LLC").
        size_bytes: total capacity in bytes.
        associativity: number of ways.
        latency: hit latency in cycles.

    Every level uses LRU replacement, as in the paper's baseline.  Miss
    timing is folded into the hit latencies and the DRAM model, so there is
    no MSHR capacity to configure.
    """

    name: str
    size_bytes: int
    associativity: int
    latency: int

    @property
    def num_sets(self) -> int:
        """Number of sets implied by size, associativity and 64B blocks."""
        return self.size_bytes // (self.associativity * BLOCK_SIZE)

    def __post_init__(self) -> None:
        if self.associativity <= 0:
            raise ValueError(
                f"{self.name}: associativity must be positive,"
                f" got {self.associativity}"
            )
        if self.size_bytes % (self.associativity * BLOCK_SIZE) != 0:
            raise ValueError(
                f"{self.name}: size {self.size_bytes} is not a multiple of "
                f"associativity*block ({self.associativity * BLOCK_SIZE})"
            )


@dataclass(frozen=True)
class DRAMConfig:
    """DRAM timing and bandwidth configuration.

    The paper models DDR4 with tRP=tRCD=tCAS=24 cycles and a per-core data
    rate that is the key lever of the Figure 16 sensitivity study.

    Attributes:
        access_latency: fixed access latency in core cycles (row activation,
            column access and transfer of the critical word).
        bandwidth_gbps: per-channel data rate in GB/s available to the cores
            sharing this DRAM instance.
        core_frequency_ghz: core clock, used to convert GB/s to
            cycles-per-64B-transaction.
    """

    access_latency: int = 160
    bandwidth_gbps: float = 12.8
    core_frequency_ghz: float = 3.8

    @property
    def cycles_per_transaction(self) -> float:
        """Core cycles the channel is busy transferring one 64B block."""
        bytes_per_second = self.bandwidth_gbps * 1e9
        seconds_per_block = BLOCK_SIZE / bytes_per_second
        return seconds_per_block * self.core_frequency_ghz * 1e9


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core parameters relevant to the retirement timing model."""

    width: int = 4
    rob_size: int = 224
    frequency_ghz: float = 3.8
    #: Latency charged when an off-chip predictor fires a speculative DRAM
    #: request (6 cycles in the paper, Section IV-D).
    offchip_predictor_latency: int = 6

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"core width must be positive, got {self.width}")
        if self.rob_size <= 0:
            raise ValueError(f"rob size must be positive, got {self.rob_size}")


@dataclass(frozen=True)
class SystemConfig:
    """Full single-socket system configuration (Table III)."""

    core: CoreConfig = field(default_factory=CoreConfig)
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1D", 32 * 1024, 8, 4)
    )
    l2c: CacheConfig = field(
        default_factory=lambda: CacheConfig("L2C", 1024 * 1024, 16, 10)
    )
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig("LLC", 1408 * 1024, 11, 36)
    )
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    num_cores: int = 1
    #: Simulator core implementation: ``"scalar"`` steps one record at a
    #: time (the pinned reference path), ``"batch"`` runs the chunked
    #: fused loop of :mod:`repro.sim.batch`.  The two are bit-identical,
    #: so this field does not participate in result-cache keys (see
    #: :func:`system_config_to_dict`).
    sim_core: str = "scalar"

    def __post_init__(self) -> None:
        if self.sim_core not in ("scalar", "batch"):
            raise ValueError(
                f"sim_core must be 'scalar' or 'batch', got {self.sim_core!r}"
            )

    def scaled_llc(self) -> CacheConfig:
        """LLC configuration scaled to the number of cores (1.375MB/core)."""
        return replace(
            self.llc,
            size_bytes=self.llc.size_bytes * self.num_cores,
        )

    def with_dram_bandwidth(self, per_core_gbps: float) -> "SystemConfig":
        """Return a copy with a different per-core DRAM data rate.

        The total channel bandwidth is ``per_core_gbps * num_cores`` since the
        paper quotes bandwidth per core.
        """
        dram = replace(
            self.dram, bandwidth_gbps=per_core_gbps * self.num_cores
        )
        return replace(self, dram=dram)


def system_config_to_dict(config: SystemConfig) -> dict:
    """Serialize a :class:`SystemConfig` to a JSON-safe dictionary.

    Used by the campaign engine both to hash a configuration into a result
    cache key and to ship configurations to worker processes.

    ``sim_core`` is deliberately excluded: the batch core is bit-identical
    to the scalar reference, so results computed by either implementation
    share one cache entry (and old caches stay valid).
    """
    payload = asdict(config)
    payload.pop("sim_core", None)
    return payload


def system_config_from_dict(payload: dict) -> SystemConfig:
    """Reconstruct a :class:`SystemConfig` serialized by
    :func:`system_config_to_dict`."""
    return SystemConfig(
        core=CoreConfig(**payload["core"]),
        l1d=CacheConfig(**payload["l1d"]),
        l2c=CacheConfig(**payload["l2c"]),
        llc=CacheConfig(**payload["llc"]),
        dram=DRAMConfig(**payload["dram"]),
        num_cores=payload["num_cores"],
        sim_core=payload.get("sim_core", "scalar"),
    )


def cascade_lake_single_core() -> SystemConfig:
    """Baseline single-core configuration of Table III (12.8 GB/s per core)."""
    return SystemConfig(
        dram=DRAMConfig(bandwidth_gbps=12.8),
        num_cores=1,
    )


def cascade_lake_multi_core(num_cores: int = 4) -> SystemConfig:
    """Baseline multi-core configuration of Table III (3.2 GB/s per core)."""
    return SystemConfig(
        dram=DRAMConfig(bandwidth_gbps=3.2 * num_cores),
        num_cores=num_cores,
    )
