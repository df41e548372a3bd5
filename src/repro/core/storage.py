"""Storage accounting for TLP (Table II of the paper).

The paper reports a total budget of ~7KB per core:

* FLP: perceptron weight tables (2.58KB) + page buffer (0.63KB) = 3.21KB
* SLP: perceptron weight tables (2.66KB) + page buffer (0.63KB) = 3.29KB
* Load Queue metadata (hashed PC, last-4 PCs, first-access bit, confidence)
  = 0.42KB
* L1D MSHR metadata (same plus the prediction bit) = 0.06KB

The functions below recompute the same breakdown from a configured
:class:`~repro.core.tlp.TwoLevelPerceptron` instance and the queue sizes, so
the reproduction's Table II is derived from the actual implementation rather
than hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.tlp import TwoLevelPerceptron

#: Per-entry metadata bits stored in the Load Queue for FLP training
#: (Table II): hashed PC (32b) + last-4 PC hash (10b) + first access (1b) +
#: perceptron confidence (5b).
LOAD_QUEUE_METADATA_BITS = 32 + 10 + 1 + 5

#: Per-entry metadata bits stored in the L1D MSHRs for SLP training
#: (Table II): the Load Queue metadata plus the prediction bit.
MSHR_METADATA_BITS = LOAD_QUEUE_METADATA_BITS + 1

#: Queue sizes of the baseline core (Table III: 224-entry ROB implies a
#: 72-entry load queue in Cascade Lake; the paper's 0.42KB figure implies
#: 0.42*1024*8/48 = 71.7 entries, confirming 72).
DEFAULT_LOAD_QUEUE_ENTRIES = 72
DEFAULT_L1D_MSHR_ENTRIES = 10


@dataclass
class StorageBreakdown:
    """Storage of each TLP component, in KiB."""

    flp_weight_tables: float
    flp_page_buffer: float
    slp_weight_tables: float
    slp_page_buffer: float
    load_queue_metadata: float
    mshr_metadata: float
    components: dict[str, float] = field(default_factory=dict)

    @property
    def flp_total(self) -> float:
        """FLP storage (weights + page buffer)."""
        return self.flp_weight_tables + self.flp_page_buffer

    @property
    def slp_total(self) -> float:
        """SLP storage (weights + page buffer)."""
        return self.slp_weight_tables + self.slp_page_buffer

    @property
    def total(self) -> float:
        """Total TLP storage per core."""
        return (
            self.flp_total
            + self.slp_total
            + self.load_queue_metadata
            + self.mshr_metadata
        )

    def as_table(self) -> list[tuple[str, float]]:
        """Return the breakdown as (component, KiB) rows, like Table II."""
        return [
            ("FLP weight tables", self.flp_weight_tables),
            ("FLP page buffer", self.flp_page_buffer),
            ("SLP weight tables", self.slp_weight_tables),
            ("SLP page buffer", self.slp_page_buffer),
            ("Load Queue metadata", self.load_queue_metadata),
            ("L1D MSHR metadata", self.mshr_metadata),
            ("Total", self.total),
        ]


def tlp_storage_breakdown(
    tlp: TwoLevelPerceptron | None = None,
    load_queue_entries: int = DEFAULT_LOAD_QUEUE_ENTRIES,
    l1d_mshrs: int = DEFAULT_L1D_MSHR_ENTRIES,
) -> StorageBreakdown:
    """Compute the Table II storage breakdown for a TLP instance."""
    instance = tlp if tlp is not None else TwoLevelPerceptron()
    bits_to_kib = 1.0 / 8.0 / 1024.0
    flp_weights = instance.flp.perceptron.storage_bits() * bits_to_kib
    flp_pages = instance.flp.history.storage_bits() * bits_to_kib
    slp_weights = instance.slp.perceptron.storage_bits() * bits_to_kib
    slp_pages = instance.slp.history.storage_bits() * bits_to_kib
    lq_metadata = load_queue_entries * LOAD_QUEUE_METADATA_BITS * bits_to_kib
    mshr_metadata = l1d_mshrs * MSHR_METADATA_BITS * bits_to_kib
    return StorageBreakdown(
        flp_weight_tables=flp_weights,
        flp_page_buffer=flp_pages,
        slp_weight_tables=slp_weights,
        slp_page_buffer=slp_pages,
        load_queue_metadata=lq_metadata,
        mshr_metadata=mshr_metadata,
        components={
            "flp": flp_weights + flp_pages,
            "slp": slp_weights + slp_pages,
            "load_queue": lq_metadata,
            "mshr": mshr_metadata,
        },
    )
