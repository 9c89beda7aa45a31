"""The paper's contribution: projections, conditions, Quick-Probe, ProMIPS —
plus the shared batch query engine every index builds on."""

from repro.core.batch import BatchStats, search_batch
from repro.core.engine import (
    CandidateVerifier,
    TopK,
    batch_inner_products,
    batch_topk,
    merge_topk_panels,
    project_batch,
    topk_ids_scores,
)
from repro.core.binary_codes import (
    BinaryCodeGroups,
    group_lower_bounds,
    pack_code,
    sign_bits,
)
from repro.core.conditions import (
    compensation_radius,
    condition_a_holds,
    condition_b_holds,
    guarantee_denominator,
)
from repro.core.dynamic import DynamicProMIPS
from repro.core.maintenance import (
    MaintenanceEngine,
    RebuildTicket,
    maintenance_targets,
)
from repro.core.optimal_dim import optimized_projection_dim, quickprobe_cost
from repro.core.persist import inspect_index, load_index, save_index
from repro.core.projection import StableProjection
from repro.core.rng import resolve_rng
from repro.core.promips import ProMIPS, ProMIPSParams
from repro.core.quickprobe import ProbeOutcome, QuickProbe

__all__ = [
    "BatchStats",
    "search_batch",
    "CandidateVerifier",
    "TopK",
    "batch_inner_products",
    "batch_topk",
    "merge_topk_panels",
    "project_batch",
    "topk_ids_scores",
    "DynamicProMIPS",
    "MaintenanceEngine",
    "RebuildTicket",
    "maintenance_targets",
    "load_index",
    "save_index",
    "inspect_index",
    "resolve_rng",
    "BinaryCodeGroups",
    "group_lower_bounds",
    "pack_code",
    "sign_bits",
    "compensation_radius",
    "condition_a_holds",
    "condition_b_holds",
    "guarantee_denominator",
    "optimized_projection_dim",
    "quickprobe_cost",
    "StableProjection",
    "ProMIPS",
    "ProMIPSParams",
    "ProbeOutcome",
    "QuickProbe",
]
