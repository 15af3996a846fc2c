"""Zidian core: preservation, scan-free analysis, planning, QCS, T2B."""

from repro.core.closure import closure, closures
from repro.core.middleware import QueryDecision, Zidian
from repro.core.plangen import PlanGenerator, ZidianPlan
from repro.core.preservation import (
    PreservationReport,
    ResultPreservationReport,
    is_data_preserving,
    is_result_preserving,
)
from repro.core.qcs import QCS, extract_qcs, extract_workload_qcs
from repro.core.scanfree import (
    BoundedReport,
    GetResult,
    ScanFreeReport,
    VCEntry,
    compute_get,
    compute_vc,
    is_bounded,
    is_scan_free,
)
from repro.core.t2b import Suggestion, T2BReport, design_schema, suggest_schemas

__all__ = [
    "BoundedReport",
    "GetResult",
    "PlanGenerator",
    "PreservationReport",
    "QCS",
    "QueryDecision",
    "ResultPreservationReport",
    "ScanFreeReport",
    "Suggestion",
    "T2BReport",
    "VCEntry",
    "Zidian",
    "ZidianPlan",
    "closure",
    "closures",
    "compute_get",
    "compute_vc",
    "design_schema",
    "suggest_schemas",
    "extract_qcs",
    "extract_workload_qcs",
    "is_bounded",
    "is_data_preserving",
    "is_result_preserving",
    "is_scan_free",
]
