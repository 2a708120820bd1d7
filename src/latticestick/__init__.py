"""Lattice stick embeddings of spatial graphs from arc presentations."""

from .arcs import Arc, ArcPresentation, incident_levels, presentation, validate_presentation
from .assembly import apply_merges, assemble, build_full, normalize, straighten_arcs
from .bounds import arc_index_upper, construction_count, crossing_stick_bound
from .build import build_arc_diagram, build_component, side_slide
from .geom import LatticeEmbedding
from .graph import (
    ComponentClass,
    ComponentSpec,
    CutAttachment,
    CutTree,
    GraphCensus,
    SpatialGraphSpec,
    build_cut_tree,
    census,
    classify_component,
    derive_edges,
    validate_spec,
)
from .invariants import (
    GaussData,
    GraphDiagram,
    extract_knot_cycle,
    knot_determinant,
    project_generic,
)
from .validate import (
    AuditReport,
    StickCounts,
    audit_junctions,
    check_bound,
    check_self_avoiding,
    count_sticks,
    full_audit,
    reconstruct_graph,
)

__version__ = "0.1.0"
