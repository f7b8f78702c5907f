"""Sensitivity and block sensitivity of Boolean graph/hypergraph properties.

The package bundles exact finite-field arithmetic, low-intersection set
families built from polynomial evaluation, bitset hypergraphs, the studied
Boolean properties, exact sensitivity/block-sensitivity engines, witness
constructions that certify lower bounds, and a scaling harness that fits
log-log exponents.
"""

__version__ = "0.1.0"

from .errors import DomainError
from .families import SetFamily, generate_family, trim_sets, verify_family
from .gf import (
    Field,
    FieldPoly,
    make_field,
    prime_power,
    prime_power_in_range,
)
from .hypergraphs import (
    Hypergraph,
    boundary_count,
    rank_subset,
    unrank_subset,
)
from .properties import (
    CyclicRubinsteinProperty,
    EvalResult,
    IsolatedCliqueProperty,
    IsolatedTriangleProperty,
    IsolatedVertexProperty,
    Property,
    RubinsteinProperty,
    property_from_json,
    rotate_left,
)
from .rng import SplitMix64
from .scaling import (
    FitResult,
    ScalingRow,
    fit_exponent,
    rows_from_csv,
    rows_to_csv,
    run_scan,
)
from .sensitivity import (
    BlockCertificate,
    BlockSensitivity,
    SensitiveTuple,
    SensitivityReport,
    block_sensitivity_exact,
    certify_blocks,
    enumerate_sensitive_tuples,
    evaluate_batch,
    minimal_sensitive_blocks,
    sensitivity_at,
    sensitivity_global,
)
from .witnesses import (
    Packing,
    build_family_witness,
    build_isolated_vertex_witness,
    build_s0_witness,
    build_s1_witness,
    clique_packing,
    packing_edge_blocks,
    plan_family_witness,
    s1_witness_counts,
    select_vertex_disjoint,
    triangle_packing,
)
