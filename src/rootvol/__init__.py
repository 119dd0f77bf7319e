"""Exact verification and Monte Carlo estimation of root system cone fractions."""

from .diagram import (
    CartanMatrix,
    DecompositionLabel,
    InadmissibleLabelError,
    MarkedDiagram,
    NotFiniteTypeError,
    TypeLabel,
    cartan_of_decomposition,
    cartan_of_type,
    classify,
    classify_deletion,
    delete_node,
    extend,
    parse_decomposition,
    parse_label,
)
from .geometry import (
    ConeLocation,
    Embedding,
    PartitionReport,
    VolumeEstimate,
    embedding_for,
    locate_cone,
    montecarlo_nu,
    partition_check,
    planar_cone_fraction,
)
from .identity import (
    IdentityReport,
    NodeTerm,
    extended_diagram,
    gamma_set,
    node_terms,
    report_as_dict,
    report_as_text,
    verify_identity,
)
from .invariants import (
    degrees_of,
    degrees_of_type,
    exponents_from_heights,
    nu,
    nu_of,
    weyl_order,
)
from .rootsys import (
    CLOSURE_CEILING,
    ClosureCeilingError,
    Root,
    RootSystem,
    generate_roots,
    highest_root,
    reflection_matrix,
    system_of_type,
)
from .series import BinomialCheck, check_binomial_identity, series_coefficient
from .weylgrp import (
    DEFAULT_CAP,
    EnumerationCapError,
    ExpansionReport,
    GroupTable,
    SolomonReport,
    WeylElement,
    conjugacy_classes,
    coset_character,
    enumerate_group,
    group_table_of,
    reflection_subgroup,
    verify_companion,
    verify_restricted_expansion,
    verify_solomon,
    verify_steinberg,
)

__version__ = "0.1.0"
