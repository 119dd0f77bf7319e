"""Exact verification and Monte Carlo estimation of root system cone fractions.

The public names below are resolved on first use, each from its module, so
that importing the package, or a module of it that needs no numpy, loads
neither numpy nor the modules it does not use.
"""

from __future__ import annotations

import importlib

# Public name -> the module that defines it.
_EXPORTS = {
    "CartanMatrix": "diagram",
    "DecompositionLabel": "diagram",
    "InadmissibleLabelError": "diagram",
    "MarkedDiagram": "diagram",
    "NotFiniteTypeError": "diagram",
    "TypeLabel": "diagram",
    "cartan_of_decomposition": "diagram",
    "cartan_of_type": "diagram",
    "classify": "diagram",
    "classify_deletion": "diagram",
    "classify_deletions": "diagram",
    "extend": "diagram",
    "parse_decomposition": "diagram",
    "parse_label": "diagram",
    "Embedding": "geometry",
    "PartitionReport": "geometry",
    "VolumeEstimate": "geometry",
    "embedding_for": "geometry",
    "montecarlo_nu": "geometry",
    "partition_check": "geometry",
    "planar_cone_fraction": "geometry",
    "IdentityReport": "identity",
    "NodeTerm": "identity",
    "extended_diagram": "identity",
    "gamma_set": "identity",
    "node_terms": "identity",
    "report_as_dict": "identity",
    "report_as_text": "identity",
    "verify_identity": "identity",
    "degrees_of": "invariants",
    "degrees_of_type": "invariants",
    "exponents_from_heights": "invariants",
    "nu": "invariants",
    "nu_of": "invariants",
    "weyl_order": "invariants",
    "CLOSURE_CEILING": "rootsys",
    "ClosureCeilingError": "rootsys",
    "RootSystem": "rootsys",
    "generate_roots": "rootsys",
    "system_of_type": "rootsys",
    "BinomialCheck": "series",
    "check_binomial_identity": "series",
    "series_coefficient": "series",
    "DEFAULT_CAP": "invariants",
    "EnumerationCapError": "invariants",
    "ExpansionReport": "weylgrp",
    "GroupTable": "weylgrp",
    "SolomonReport": "weylgrp",
    "conjugacy_classes": "weylgrp",
    "coset_character": "weylgrp",
    "enumerate_group": "weylgrp",
    "group_table_of": "weylgrp",
    "reflection_subgroup": "weylgrp",
    "verify_companion": "weylgrp",
    "verify_restricted_expansion": "weylgrp",
    "verify_solomon": "weylgrp",
    "verify_steinberg": "weylgrp",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
