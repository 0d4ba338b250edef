"""Finite-algebra workbench for relevant-logic matrix semantics.

The package is organized around six modules, each importing only those
listed before it:

- `relog.algebra`: finite algebras in the meet/join/fusion/neg signature,
  the axiom checklist, the builtin algebras, products, powers and quotients.
- `relog.morph`: the map search: homomorphisms, embeddings, isomorphisms
  and automorphisms.
- `relog.subcon`: subuniverse and congruence computation, simplicity,
  the HS class and the congruence extension property.
- `relog.amalgam`: spans, amalgamation in V(A) and extensibility.
- `relog.logic`: formulas, parsing and the consequence decision procedure.
- `relog.interp`: free algebras over a finite generator, interpolant
  synthesis for deducibility, and bounded variable-sharing scans.

Each public name is imported from its module on first use, so importing
one module loads only the modules it builds on.
"""

from importlib import import_module

_EXPORTS = {
    "algebra": "AXIOM_NAMES AxiomReport BUILTIN_NAMES FiniteAlgebra arrow builtin "
               "builtin_belnap_m builtin_boolean2 builtin_crystal load_algebra "
               "load_algebra_file power product quotient serialize subalgebra "
               "validate_relevant_algebra",
    "morph": "Morphism automorphisms embeddings homomorphisms isomorphisms",
    "subcon": "CepWitness Congruence all_subuniverses check_cep_class check_cep_pair "
              "congruence_lattice full_congruence generated_subuniverse hs_class "
              "identity_congruence is_fsi is_simple principal_congruence",
    "amalgam": "Amalgam Span all_spans amalgamate_span is_extensible",
    "logic": "And EntailmentVerdict Formula Fuse Not Or R_THEOREM_SCHEMATA Var "
             "arrow_formula designating_valuations entails evaluate parse_formula "
             "parse_premises theorem verify_countermodel",
    "interp": "FreeAlgebra InterpolationResult deductive_interpolant free_algebra "
              "maehara_interpolant verify_interpolant vsp_scan",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
