"""The public names of the package, pinned: adding or removing one is a
deliberate change to this list."""

import os
import types
from pathlib import Path

import ramsey_p5

PUBLIC_NAMES = {
    # canon
    "CANON_MAX", "OrderTooLarge", "canonical_key",
    # checks
    "Claim1Report", "Lemma1Report", "Lemma3Report", "claim1_check",
    "lemma1_check", "lemma3_check",
    # colouring
    "Certificate", "CertificateError", "CertificateReport", "EdgeColouring",
    "MonoPath", "UnsupportedWitness", "WitnessBudgetExhausted", "find_mono_p5",
    "lift", "ramsey_value", "read_certificate", "verify_certificate",
    "witness", "write_certificate",
    # designs
    "Design", "DesignParseError", "DesignSearchResult", "DesignVerdict",
    "InfeasibleParameters", "ResolutionVerdict", "design_to_colouring",
    "pair_coverage", "read_design", "search_design",
    "verify_design", "verify_resolution", "write_design",
    # engine
    "ParameterError", "SearchBudget", "SearchConfig", "SearchStats", "Verdict",
    "ramsey_verify",
    # graphs
    "Graph", "complete", "connected_components", "cycle_graph",
    "disjoint_union", "ex_p5", "extremal_p5", "find_path", "path_graph",
    "star_graph",
    # pfree
    "ENUM_MAX_ORDER", "component_catalogue", "enumerate_p5_free",
}


def test_public_names_are_pinned():
    # Submodules become package attributes once anything imports them, so
    # they are left out; the list is of the names __init__ binds.
    exported = {name for name, value in vars(ramsey_p5).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert exported - PUBLIC_NAMES == set(), "unlisted public name"
    assert PUBLIC_NAMES - exported == set(), "listed name no longer exported"


def test_package_comes_from_pythonpath():
    """The suite tests the tree that PYTHONPATH names: the package is
    imported from the first PYTHONPATH entry that holds one, and with none
    from this checkout's src, which conftest.py appends to sys.path."""
    entries = [Path(os.path.abspath(p))
               for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    holding = [p for p in entries if (p / "ramsey_p5" / "__init__.py").is_file()]
    root = holding[0] if holding else Path(__file__).resolve().parents[1] / "src"
    assert Path(ramsey_p5.__file__).resolve().is_relative_to(root.resolve())
