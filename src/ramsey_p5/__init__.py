"""Toolkit for the multicolour Ramsey numbers of the 5-vertex path: Turán
extremal analysis, design-based lower-bound colourings, exhaustive upper-bound
certification for few colours, and machine verification of the finite case
analyses.
"""

from .canon import CANON_MAX, OrderTooLarge, canonical_key
from .checks import (Claim1Report, Lemma1Report, Lemma3Report, claim1_check,
                     lemma1_check, lemma3_check)
from .colouring import (Certificate, CertificateError, CertificateReport,
                        EdgeColouring, MonoPath, UnsupportedWitness,
                        WitnessBudgetExhausted, find_mono_p5, lift,
                        ramsey_value, read_certificate, verify_certificate,
                        witness, write_certificate)
from .designs import (Design, DesignParseError, DesignSearchResult,
                      DesignVerdict, InfeasibleParameters, ResolutionVerdict,
                      design_to_colouring, pair_coverage,
                      read_design, search_design, verify_design,
                      verify_resolution, write_design)
from .engine import (ParameterError, SearchBudget, SearchConfig, SearchStats,
                     Verdict, ramsey_verify)
from .graphs import (Graph, complete, connected_components, cycle_graph,
                     disjoint_union, ex_p5, extremal_p5, find_path, path_graph,
                     star_graph)
from .pfree import ENUM_MAX_ORDER, component_catalogue, enumerate_p5_free

__version__ = "0.1.0"
