"""Toolkit for the multicolour Ramsey numbers of the 5-vertex path: Turán
extremal analysis, design-based lower-bound colourings, exhaustive upper-bound
certification for few colours, and machine verification of the finite case
analyses.
"""

from .canon import CANON_MAX, OrderTooLarge, canonical_key
from .checks import (Claim1Report, Lemma1Report, Lemma3Report, claim1_check,
                     lemma1_check, lemma3_check)
from .colouring import (Certificate, CertificateError, CertificateReport,
                        EdgeColouring, MonoPath, PigeonholeReport,
                        UnsupportedWitness, WitnessBudgetExhausted,
                        find_mono_p5, lift, max_mono_component_order,
                        pigeonhole_check, ramsey_value, read_certificate,
                        verify_certificate, witness, write_certificate)
from .designs import (Design, DesignParseError, DesignSearchResult,
                      DesignVerdict, InfeasibleParameters, LiftPathError,
                      PairCoverage, ResolutionVerdict,
                      design_to_colouring, g_of_r, leave_graph, pair_coverage,
                      read_design, search_design, verify_design,
                      verify_resolution, write_design)
from .engine import (ParameterError, SearchBudget, SearchConfig, SearchStats,
                     Verdict, ramsey_verify)
from .graphs import (Graph, TuranForm, complement, complete, connected_components,
                     contains_clique, contains_path, cycle_graph, diameter,
                     disjoint_union, empty_graph, ex_p5, extremal_p5, find_path,
                     is_connected, path_graph, star_graph, to_text, union)
from .pfree import ENUM_MAX_ORDER, component_catalogue, enumerate_p5_free

__version__ = "0.1.0"
