"""Hom complexes of graphs, their Z2-equivariant mod-2 topology, and
chromatic-number test-graph checks."""

from .errors import (FreenessError, HomlabError, InputError, InvariantError,
                     ResourceLimitError)
from .graphs import (Graph, GraphMap, RetractionWitness, Z2Graph, builtin,
                     chromatic_number, complete, complete_flip,
                     connected_graphs, cycle, cycle_reflection,
                     find_retraction_to_edge, is_graph_map,
                     paper_T, paper_f, paper_gamma1, paper_gamma2,
                     search_equivariant_map)
from .hom import (CertificateCheck, HomPoset, PathCertificate, enumerate_hom,
                  find_path, induced_involution, induced_map, iter_graph_maps,
                  verify_certificate)
from .complexes import (CellComplex, CocycleClass, ConnResult, HeightResult,
                        betti_mod2, conn_proxy, cup_power, hom_complex,
                        is_coboundary, order_complex, quotient_with_w1,
                        sw_height, unit_class)
from .bounds import (BoundReport, PipelineReport, StageResult, bound_suite,
                     check_ht_bound, check_swt_bound, theorem1_pipeline,
                     theorem2_pipeline)
from .serialize import (bundled_fig3_certificate, certificate_from_json,
                        certificate_to_json, graph_from_json, graph_signature,
                        graph_to_json, load_certificate, load_graph,
                        load_graph_map, load_involution)

__version__ = "0.1.0"
