"""Simulation library for rainbow substructures of randomly edge-coloured
sparse random graphs: samplers, structural decompositions, constructive
rainbow-tree/path/cycle finders, exact small-instance oracles and a seeded
Monte Carlo experiment harness.
"""

from .graphs import (ColouredGraph, CoreDecomposition, EmptyCoreError,
                     InvalidRootCountError, RootedForest, VertexPartition,
                     adjacency, connected_components,
                     core_forest_decomposition, forest_from_line,
                     forest_to_line, is_rainbow, read_edgelist,
                     subtree_sizes, two_core, write_edgelist)
from .models import (DegreeSequence, InvalidProbabilityError,
                     OddDegreeSumError, RngStream, RootTreeSizeSampler,
                     as_generator, colour_uniform, expected_colour_fraction,
                     sample_configuration, sample_gnp, sample_uniform_forest,
                     survival_probability)
from .finders import (ExplorationTrace, InvalidDeltaError, InvalidEpsilonError,
                      NotFoundError, PipelineReport, check_cycle,
                      close_cycle_edges, find_rainbow_cycle_weakly_super,
                      rbfs_forest, rdfs_longest_path, sprinkle_close_cycle,
                      subcritical_rainbow_tree, supercritical_rainbow_tree)
from .oracles import (TooLargeError, borel_pmf, enumerate_forests,
                      exact_max_rainbow_tree,
                      exact_min_deleted_component_expectation, forest_count)
from .experiments import (EnvelopeCheck, ExperimentConfig, InvalidConfigError,
                          SummaryRow, exp_bridge_number, exp_cycle,
                          exp_giant_benchmark, exp_min_double_bridge,
                          exp_min_split, exp_phase_transition,
                          exp_tree_size_law, min_double_bridge_samples,
                          raw_records, write_csv)

__version__ = "0.1.0"
