"""Finite weighted-graph approximation of symmetric Dirichlet forms.

The library realizes a four-stage construction: a Markov semigroup's
difference quotients, their Galerkin restriction to a finite basis, a
mask onto an exhausting family of finite-measure sets, and conditional
expectation over joint level-set partitions.  Each stage is a bounded
Dirichlet form with an explicit finite-rank generator; the final stage
is exactly the energy form of a finite weighted graph, which this
package extracts, exports, and verifies against spectral oracles.
"""

from .errors import (
    ConfigError,
    DimensionMismatch,
    PartitionError,
    SolverError,
    SymmetryError,
)
from .measure import (
    AmbientSpace,
    CellPartition,
    OrthonormalBasis,
    StepFunction,
    condition_on_partition,
    uniform_interval_space,
)
from .models import (
    MarkovKernelModel,
    SpectralModel,
    birth_death_kernel,
    birth_death_model,
    builtin_models,
    get_model,
    load_spectral_table,
    neumann_model,
    random_kernel_model,
    ring_model,
)
from .pipeline import (
    Stage,
    StageForm,
    StageIndex,
    galerkin_projection,
    level_partition,
    semigroup_form,
    stage_generator,
)
from .graphs import (
    WeightedGraph,
    extract_graph,
    final_stage_graph,
    graph_energy,
    read_edge_list,
    read_graph_json,
    verify_identification,
    write_edge_list,
    write_graph_json,
)
from .convergence import (
    ConvergenceRecord,
    ResolventProbe,
    SweepGrid,
    TestVector,
    default_test_battery,
    eventually_nonincreasing,
    iterated_limit_sweep,
    resolvent_error,
    stage_resolvent,
)

__version__ = "0.1.0"
