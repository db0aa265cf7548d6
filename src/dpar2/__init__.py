"""PARAFAC2 decomposition of irregular dense tensors.

Two solvers share one model (X_k ~ Q_k H S_k V^T): a plain alternating
least squares baseline that touches the raw slices every iteration, and a
compressed solver that sketches the tensor once with two randomized-SVD
stages and then iterates entirely on R x R blocks.
"""
from .analysis import (
    RwrParams,
    SimilarityGraph,
    build_similarity_graph,
    fitness,
    knn,
    pcc_matrix,
    rwr,
    similarity,
)
from .baseline import cp_als_step, fit_baseline
from .compress import CompressedTensor, compress, reconstruct_slice
from .factors import FitTrace, Parafac2Factors, SolverOptions, initial_factors, load_factors, save_factors
from .linalg import RsvdParams, SvdTriple, pinv_small, randomized_svd, truncated_svd
from .scheduler import PartitionPlan, greedy_partition, parallel_slice_map, resolve_threads
from .solver import (
    RotationStack,
    convergence_metric,
    fit_dpar2,
    mttkrp_mode1,
    mttkrp_mode2,
    mttkrp_mode3,
    update_factors,
    update_rotations,
)
from .tensor import (
    IrregularTensor,
    SyntheticSpec,
    generate,
    load_archive,
    load_csv_dir,
    save_archive,
)

__version__ = "0.1.0"

__all__ = [
    "CompressedTensor",
    "FitTrace",
    "IrregularTensor",
    "Parafac2Factors",
    "PartitionPlan",
    "RotationStack",
    "RsvdParams",
    "RwrParams",
    "SimilarityGraph",
    "SolverOptions",
    "SvdTriple",
    "SyntheticSpec",
    "build_similarity_graph",
    "compress",
    "convergence_metric",
    "cp_als_step",
    "fit_baseline",
    "fit_dpar2",
    "fitness",
    "generate",
    "greedy_partition",
    "initial_factors",
    "knn",
    "load_archive",
    "load_csv_dir",
    "load_factors",
    "mttkrp_mode1",
    "mttkrp_mode2",
    "mttkrp_mode3",
    "parallel_slice_map",
    "pcc_matrix",
    "pinv_small",
    "randomized_svd",
    "reconstruct_slice",
    "resolve_threads",
    "rwr",
    "save_archive",
    "save_factors",
    "similarity",
    "truncated_svd",
    "update_factors",
    "update_rotations",
]
