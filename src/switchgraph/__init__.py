"""Checkerboard switches on fixed-margin binary matrices.

The library studies the directed order that positive checkerboard
switches induce on the set of binary matrices with fixed row and column
sums: classification of its sinks (zebras), a constructive reachability
calculus between two matrices, and, on the symmetric/adjacency special
case, switch-driven maximisation of the spectral radius at fixed degrees.
"""

from .binmat import (
    NEGATIVE,
    POSITIVE,
    BinaryMatrix,
    Checkerboard,
    MatrixClass,
    Switch,
    apply_path,
    apply_switch,
    classify,
    complement,
    find_checkerboards,
    from_margins,
    potential,
    read_matrix,
    reflect_vertical,
    row_col_sums,
    unitary_decomposition,
    write_matrix,
)
from .errors import (
    DegenerateGraph,
    DimensionMismatch,
    InfeasibleMargins,
    InternalInvariantViolation,
    InvalidSwitch,
    MarginMismatch,
    MarginSumMismatch,
    MatrixFormatError,
    MotifNotFound,
    NonGraphical,
    SwitchGraphError,
)
from .graph import (
    Graph,
    SpectralReport,
    apply_sym_switch,
    assortativity,
    dense_spectral_radius,
    find_sym_checkerboards,
    gen_erdos_renyi,
    gen_small_world,
    gen_split_zebra,
    jacobi_eigenvalues,
    sort_by_degree,
    spectral_radius,
    zagreb,
)
from .optimize import Trajectory, TrajectoryStep, run, sample_negative_checkerboard
from .reach import (
    DiffMatrix,
    ReachVerdict,
    TGrid,
    build_path,
    check_conditions,
    compute_T,
    diff,
    reconstruct_diff,
    validate_path,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
