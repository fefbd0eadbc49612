"""Slice rank bounding toolkit for 3-tensors.

Exact sparse tensor algebra over the rationals, flattening ranks,
degeneration verification, entropy-style block optimization, and the
bounding tools that turn them into asymptotic slice rank values and
matrix multiplication exponent limits.
"""

from .tensor_core import (
    BlockSet,
    RankFact,
    Tensor,
    VariablePartition,
    block_sum,
    blocks,
    cube_partition,
    cw_partition,
    cw_small_partition,
    direct_sum,
    is_minimal,
    is_variable_symmetric,
    make_cw,
    make_cw_small,
    make_cyclic,
    make_cyclic_lower,
    make_independent,
    make_matmul,
    make_t112,
    n_copies,
    partition_sum,
    rotate,
    singleton_partition,
    symmetric_cube,
    t112_partition,
    tensor_add,
    tensor_power,
    tensor_product,
    trimmed,
    trivial_partition,
)
from .rank_tools import (
    flattening,
    flattening_rank,
    max_flattening_rank,
    measure,
    recognize_matmul,
    slice_rank_flattening_bound,
    x_rank,
    y_rank,
    z_rank,
)
from .degeneration import (
    DegenerationMap,
    LambdaPoly,
    apply_degeneration,
    compose,
    identity_map,
    verify_degeneration,
    zeroing_to_block,
)
from .formats import (
    ParseError,
    parse_degeneration_map,
    parse_partition,
    parse_tensor,
    write_degeneration_map,
    write_partition,
    write_tensor,
)
from .optimizer import (
    Optimum,
    maximize_minmax,
    maximize_product,
    maximize_symmetric,
    objective_values,
    summand_optima,
)
from .bound_engines import (
    BoundReport,
    Inapplicable,
    LaserReadiness,
    NotLaserReady,
    block_measures_bound,
    cw_family_floor,
    cw_slice_rank_1d,
    cw_small_table,
    cw_table,
    laser_lower_bound,
    laser_readiness,
    omega_lower_bound,
    partition_bound,
    remove_x_bound,
    split_bound,
    sum_of_measures_bound,
    t112_value,
    tq_lower_table,
)

__version__ = "0.1.0"
