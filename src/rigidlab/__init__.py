"""rigidlab: exact deciders and simulations for mixing/rigidity of integer
sequence families."""

import sys

# Schedule indices and measure denominators grow to tens of thousands of
# digits; the default str(int) guard would reject serializing them.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(max(2_000_000, sys.get_int_max_str_digits()))

from .behrend import behrend_certificate, behrend_set, verify_behrend
from .circleset import CircleSet
from .deciders import (
    all_splits,
    interpolation_condition,
    is_rigidity_group,
    poly_group_condition,
    split_feasible,
    split_witness_group,
)
from .demos import cor65_demo, cor66_demo, cor67_demo
from .families import (
    SequenceFamily,
    beatty_family,
    detect_relations,
    evaluate,
    explicit_family,
    is_adequate,
    polynomial_family,
    reduce_family,
    relation_group,
)
from .gaussians import gaussian_pair_mass, verify_gaussian_transfer
from .haar import FactorPattern, haar_correlation_limit
from .lattice import (
    Lattice,
    annihilator,
    canonicalize,
    character_integral,
    coordinate_image_gcd,
    finite_index_extension,
    index_in_ambient,
    intersect_coordinate_subspace,
    kernel,
    lattice_sum,
    member,
)
from .measure import (
    AtomicMeasure,
    build_measure_for_group,
    fourier_coefficient,
    pushforward_scale,
    sample_sigma,
    verify_dichotomy,
)
from .schedule import Schedule, build_schedule, check_schedule
from .skew import fs_tail, skew_correlation

__all__ = [name for name in dir() if not name.startswith("_")]
