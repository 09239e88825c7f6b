"""refinet: compile M-ary refinement recursions on CPwL curves into exact
ReLU networks, verified against direct-recursion oracles."""

from .cpwl import (AtomicTerm, CpwlCurve, ScalarCpwl, SpecialHat,
                   cpwl_combine, decompose_atomic, hat)
from .refinement import (DigitStream, RefinementOp, apply_v, apply_v_n,
                         cascade_eval, digit_residual, residual_iterate,
                         vectorize)
from .network import (ReluNetwork, lower_curve_1d, net_stats, passthrough,
                      post_affine, pre_affine, serial, load_network,
                      save_network)
from .planar import PlanarCpwlField, lower_planar_field
from .loop import LoopConfig, build_controller_field, embed
from .compiler import (CompiledIterate, atomic_unit_interval_net,
                       compile_homogeneous, product_gadget)
from .reductions import (FiniteStateSystem, anchor_mismatch, compile_affine,
                         compile_anchored, expand_stage_iterate, iterate_w,
                         stack_system)

__version__ = "0.1.0"
