"""Cache-enabled cluster radio access: capacity analysis and allocation games.

The package models a pool of radio heads on a disk serving cached and
backhauled content under statistical delay constraints, and allocates
radio heads and resource blocks by coalition formation.  Analytic results
live in :mod:`crancache.effcap`, Monte Carlo checks in
:mod:`crancache.simkit`, the games in :mod:`crancache.games`, and the
command-line front end in :mod:`crancache.cli`.
"""

from .content import (ClusterCache, ContentCatalog, hit_ratio, select_random_k,
                      select_top_k, zipf_popularity)
from .effcap import (Quantizer, RadioParams, a_beta, avg_eff_cap_cluster,
                     avg_eff_cap_content, caching_gain, eff_cap_user,
                     l_func_limited, outage_prob, per_content_eff_caps,
                     required_spectral_efficiency, u_func)
from .energy import PowerModel, eta_cluster, eta_rru, power_delta
from .errors import (ConvergenceError, CoverageError, CrancacheError,
                     DomainError, InfeasibleBackhaulError, ParameterError,
                     StabilityViolationError)
from .games import (AllocationResult, ClusterInstance, RrhPartition,
                    check_nash_stable, coalition_eff_cap, coalition_value,
                    full_reuse_allocate, hedonic_rrh_association,
                    nested_allocate, orthogonal_allocate, prune_sleep_rrhs,
                    random_instance, rrh_payoff, shapley_values,
                    suboptimal_allocate)
from .geometry import (DensityConfig, NetworkRealization, sample_network,
                       sample_ppp, substream, thin_by_content)
from .qos import (QosProfile, delay_violation_prob, min_backhaul_rate,
                  theta_cloud_from_cluster)
from .scenario import Scenario, load_scenario
from .simkit import McEstimate, mc_eff_cap, sample_sinr_batch

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
