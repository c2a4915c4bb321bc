"""BSDEs and reflected BSDEs driven by finite-state Markov-chain
martingales, with American-option superhedging in the chain market model.
"""

__version__ = "0.1.0"

from .bsde import (BsdeSolution, MarkovDriver, comparison_check,
                   discount_driver, pathwise_residual, solve_bsde, zero_driver)
from .chain import (ChainSpec, PathBatch, build_chain_spec,
                    check_contraction, draw_paths, martingale_path, pseudoinverse,
                    psi_matrix, rate_bound_m, seminorm_sq, simulate_path)
from .grids import StateGridFunction, uniform_grid
from .hedge import (HedgeStrategy, contraction_report, discounted_value_check,
                    extract_hedge, make_hedge_driver, price_american, replicate_forward)
from .market import (MarketSpec, StockCurves, build_market_spec, gamma_matrix,
                     sdf_dynamics_residual, sdf_path, short_rate, sigma_matrix,
                     stock_curves, stock_sde_residual, terminal_sdf)
from .montecarlo import (McEstimate, european_consistency, isometry_check,
                         mc_estimate)
from .rbsde import (Obstacle, RbsdeSolution, constant_obstacle,
                    optimal_stop_time, penalization_limit, skorokhod_integral,
                    solve_penalized, solve_reflected)
