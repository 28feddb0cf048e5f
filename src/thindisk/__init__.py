"""Self-gravity of infinitesimally thin gaseous disks.

Force fields from surface density via closed-form kernel tables convolved
with zero-padded FFTs, on uniform Cartesian and logarithmic polar grids,
plus softened and log-spectral baselines and a convergence-study harness.

Importing the package loads numpy alone: scipy is imported by the function
that calls it, so polar work never loads scipy and Cartesian work loads
``scipy.fft`` at its first kernel spectrum.
"""

from .analysis import (ConvergenceReport, error_norms, order_of_accuracy,
                       restrict_fine_to_coarse, run_convergence,
                       run_self_convergence, singular_trapezoid_study)
from .baselines import (KalnajsConfig, SofteningConfig, complex_gamma,
                        kalnajs_gamma_kernel, kalnajs_potential_axisym,
                        solve_softened_cartesian, spectral_transfer_kernel)
from .convolve import direct_convolve, fft_convolve
from .grids import CartesianGrid, PolarGrid, build_cartesian_grid, build_polar_grid
from .kernels_cartesian import (KernelTables, eval_cartesian_kernel,
                                tabulate_cartesian_kernels)
from .kernels_polar import (PolarKernelTables, eval_F, eval_H1, eval_H2,
                            eval_hole_kernel, eval_polar_kernel,
                            tabulate_polar_kernels)
from .models import (D2Disk, D2PairDisk, DensityField, LogSpiralDisk,
                     CallableModel, eval_density, sample_density)
from .solver import (ForceField, polar_potential, solve_cartesian,
                     solve_cartesian_direct, solve_polar, solve_polar_direct)

__version__ = "0.1.0"

__all__ = [
    "CartesianGrid", "PolarGrid", "build_cartesian_grid", "build_polar_grid",
    "D2Disk", "D2PairDisk", "LogSpiralDisk", "CallableModel", "DensityField",
    "eval_density", "sample_density",
    "KernelTables", "eval_cartesian_kernel", "tabulate_cartesian_kernels",
    "PolarKernelTables", "eval_F", "eval_H1", "eval_H2", "eval_polar_kernel",
    "eval_hole_kernel", "tabulate_polar_kernels",
    "fft_convolve", "direct_convolve",
    "ForceField", "solve_cartesian", "solve_cartesian_direct", "solve_polar",
    "solve_polar_direct", "polar_potential",
    "SofteningConfig", "KalnajsConfig", "solve_softened_cartesian",
    "complex_gamma", "spectral_transfer_kernel", "kalnajs_gamma_kernel",
    "kalnajs_potential_axisym",
    "ConvergenceReport", "error_norms", "order_of_accuracy",
    "restrict_fine_to_coarse", "run_convergence", "run_self_convergence",
    "singular_trapezoid_study",
]
