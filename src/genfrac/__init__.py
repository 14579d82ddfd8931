"""genfrac: numerics for Cauchy problems with Bernstein-type memory derivatives.

Kernels of a special Bernstein function (potential density, potential
distribution, jump tail) are tabulated with singularity-aware product
integration; on top of them sit the memory integral/derivative pair, a
Picard solver with certified horizon and contraction weights,
eigenfunction evaluation by series / Laplace inversion / Monte Carlo, and
a verification harness for Grönwall-type bound chains.
"""

__version__ = "0.1.0"

from . import (bernstein, errors, grids, gronwall, kernels, laplace, mc, mittag, phiexp,
               problems, solver)
from .bernstein import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .grids import *  # noqa: F401,F403
from .gronwall import *  # noqa: F401,F403
from .kernels import *  # noqa: F401,F403
from .laplace import *  # noqa: F401,F403
from .mc import *  # noqa: F401,F403
from .mittag import *  # noqa: F401,F403
from .phiexp import *  # noqa: F401,F403
from .problems import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403

# the public names of every submodule but the command line, in alphabetical order
__all__ = [
    name
    for module in (bernstein, errors, grids, gronwall, kernels, laplace, mc, mittag, phiexp,
                   problems, solver)
    for name in module.__all__
]
