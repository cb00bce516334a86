"""Sideband (modulational) stability of small-amplitude periodic waves.

The package builds small-amplitude periodic traveling waves of
rotation-modified dispersive model equations, classifies their stability
to long-wavelength sideband perturbations through a closed-form index,
and cross-validates every verdict with an independent truncated-Fourier
spectral solver.  See the README for the CLI surface.

The package exports the ``__all__`` of each library module (``critical``,
``errors``, ``floquet_hill``, ``mi_index``, ``stokes``, ``symbols``) and
nothing else but ``__version__``: a module's ``__all__`` is the one list
of its public names.  That includes the constants ``A_BOUND``, ``A_MAX``,
``XI_BOUND`` and ``T_DEGENERATE_TOL``, ``GroupVelocitySlope``,
``default_window`` and ``denominator_floor``.
"""

from . import critical, errors, floquet_hill, mi_index, stokes, symbols
from .critical import *  # noqa: F403
from .errors import *  # noqa: F403
from .floquet_hill import *  # noqa: F403
from .mi_index import *  # noqa: F403
from .stokes import *  # noqa: F403
from .symbols import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name for module in (critical, errors, floquet_hill, mi_index, stokes, symbols) for name in module.__all__
] + ["__version__"]
