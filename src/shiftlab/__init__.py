"""shiftlab: numerics for weighted backward shift dynamics on l^p spaces.

The package has three layers:

* ``seqspace``:   exact finitely supported l^p vectors, weight-sequence
                  generators, and the weighted backward shift itself.
* ``conjugacy``:  the nonlinear homeomorphisms that conjugate one constant
                  weighted shift to another, plus residual certification.
* ``dynamics``:   chaotic / mixing / transitive classification through the
                  running weight product, example operators, orbit traces.

``shiftlab.cli`` exposes all of it as a command line tool.  The public
names of each layer are its module's ``__all__``; the package re-exports
them, and ``__all__`` here is ``__version__`` followed by those three lists.
"""

from . import conjugacy, dynamics, seqspace
from .seqspace import *
from .conjugacy import *
from .dynamics import *

__version__ = "0.1.0"

__all__ = ["__version__", *seqspace.__all__, *conjugacy.__all__, *dynamics.__all__]
