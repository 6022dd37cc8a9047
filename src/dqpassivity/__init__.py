"""Small-signal D-Q transmission-network models and passivity analysis.

Derives the wide-band D-Q admittance Y_DQ of an R-L-C network from one
element table, re-expresses it in the polar interface variables used by power
control (bus angle / frequency deviation, normalized voltage magnitude
and its derivative, active and reactive power), and mechanically tests
each formulation against the positive-real passivity conditions. The
low-frequency load-flow Jacobian can be passivated with Q-V droop
contributions from shunt-connected devices.

The public names are each layer module's `__all__`.
"""

from .dqstamp import *
from .netcase import *
from .passcheck import *
from .passivate import *
from .polarmodels import *
from .powerflow import *

__version__ = "0.1.0"
