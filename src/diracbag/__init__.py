"""One-dimensional confined Dirac particle with a linear potential.

Subpackages:

* ``bagmodel``  - model parameters, closed-form modes (massless, and
  lam = 0 at any mass), quadrature
* ``shooting``  - general eigensolver (levels solved by their Pruefer index)
* ``oracle``    - independent finite-difference eigensolver for validation
* ``perturb``   - first/second-order energy shifts under two occupancy
  prescriptions, compared with the exact shift
* ``cli``       - deterministic command-line front end (JSON/CSV)
"""

from .bagmodel import BagConfig, ClosedFormMode, Mode, closed_form_mode, eval_mode, massless_levels, overlap
from .shooting import Spectrum, exact_shift, find_levels, shoot
from .perturb import PAULI, FEYNMAN, ShiftReport, compare, first_order, second_order, x_matrix_element

__version__ = "1.0.0"
