"""qibc — worst-case integration on Lipschitz classes, a quantum query-model
simulator, and a qubit-complexity lower-bound checker.

The package is organized bottom-up:

* :mod:`qibc.exceptions` — the error hierarchy behind the CLI exit codes;
* :mod:`qibc.functions` — serializable input functions with exact integrals;
* :mod:`qibc.information` — envelopes, the radius of information, optimal
  designs, ``m(eps)``, classical query complexity;
* :mod:`qibc.adversary` — fooling pairs and quadrature foiling;
* :mod:`qibc.simulator` — simulation of unitary layers interleaved with bit
  queries, on one basis label for permutation-plus-phase circuits and on a
  dense state vector otherwise; exact outcome distributions;
* :mod:`qibc.circuits` — built-in algorithms (reversible midpoint rule,
  amplitude estimation) and the bundled bound fixture;
* :mod:`qibc.bounds` — local/worst error functionals, outcome extraction,
  and the qubit lower-bound checker.

Every name in the ``__all__`` of those seven modules is re-exported here, and
those lists are the only registry of public names. :mod:`qibc.serialize`
(deterministic JSON/CSV formatting) and :mod:`qibc.cli` (the ``qibc``
command-line front end) are not re-exported.
"""

from .exceptions import *
from .functions import *
from .information import *
from .adversary import *
from .simulator import *
from .circuits import *
from .bounds import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *exceptions.__all__,
    *functions.__all__,
    *information.__all__,
    *adversary.__all__,
    *simulator.__all__,
    *circuits.__all__,
    *bounds.__all__,
]
