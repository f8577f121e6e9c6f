"""Distance correlation for categorical data under general encodings.

Measures, tests, and screens dependence between categorical variables
whose levels are embedded as points in Euclidean space (one-hot, equally
spaced ordinal, equally spaced semicircle, or custom geometries).  The
package provides population quantities for known joint distributions,
plug-in and bias-corrected sample estimators, analytic and permutation
null inference, delta-method confidence intervals, high-dimensional sure
screening with a slope-break threshold, and a simulation harness with six
canned benchmark scenarios.
"""

# A name is public exactly when its own module's ``__all__`` lists it: the
# package republishes each list (PEP 8's one use of a wildcard import).
from .encodings import *
from .estimators import *
from .exceptions import *
from .inference import *
from .measures import *
from .screening import *
from .simulate import *

__version__ = "0.1.0"
