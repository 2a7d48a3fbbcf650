"""Exact invariants for torus-knot link-surgery families.

The pipeline: Alexander polynomials of torus knots (closed formula, checked
against Fox calculus), the Torres specialization of the link polynomial,
Seiberg-Witten polynomials of the surgery manifolds X_p, and certificates
that the basic-class lower bounds grow without bound over the family.
"""

from . import family, fox, knots, laurent, surgery
from .family import *  # noqa: F403
from .fox import *  # noqa: F403
from .knots import *  # noqa: F403
from .laurent import *  # noqa: F403
from .surgery import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *laurent.__all__,
    *knots.__all__,
    *fox.__all__,
    *surgery.__all__,
    *family.__all__,
]
