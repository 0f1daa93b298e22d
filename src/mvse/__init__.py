"""Multi-space visual-semantic embedding for sentence-to-video retrieval.

Operates on precomputed visual features: global frame vectors, spatial
grid features, and per-video action vectors. Provides embedding heads,
sentence-conditioned spatial attention, gated similarity fusion, triplet
training and the fused similarity grid that retrieval ranks, all on a
small tape-based autodiff engine.
"""

from mvse.autodiff import Tensor, Tape, grad_check
from mvse.config import Dims, TripletConfig, SPACE_SETS

__all__ = ["Tensor", "Tape", "grad_check", "Dims", "TripletConfig", "SPACE_SETS"]

__version__ = "0.1.0"
