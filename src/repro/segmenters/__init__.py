"""Data segmenters: the second level of LANNS partitioning (Section 4).

Three strategies from the paper:

- :class:`RandomSegmenter` (RS) -- data-independent modulo segmenter;
  queries fan out to every segment.
- :class:`RandomHyperplaneSegmenter` (RH) -- a short tree of random
  hyperplanes with median splits (Randomized Partition Trees, Dasgupta &
  Sinha).
- :class:`ApdSegmenter` (APD) -- hyperplanes from the second-largest right
  singular vector of the data, approximating the sparsest cut (Approximate
  Principal Direction trees + spectral clustering).

Both hyperplane segmenters support *virtual* spill (queries near a split
go to both children) and *physical* spill (data near a split is stored in
both children); see Figure 3 and Table 7 of the paper.

:mod:`repro.segmenters.theory` implements the Definition 1 potential
functions, the Theorem 1 recall bounds and the Figure 4 approximation.
"""

from repro.segmenters.base import Segmenter, segmenter_from_dict
from repro.segmenters.random_segmenter import RandomSegmenter
from repro.segmenters.hyperplane import HyperplaneNode, HyperplaneTreeSegmenter
from repro.segmenters.rh import RandomHyperplaneSegmenter
from repro.segmenters.apd import ApdSegmenter, second_singular_vector
from repro.segmenters.kmeans_segmenter import KMeansSegmenter
from repro.segmenters.learner import learn_segmenter, make_segmenter

__all__ = [
    "Segmenter",
    "RandomSegmenter",
    "HyperplaneNode",
    "HyperplaneTreeSegmenter",
    "RandomHyperplaneSegmenter",
    "ApdSegmenter",
    "KMeansSegmenter",
    "second_singular_vector",
    "learn_segmenter",
    "make_segmenter",
    "segmenter_from_dict",
]
