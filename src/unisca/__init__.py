"""Shared component analysis for unaligned multimodal linear mixtures."""

from .datagen import (DistributionSpec, LatentSpec, MixingModel, MixingTemplate,
                      SyntheticDataset, generate_dataset, preset,
                      sample_anchors)
from .distmatch import (Discriminator, KernelSpec, gan_value_and_grads,
                        hsic_biased, mmd2_unbiased)
from .metrics import (IdentReport, abs_pearson, evaluate_fit, leakage,
                      pair_match_error, retrieval_precision, theta_consistency)
from .numerics import (AdamState, grad_check, substream, sym_eig,
                       whitening_matrix)
from .solver import (AnchorSet, DivergenceError, FitResult, Projection,
                     SolverConfig, anchor_penalty, fit, fit_with_private,
                     load_model, save_model, whitening_penalty)

__version__ = "0.1.0"
