"""Neural network layers built on :mod:`repro.autograd`.

Replaces the ``torch.nn`` dependency of the original implementation with the
subset of layers STSM and the baselines need.
"""

from .attention import MultiHeadAttention, TransformerEncoderLayer, positional_encoding
from .gat import GraphAttention
from .layers import Conv1d, Dropout, LayerNorm, Linear, ReLU
from .loss import bce_loss, cosine_similarity_matrix, mse_loss, nt_xent_loss
from .module import Module, ModuleList, Parameter, Sequential
from .recurrent import GRU, GRUCell
from . import init

__all__ = [
    "Module",
    "ModuleList",
    "Parameter",
    "Sequential",
    "Linear",
    "Conv1d",
    "Dropout",
    "ReLU",
    "LayerNorm",
    "GRU",
    "GRUCell",
    "MultiHeadAttention",
    "TransformerEncoderLayer",
    "positional_encoding",
    "GraphAttention",
    "mse_loss",
    "bce_loss",
    "nt_xent_loss",
    "cosine_similarity_matrix",
    "init",
]
