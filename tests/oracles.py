"""Reference implementations the production ops are checked against.

Each op oracle is composed only of primitive autograd ops, so its
gradients follow from the primitives' own (separately gradchecked)
backward passes.  They are deliberately slow and simple: the library
keeps one production path per op, and these live with the tests.

- :func:`dft_matrices` / :func:`spectral_filter_reference`: the
  frequency filter through explicit O(N^2) DFT matrices, the oracle for
  :func:`repro.autograd.spectral.spectral_filter`.
- :func:`attention_reference`: multi-head self-attention as three
  separate projections with an explicit score scale and head merge,
  the oracle for :class:`repro.nn.MultiHeadSelfAttention`.
- :func:`sequential_views_loss`: the multi-view contrastive objectives
  with one encoder walk per view, the oracle for the stacked
  ``(3B, N, d)`` pass of
  :meth:`repro.core.encoder.SequentialEncoderBase.encode_views`.
"""

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor, as_tensor
from repro.core.contrastive import info_nce_loss


def _mirror_weights(n: int) -> np.ndarray:
    """How often each half-spectrum bin appears in the full spectrum."""
    w = np.full(n // 2 + 1, 2.0)
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = 1.0
    return w


def dft_matrices(n: int, dtype=np.float64):
    """Explicit real DFT matrices mapping time <-> half spectrum.

    Returns ``(C, S, IC, IS)`` such that for a real signal ``x`` of
    length ``n`` with half spectrum ``X = Xr + i*Xi``::

        Xr = C @ x          Xi = S @ x
        x  = IC @ Xr + IS @ Xi
    """
    k = np.arange(n // 2 + 1)[:, None]
    t = np.arange(n)[None, :]
    angle = 2.0 * np.pi * k * t / n
    mirror = _mirror_weights(n)[:, None]
    cos_mat = np.cos(angle).astype(dtype)
    sin_mat = -np.sin(angle).astype(dtype)
    # Inverse: x_t = (1/n) * sum_k mirror_k * (Xr_k cos - Xi_k sin)
    icos = (mirror * np.cos(angle)).T.astype(dtype) / n
    isin = (-(mirror * np.sin(angle))).T.astype(dtype) / n
    return cos_mat, sin_mat, icos, isin


def spectral_filter_reference(x, w_real, w_imag, mask) -> Tensor:
    """One band-limited complex filter applied through DFT matrices.

    Mathematically ``irfft(rfft(x, axis=1) * mask * (w_real + i*w_imag))``
    but O(N^2) and built from matmuls, so gradient correctness follows
    from the primitive ops.
    """
    x, w_real, w_imag = as_tensor(x), as_tensor(w_real), as_tensor(w_imag)
    n = x.shape[1]
    mask = np.asarray(mask, dtype=x.dtype)
    if mask.ndim == 1:
        mask = mask[:, None]
    cos_mat, sin_mat, icos, isin = dft_matrices(n, dtype=x.dtype)

    # (B, N, d) -> (B, M, d): contract the time axis.
    xt = F.transpose(x, (0, 2, 1))  # (B, d, N)
    xr = F.transpose(F.matmul(xt, Tensor(cos_mat.T)), (0, 2, 1))  # (B, M, d)
    xi = F.transpose(F.matmul(xt, Tensor(sin_mat.T)), (0, 2, 1))

    wr = F.mul(w_real, Tensor(mask))
    wi = F.mul(w_imag, Tensor(mask))
    # Zero the imaginary filter part on bins whose mirror weight is 1
    # (DC / Nyquist): irfft ignores those components for real output.
    anti = _mirror_weights(n)[:, None] - 1.0  # 0 at DC/Nyquist, 1 inside
    wi = F.mul(wi, Tensor(anti.astype(x.dtype)))

    yr = F.sub(F.mul(xr, wr), F.mul(xi, wi))
    yi = F.add(F.mul(xr, wi), F.mul(xi, wr))

    yr_t = F.transpose(yr, (0, 2, 1))  # (B, d, M)
    yi_t = F.transpose(yi, (0, 2, 1))
    out = F.add(F.matmul(yr_t, Tensor(icos.T)), F.matmul(yi_t, Tensor(isin.T)))
    return F.transpose(out, (0, 2, 1))


def spectral_mix_reference(x, branches) -> Tensor:
    """``Σ weight · spectral_filter_reference(x, branch)`` over branches."""
    out = None
    for w_real, w_imag, mask, weight in branches:
        term = F.mul(spectral_filter_reference(x, w_real, w_imag, mask), weight)
        out = term if out is None else F.add(out, term)
    return out


def attention_reference(attn, x, key_padding_mask=None) -> Tensor:
    """``attn``'s forward as three projections and explicit head merges.

    Uses ``attn``'s own parameters and attention-dropout module, so a
    second module built from the same seed draws the same masks.  The
    blocked pattern is ``(causal | padding) & ~eye``: each query's own
    position stays attendable, so fully padded rows cannot produce NaN.
    """
    x = as_tensor(x)
    batch, length, dim = x.shape
    heads, head_dim = attn.num_heads, attn.head_dim

    block = np.zeros((batch, 1, length, length), dtype=bool)
    if attn.causal:
        block |= np.triu(np.ones((length, length), dtype=bool), k=1)
    if key_padding_mask is not None:
        block |= key_padding_mask[:, None, None, :]
    block &= ~np.eye(length, dtype=bool)

    def split(t):
        return F.transpose(F.reshape(t, (batch, length, heads, head_dim)), (0, 2, 1, 3))

    q, k, v = split(attn.query(x)), split(attn.key(x)), split(attn.value(x))
    scores = F.matmul(q, F.transpose(k, (0, 1, 3, 2)))  # (B, H, N, N)
    scores = F.mul(scores, 1.0 / np.sqrt(head_dim))
    scores = F.masked_fill(scores, block, -1e9)
    probs = attn.attn_dropout(F.softmax(scores, axis=-1))
    context = F.transpose(F.matmul(probs, v), (0, 2, 1, 3))  # (B, N, H, hd)
    return attn.out(F.reshape(context, (batch, length, dim)))


def sequential_views_loss(model, batch) -> Tensor:
    """A contrastive model's training loss with three separate encodes.

    Covers SLIME4Rec and DuoRec (Eq. 36: main pass, dropout view of the
    same input, same-target view) and CL4SRec/CoSeRec (main pass, two
    augmented views).  The views are encoded one ``(B, N, d)`` walk at
    a time, in the order the stacked pass stacks them, so every dropout
    and augmentation generator is consumed exactly as in
    ``model.loss``.  Without contrastive views (``cl_weight <= 0`` or no
    same-target positives) it is the plain recommendation loss.
    """

    def last_state(input_ids):
        return F.getitem(model.encode_states(input_ids), (slice(None), -1))

    settings = getattr(model, "config", model)  # SLIME4Rec keeps cl_* on its config
    augment = getattr(model, "_augment_batch", None)
    if settings.cl_weight <= 0.0 or (augment is None and batch.positive_ids is None):
        return model.prediction_loss(last_state(batch.input_ids), batch.targets)
    rec = model.prediction_loss(last_state(batch.input_ids), batch.targets)
    if augment is None:
        view_a = last_state(batch.input_ids)
        view_b = last_state(batch.positive_ids)
    else:
        view_a = last_state(augment(batch.input_ids))
        view_b = last_state(augment(batch.input_ids))
    cl = info_nce_loss(view_a, view_b, temperature=settings.cl_temperature)
    return F.add(rec, F.mul(cl, settings.cl_weight))
