"""Dense-tensor core with tape-based reverse-mode automatic differentiation.

Covers exactly the operator set the model needs: 1D valid convolution,
instance/layer normalization, GELU, affine maps, softmax, batched matmul,
and the elementwise/reduction glue to assemble losses. The central-difference
oracle that verifies its gradients is in ``gradcheck``.

GELU is the exact form x * Phi(x), Phi the normal CDF, not its tanh
approximation. For float64, and every dtype but float32, Phi comes from
scipy's ``erf``. For float32 it comes from ``_normal_cdf32``, built from
numpy's SIMD float32 ufuncs: scipy's float32 ``erf`` form took 2.3x as long
on a [32, 6000] array (2-vCPU Xeon, AVX-512), and it holds the GIL. On 12M
float32 points over [-8, 8] the kernel's Phi is within 1.7e-7 of float64
(scipy's form: 6.1e-8), and its GELU within 3.9e-7 (scipy's form: 4.5e-7).

Forward values are checked for finiteness after every op. Reductions run
in numpy or BLAS in a fixed order for a fixed BLAS thread count, so forward
and backward are bit-reproducible for fixed inputs on a given machine.

The conv stem's activations are time-major in memory: each [C, L] signal is
the transpose of a C-contiguous [L, C] array, so a conv window or a
per-channel statistic reads contiguous memory.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

from .errors import NonFiniteValue, ShapeMismatch

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))

# erfc(z) = t * exp(-z^2 + P(t)) with t = 1 / (1 + z/2), fractional error
# < 1.2e-7 for z >= 0: the Chebyshev fit ``erfcc`` of Press et al., Numerical
# Recipes, 2nd ed., section 6.2. Coefficients of t^0..t^9.
_ERFCC = (-1.26551223, 1.00002368, 0.37409196, 0.09678418, -0.18628806,
          0.27886807, -1.13520398, 1.48851587, -0.82215223, 0.17087277)
# The same polynomial in u = 1 - t, minus ln 2, so that exp(...) * t is
# Phi(-|x|) = erfc(z) / 2. Near x = 0 the sum in u has no cancellation, which
# in float32 cuts the kernel's largest Phi error from 2.3e-7 to 1.6e-7.
_PHI_TAIL_U = tuple(
    np.float32(c)
    for c in (
        np.polynomial.Polynomial(_ERFCC)(np.polynomial.Polynomial([1.0, -1.0]))
        - np.log(2.0)
    ).coef
)
# Elements per pass of ``_normal_cdf32``: its four block buffers (512 KiB)
# stay in a 2 MiB L2. Passes over a whole [768, 6000] array ran 1.4x slower.
_CDF32_BLOCK = 32768


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense array plus an optional position on the reverse-mode tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteValue("tensor initialized with non-finite values")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        """Reverse accumulation from this scalar node through the tape."""
        if self.data.size != 1:
            raise ShapeMismatch(f"loss must be scalar, got shape {self.data.shape}")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node._accumulate(g)
            if node._backward is not None:
                for parent, pg in node._backward(g):
                    if parent.requires_grad or parent._backward is not None:
                        if id(parent) in grads:
                            # out-of-place: backward functions may hand out
                            # views or shared arrays, so += would corrupt
                            # aliased entries
                            grads[id(parent)] = grads[id(parent)] + pg
                        else:
                            grads[id(parent)] = pg

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _make(
    data: np.ndarray,
    parents: Sequence[Tensor],
    backward: Callable[[np.ndarray], list[tuple[Tensor, np.ndarray]]],
) -> Tensor:
    """Wrap an op result, recording it on the tape if grad mode is on."""
    if not np.all(np.isfinite(data)):
        raise NonFiniteValue("op produced non-finite values")
    tracked = _grad_enabled and any(
        p.requires_grad or p._backward is not None for p in parents
    )
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    if tracked:
        out._parents = tuple(parents)
        out._backward = backward
    else:
        out._parents = ()
        out._backward = None
    return out


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"{op}: {a.data.shape} vs {b.data.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "add")
    return _make(a.data + b.data, (a, b), lambda g: [(a, g), (b, g)])


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "sub")
    return _make(a.data - b.data, (a, b), lambda g: [(a, g), (b, -g)])


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "mul")
    return _make(
        a.data * b.data, (a, b), lambda g: [(a, g * b.data), (b, g * a.data)]
    )


def scale(a: Tensor, c: float) -> Tensor:
    return _make(a.data * c, (a,), lambda g: [(a, g * c)])


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise NonFiniteValue("log of non-positive value")
    return _make(np.log(a.data), (a,), lambda g: [(a, g / a.data)])


def sigmoid(a: Tensor) -> Tensor:
    y = np.empty_like(a.data)
    pos = a.data >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-a.data[pos]))
    ex = np.exp(a.data[~pos])
    y[~pos] = ex / (1.0 + ex)
    return _make(y, (a,), lambda g: [(a, g * y * (1.0 - y))])


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    y = np.clip(a.data, lo, hi)
    inside = (a.data >= lo) & (a.data <= hi)
    return _make(y, (a,), lambda g: [(a, g * inside)])


def tsum(a: Tensor) -> Tensor:
    return _make(
        np.asarray(np.sum(a.data)),
        (a,),
        lambda g: [(a, np.broadcast_to(g, a.data.shape).copy())],
    )


def tmean(a: Tensor) -> Tensor:
    n = a.data.size
    if n == 0:
        raise ShapeMismatch("mean of an empty tensor")
    return _make(
        np.asarray(np.mean(a.data)),
        (a,),
        lambda g: [(a, np.broadcast_to(g / n, a.data.shape).copy())],
    )


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    orig = a.data.shape
    return _make(
        a.data.reshape(shape), (a,), lambda g: [(a, g.reshape(orig))]
    )


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inv = tuple(np.argsort(axes))
    return _make(
        np.transpose(a.data, axes), (a,), lambda g: [(a, np.transpose(g, inv))]
    )


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [t.data for t in tensors]
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray):
        out = []
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            out.append((t, g[tuple(idx)]))
        return out

    return _make(np.concatenate(parts, axis=axis), tuple(tensors), backward)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    def backward(g: np.ndarray):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        return [(a, full)]

    return _make(a.data[start:stop].copy(), (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeMismatch(f"matmul: {a.data.shape} @ {b.data.shape}")

    def backward(g: np.ndarray):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return [(a, ga), (b, gb)]

    return _make(np.matmul(a.data, b.data), (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map over the last axis: x @ w + b."""
    d_in, d_out = w.data.shape
    if x.data.shape[-1] != d_in or b.data.shape != (d_out,):
        raise ShapeMismatch(
            f"linear: x {x.data.shape}, w {w.data.shape}, b {b.data.shape}"
        )
    y = np.matmul(x.data, w.data) + b.data

    def backward(g: np.ndarray):
        g2 = g.reshape(-1, d_out)
        x2 = x.data.reshape(-1, d_in)
        return [
            (x, np.matmul(g, w.data.T)),
            (w, x2.T @ g2),
            (b, g2.sum(axis=0)),
        ]

    return _make(y, (x, w, b), backward)


def _normal_cdf32_block(x, phi, t, u) -> None:
    """Write Phi(x) into ``phi``; ``t`` and ``u`` are scratch of x's size.

    Only in-place float32 ufuncs, and no mask: a boolean mask costs as much
    as the whole kernel.
    """
    np.abs(x, out=u)
    u *= 0.5 / _SQRT2  # z/2, z = |x|/sqrt(2)
    np.add(u, 1.0, out=t)
    np.divide(1.0, t, out=t)  # t = 1 / (1 + z/2)
    u *= t  # u = 1 - t, without the cancellation of 1 - t
    coef = _PHI_TAIL_U
    np.multiply(u, coef[-1], out=phi)
    for c in coef[-2:0:-1]:
        phi += c
        phi *= u
    phi += coef[0]
    np.multiply(x, x, out=u)
    u *= 0.5
    phi -= u
    np.exp(phi, out=phi)
    phi *= t  # q = Phi(-|x|)
    # Phi = H(x) - copysign(q, x) with H(x) exactly 0 or 1: one rounding.
    np.copysign(phi, x, out=phi)
    np.copysign(0.5, x, out=t)
    t += 0.5
    np.subtract(t, phi, out=phi)


def _normal_cdf32(x: np.ndarray) -> np.ndarray:
    """Phi(x) for a float32 array, in blocks of its memory-order flat view."""
    if not x.flags.f_contiguous:  # C-contiguous passes through uncopied
        x = np.ascontiguousarray(x)
    phi = np.empty_like(x)
    flat_x, flat_phi = x.ravel(order="K"), phi.ravel(order="K")
    n = flat_x.size
    t = np.empty(min(n, _CDF32_BLOCK), np.float32)
    u = np.empty_like(t)
    for lo in range(0, n, _CDF32_BLOCK):
        hi = min(lo + _CDF32_BLOCK, n)
        _normal_cdf32_block(
            flat_x[lo:hi], flat_phi[lo:hi], t[: hi - lo], u[: hi - lo]
        )
    return phi


def gelu(x: Tensor) -> Tensor:
    """x * Phi(x), Phi the normal CDF (exact GELU, not the tanh form).

    float32 inputs use ``_normal_cdf32`` (Phi within 1.7e-7, GELU within
    3.9e-7 of float64 on [-8, 8]); every other dtype uses the erf form.
    Backward uses the exact normal pdf either way.
    """
    if x.data.dtype == np.float32:
        phi_cdf = _normal_cdf32(x.data)
    else:
        phi_cdf = np.divide(x.data, _SQRT2)
        erf(phi_cdf, out=phi_cdf)
        phi_cdf += 1.0
        phi_cdf *= 0.5
    y = x.data * phi_cdf

    def backward(g: np.ndarray):
        # g * (Phi(x) + x * pdf(x)), one buffer
        d = np.multiply(x.data, -0.5)
        d *= x.data
        np.exp(d, out=d)
        d *= _INV_SQRT_2PI
        d *= x.data
        d += phi_cdf
        d *= g
        return [(x, d)]

    return _make(y, (x,), backward)


def softmax(x: Tensor) -> Tensor:
    """Last-axis softmax with max-subtraction for stability."""
    shifted = x.data - np.max(x.data, axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / np.sum(e, axis=-1, keepdims=True)

    def backward(g: np.ndarray):
        dot = np.sum(g * y, axis=-1, keepdims=True)
        return [(x, y * (g - dot))]

    return _make(y, (x,), backward)


def _normalize(x: Tensor, gain: Tensor, shift: Tensor, eps: float, per_row: bool) -> Tensor:
    """Normalize over the last axis (1/n variance), then ``gain * xhat + shift``,
    with one gain and shift per row (instance norm) or per last-axis entry
    (layer norm). Last-axis means are matrix-vector products, so BLAS reads
    an array in its memory order whatever its layout."""
    n = x.data.shape[-1]
    avg = np.full(n, 1.0 / n, dtype=x.data.dtype)
    expand = np.s_[..., None] if per_row else ...
    xhat = x.data - (x.data @ avg)[..., None]
    inv_std = 1.0 / np.sqrt((xhat * xhat) @ avg + eps)[..., None]
    xhat *= inv_std
    y = xhat * gain.data[expand]
    y += shift.data[expand]

    def backward(g: np.ndarray):
        gx = g * gain.data[expand]
        mean_gx = (gx @ avg)[..., None]
        mean_gx_xhat = ((gx * xhat) @ avg)[..., None]
        gx -= mean_gx
        gx -= xhat * mean_gx_xhat
        gx *= inv_std
        if per_row:
            ones = np.ones(n, dtype=g.dtype)
            dgain, dshift = (g * xhat) @ ones, g @ ones
        else:
            lead = tuple(range(g.ndim - 1))
            dgain, dshift = np.sum(g * xhat, axis=lead), np.sum(g, axis=lead)
        return [(x, gx), (gain, dgain), (shift, dshift)]

    return _make(y, (x, gain, shift), backward)


def layer_norm(x: Tensor, gain: Tensor, shift: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis (1/d variance), then affine."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or shift.data.shape != (d,):
        raise ShapeMismatch(f"layer_norm: x {x.data.shape}, gain {gain.data.shape}")
    return _normalize(x, gain, shift, eps, per_row=False)


def instance_norm(x: Tensor, gain: Tensor, shift: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-channel normalization of a [C, L] signal (1/L variance), then affine."""
    if x.data.ndim != 2:
        raise ShapeMismatch(f"instance_norm expects [C, L], got {x.data.shape}")
    c = x.data.shape[0]
    if gain.data.shape != (c,) or shift.data.shape != (c,):
        raise ShapeMismatch(f"instance_norm: x {x.data.shape}, gain {gain.data.shape}")
    return _normalize(x, gain, shift, eps, per_row=True)


def conv1d(x: Tensor, w: Tensor, bias: Tensor, stride: int) -> Tensor:
    """Valid (unpadded) strided 1D cross-correlation.

    x: [C_in, L], w: [C_out, C_in, k], bias: [C_out] -> [C_out, L_out]
    with L_out = (L - k) // stride + 1.
    """
    if x.data.ndim != 2 or w.data.ndim != 3:
        raise ShapeMismatch(f"conv1d: x {x.data.shape}, w {w.data.shape}")
    c_in, length = x.data.shape
    c_out, c_in_w, k = w.data.shape
    if c_in != c_in_w or bias.data.shape != (c_out,):
        raise ShapeMismatch(
            f"conv1d: x {x.data.shape}, w {w.data.shape}, bias {bias.data.shape}"
        )
    if k > length:
        raise ShapeMismatch(f"conv1d: kernel {k} longer than input {length}")
    if stride < 1:
        raise ShapeMismatch(f"conv1d: stride must be >= 1, got {stride}")
    l_out = (length - k) // stride + 1
    # im2col over the time-major [L, C_in]: window l is rows l*stride .. l*stride+k-1,
    # flattened in (tap, channel) order
    xt = x.data.T
    if k == stride:  # the windows tile the input: a view when xt is C-contiguous
        col = xt[: l_out * k].reshape(l_out, k * c_in)
    else:  # overlapping windows, rows stride * c_in elements apart: one copy
        col = np.ascontiguousarray(
            sliding_window_view(xt, k, axis=0)[::stride].transpose(0, 2, 1)
        ).reshape(l_out, k * c_in)

    def w_mat() -> np.ndarray:
        """[C_out, k * C_in] in (tap, channel) order. Built on use: for C_in > 1
        it is a copy, and the tape should not keep one per call."""
        return w.data.transpose(0, 2, 1).reshape(c_out, k * c_in)

    y = col @ w_mat().T
    y += bias.data
    y = y.T  # [C_out, L_out]

    def backward(g: np.ndarray):
        dw = (g @ col).reshape(c_out, k, c_in).transpose(0, 2, 1)
        db = g.sum(axis=1)
        if not (x.requires_grad or x._backward is not None):
            return [(w, dw), (bias, db)]  # e.g. the raw segment into conv0
        dcol = g.T @ w_mat()
        dxt = np.zeros_like(xt, order="C")
        if k == stride:  # col2im is the same reshape
            dxt[: l_out * k] = dcol.reshape(l_out * k, c_in)
        else:
            dcol = dcol.reshape(l_out, k, c_in)
            for j in range(k):
                dxt[j : j + stride * l_out : stride] += dcol[:, j]
        return [(x, dxt.T), (w, dw), (bias, db)]

    return _make(y, (x, w, bias), backward)
