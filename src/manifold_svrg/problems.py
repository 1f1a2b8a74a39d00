"""Finite-sum problem instances on the Stiefel / Grassmann manifold.

Two families: the covariance-trace (PCA) objective

    f_i(X) = -tr(X^T B_i B_i^T X),   B_i = A_i - column_mean(A),

stored as a minimization with the 1/n outer average, and low-rank matrix
completion by subspace fitting

    f_i(X) = min_a ||P_{Omega_i}(X a) - P_{Omega_i}(M_i)||^2,

whose Euclidean gradient follows from the envelope argument: with a_i*
optimal, grad_X f_i = 2 * scatter(residual) a_i*^T over the observed rows.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidObservation, NonFiniteInput, TooManySamples
from .linalg import qr_positive
from .oracles import dense_pca_eig

__all__ = [
    "ProblemConstants",
    "PcaInstance",
    "McInstance",
    "pca_generate",
    "pca_load",
    "mc_generate",
    "mc_save_observations",
    "mc_load_observations",
]


# bytes of B per column block in PcaInstance.full_value_egrad: small enough
# that a block is still in cache for its second product (384 KiB to 768 KiB
# measured equally fast at d = 200 and d = 1000, 1 MiB and up slower)
_BLOCK_BYTES = 512 * 1024


@dataclass(frozen=True)
class ProblemConstants:
    """Component-gradient Lipschitz constant L and gradient bound C."""

    L: float
    C: float

    def __post_init__(self):
        if self.L <= 0 or self.C <= 0:
            raise ValueError("constants must be positive")


class PcaInstance:
    """Leading-subspace estimation of a d x n data matrix.

    The objective is the negated average explained variance; its optimum is
    the span of the top-r eigenvectors of the centered covariance.

    The centered data B is the instance's one d x n array, stored
    column-major: B.T is then a contiguous B^T, so a minibatch is a gather
    of contiguous rows of B^T rather than a strided gather of columns of B,
    and a block of consecutive columns of B is one contiguous slab.

    The full gradient -(2/n) B (B^T X) reads B once, one column block at a
    time (_BLOCK_BYTES per block), rather than once per product.  value(X)
    is its f, so the two agree bit for bit: BLAS may round a block's rows
    of B^T X differently from the same rows of the whole product.
    """

    def __init__(self, A, r):
        A = np.asarray(A, dtype=float)
        # min/max propagate NaN and expose Inf without a full-size mask
        if not (np.isfinite(A.min()) and np.isfinite(A.max())):
            raise NonFiniteInput("data matrix has NaN or Inf entries")
        self.d, self.n = A.shape
        self.r = int(r)
        if not 1 <= self.r <= self.d:
            raise ValueError(f"r = {self.r} outside [1, d = {self.d}]")
        B = A - A.mean(axis=1, keepdims=True)
        # summed over the row-major copy, each column adds row by row; along
        # the contiguous axis of the column-major B it would round
        # differently, and L with it
        self._col_sq = np.sum(B ** 2, axis=0)
        self.B = np.asfortranarray(B)

    def value(self, X):
        return self.full_value_egrad(X)[0]

    def full_value_egrad(self, X):
        # one pass over B: each column block B_c gives its rows G_c = B_c^T X
        # and adds B_c G_c while it is still in cache (Goto & van de Geijn,
        # ACM TOMS 2008); the first block's product seeds the sum, so a B of
        # one block gives the bits of the two whole-matrix products
        w = max(1, _BLOCK_BYTES // (self.B.itemsize * self.d))
        G = np.empty((self.n, X.shape[1]))
        for s in range(0, self.n, w):
            Bc = self.B[:, s:s + w]
            P = Bc @ np.matmul(Bc.T, X, out=G[s:s + w])
            if s:
                BG += P
            else:
                BG = P
        f = -float(np.sum(G ** 2)) / self.n
        return f, (-2.0 / self.n) * BG

    def component_value(self, X, i):
        g = self.B[:, i] @ X
        return -float(g @ g)

    def component_egrad(self, X, i):
        b = self.B[:, i]
        return -2.0 * np.outer(b, b @ X)

    def batch_egrad_diff(self, Xk, X0, idx):
        # mean_i grad f_i(Xk) - grad f_i(X0); the batch is b contiguous rows of B^T
        Bs = self.B.T.take(idx, axis=0)
        return (-2.0 / len(idx)) * (Bs.T @ (Bs @ (Xk - X0)))

    def constants(self):
        m = float(self._col_sq.max())
        return ProblemConstants(L=2.0 * m, C=2.0 * m * math.sqrt(self.r))

    def optimum(self):
        """Optimal value and a maximizing subspace from the dense eigensolver."""
        w, V = dense_pca_eig(self.B, 1.0 / self.n)
        return -float(np.sum(w[: self.r])), V[:, : self.r]


def _lsq_normal(Xi, v):
    """Stacked least squares min ||Xi a - v|| through the normal equations.

    Exactly singular normal equations send the stack to the minimum-norm
    fits, from the SVD of Xi as in lstsq; a pseudo-inverse of Xi^T Xi would
    square the condition number.
    """
    XiT = Xi.transpose(0, 2, 1)
    try:
        return np.linalg.solve(XiT @ Xi, XiT @ v)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(Xi) @ v


class McInstance:
    """Low-rank matrix completion from uniformly observed entries.

    Lives on the Grassmann manifold (rho = 0 by default): the objective is
    invariant to right rotation of X.  Column i stores observed row indices
    Omega_i, each at most once, and values; a column with no observations
    contributes zero.

    Every oracle gets its least-squares coefficients from one stacked fit,
    _fit, which also holds the one rank-deficient branch: a column of fewer
    than r observations gets the minimum-norm fit, and so does every column
    of a stack whose normal equations are exactly singular.  The full and
    batch oracles pad every column's observations to one length and sum the
    per-observation gradient rows 2 resid_i a_i^T into X's shape with a
    single np.bincount over flat (row * r + j) slots precomputed at
    construction; padding lands in a sentinel row that is dropped.
    component_value_grad fits its one column unpadded.

    Anchor cache: full_value_egrad(X) keeps those per-observation rows of
    all n columns, keyed on an exact copy of X.  batch_egrad_diff(Xk, X0,
    idx) gathers them when X0 equals the key bit for bit, so an inner step
    of the variance-reduced loop fits only the batch at Xk; any other X0,
    including the key's array mutated in place, is refit.  The cache makes
    an instance stateful: share one across threads only with a lock.
    """

    def __init__(self, d, n, r, rows, vals, M_true=None):
        self.d, self.n, self.r = int(d), int(n), int(r)
        self.rows = [np.asarray(ri, dtype=np.intp) for ri in rows]
        self.vals = [np.asarray(vi, dtype=float) for vi in vals]
        if len(self.rows) != self.n or len(self.vals) != self.n:
            raise ValueError("need one observation list per column")
        self.M_true = None if M_true is None else np.asarray(M_true, dtype=float)
        lengths = np.fromiter(map(len, self.rows), np.intp, self.n)
        self.num_observed = int(lengths.sum())
        if self.num_observed == 0:
            raise ValueError("no observed entries")
        flat_rows = np.concatenate(self.rows)
        flat_vals = np.concatenate(self.vals)
        self._check_observations(lengths, flat_rows, flat_vals)
        self._build_padded(lengths, flat_rows, flat_vals)
        self._anchor = (None, None)  # (copy of X, its per-observation gradient rows)
        self._constants = None       # constants(), sampled on the first call

    def _check_observations(self, lengths, flat_rows, flat_vals):
        counts = np.fromiter(map(len, self.vals), np.intp, self.n)
        bad = np.flatnonzero(counts != lengths)
        if bad.size:
            j = bad[0]
            raise ValueError(f"column {j}: {counts[j]} values for {lengths[j]} row indices")
        # row d is the padding sentinel and a negative row would alias X[-1]
        bad = np.flatnonzero((flat_rows < 0) | (flat_rows >= self.d))
        if bad.size:
            j = int(np.searchsorted(np.cumsum(lengths), bad[0], side="right"))
            raise InvalidObservation(
                f"column {j}: row index {flat_rows[bad[0]]} outside [0, {self.d})")
        if not np.all(np.isfinite(flat_vals)):
            raise NonFiniteInput("observed values contain NaN or Inf")

    def _build_padded(self, lengths, flat_rows, flat_vals):
        # pad every column's observation list to the same length so the
        # normal-equation solves batch through one stacked LAPACK call; the
        # sentinel row index d maps to an appended zero row of X, making
        # padded residuals vanish identically
        m_max = int(lengths.max())
        filled = np.arange(m_max) < lengths[:, None]   # fills row-major: column by column
        self._pad_rows = np.full((self.n, m_max), self.d, dtype=np.intp)
        self._pad_rows[filled] = flat_rows
        # a row repeated inside one column would enter its fit twice, once per
        # entry, though f_i observes each entry once; sorted, it shows as
        # equal neighbours below the sentinel
        ranked = np.sort(self._pad_rows, axis=1)
        repeat = np.argwhere((ranked[:, 1:] == ranked[:, :-1]) & (ranked[:, 1:] < self.d))
        if repeat.size:
            j, k = repeat[0]
            raise InvalidObservation(f"column {j}: row index {ranked[j, k]} is repeated")
        self._pad_vals = np.zeros((self.n, m_max))
        self._pad_vals[filled] = flat_vals
        self._slots = (self._pad_rows[:, :, None] * self.r
                       + np.arange(self.r)).reshape(self.n, m_max * self.r)
        self._short = lengths < self.r
        self._has_short = bool(self._short.any())

    def _fit(self, Xi, v, short):
        """Least-squares coefficients a (b, r, 1) and residuals Xi a - v (b, m, 1).

        Xi (b, m, r) holds the observed rows of X for b columns and v (b, m, 1)
        their values; short (b,) flags columns with fewer than r observations,
        or is None when the instance has no such column.
        """
        if short is not None and short.any():
            # a short column takes the minimum-norm fit on its own, so the
            # other columns' fits do not depend on whether the stack holds one
            full = ~short
            a = np.empty((len(Xi), Xi.shape[2], 1))
            a[full] = _lsq_normal(Xi[full], v[full])
            a[short] = np.linalg.pinv(Xi[short]) @ v[short]
        else:
            a = _lsq_normal(Xi, v)
        return a, Xi @ a - v

    def _fit_padded(self, X, idx):
        """_fit of the columns idx, gathered through the padded observation arrays."""
        Xp = np.concatenate([X, np.zeros((1, X.shape[1]))])
        # take copies the same rows as fancy indexing, without its general
        # index machinery: about 5 against 18 us at the mc-desk shape
        return self._fit(Xp.take(self._pad_rows.take(idx, axis=0), axis=0),
                         self._pad_vals.take(idx, axis=0)[:, :, None],
                         self._short[idx] if self._has_short else None)

    def _contrib(self, X, idx):
        """Per-observation gradient rows 2 resid a^T, shape (b, m_max, r), and residuals."""
        a, resid = self._fit_padded(X, idx)
        return 2.0 * resid * a.transpose(0, 2, 1), resid

    def _scatter(self, idx, contrib):
        """Sum per-observation rows into a d x r array (duplicates in idx add up)."""
        flat = np.bincount(self._slots.take(idx, axis=0).reshape(-1), weights=contrib.reshape(-1),
                           minlength=(self.d + 1) * self.r)
        return flat[: self.d * self.r].reshape(self.d, self.r)

    def _anchor_contrib(self, X0, idx):
        key, contrib = self._anchor
        if key is not None and np.array_equal(X0, key):
            return contrib.take(idx, axis=0)
        return self._contrib(X0, idx)[0]

    def component_value_grad(self, X, i):
        # the column's own rows, unpadded: zero-row padding would change the
        # Gram sums in the last bits
        rows = self.rows[i]
        a, resid = self._fit(X[rows][None], self.vals[i][None, :, None], self._short[i:i + 1])
        resid = resid[0, :, 0]
        egrad = np.zeros_like(X)
        egrad[rows] = 2.0 * np.outer(resid, a[0, :, 0])
        return float(resid @ resid), egrad

    def component_value(self, X, i):
        return self.component_value_grad(X, i)[0]

    def component_egrad(self, X, i):
        return self.component_value_grad(X, i)[1]

    def value(self, X):
        return self.full_value_egrad(X)[0]

    def full_value_egrad(self, X):
        idx = np.arange(self.n)
        contrib, resid = self._contrib(X, idx)
        self._anchor = (np.array(X, dtype=float), contrib)
        return float(np.sum(resid ** 2)) / self.n, self._scatter(idx, contrib) / self.n

    def batch_egrad_diff(self, Xk, X0, idx):
        idx = np.asarray(idx, dtype=np.intp)
        ck, _ = self._contrib(Xk, idx)
        return self._scatter(idx, ck - self._anchor_contrib(X0, idx)) / len(idx)

    def fitted_matrix(self, X):
        """Column-wise least-squares reconstruction X a_i from observed rows."""
        a, _ = self._fit_padded(X, np.arange(self.n))
        return X @ a[:, :, 0].T

    def constants(self):
        """Sampled (not certified) Lipschitz / bound estimates with 2x headroom.

        50 random pairs of points from a fixed seed, drawn on the first call;
        later calls return the same constants without sampling again.
        """
        if self._constants is None:
            self._constants = self._sample_constants()
        return self._constants

    def _sample_constants(self):
        rng = np.random.default_rng(0)
        lip = 0.0
        bound = 0.0
        for _ in range(50):
            X = qr_positive(rng.standard_normal((self.d, self.r)))[0]
            Y = qr_positive(rng.standard_normal((self.d, self.r)))[0]
            i = int(rng.integers(self.n))
            gx = self.component_egrad(X, i)
            gy = self.component_egrad(Y, i)
            lip = max(lip, np.linalg.norm(gx - gy) / max(np.linalg.norm(X - Y), 1e-300))
            bound = max(bound, np.linalg.norm(gx))
        return ProblemConstants(L=2.0 * max(lip, 1e-12), C=2.0 * max(bound, 1e-12))


def pca_generate(d, n, seed):
    """Synthetic data: row i scaled by i^0.618, normalized by the max entry."""
    rng = np.random.default_rng(seed)
    scale = np.arange(1, d + 1, dtype=float) ** 0.618
    # in place throughout: the only d x n array made is the draw itself
    A = rng.standard_normal((d, n))
    A *= scale[:, None]
    A /= max(A.max(), -A.min())
    return A


def pca_load(path, r):
    """Load a dense d x n data matrix from .npy or CSV and wrap it."""
    path = str(path)
    if path.endswith(".npy"):
        A = np.load(path)
    else:
        A = np.loadtxt(path, delimiter=",", ndmin=2)
    return PcaInstance(A, r)


def mc_generate(d, n, r, cond, seed):
    """Random rank-r ground truth with the given condition number.

    Singular values are geometrically spaced from 1 down to 1/cond; the
    observation set has exactly (n + d - r) r^2 entries drawn uniformly
    without replacement.
    """
    num = (n + d - r) * r * r
    if num > d * n:
        raise TooManySamples(f"|Omega| = {num} exceeds the {d * n} entries available")
    rng = np.random.default_rng(seed)
    U = qr_positive(rng.standard_normal((d, r)))[0]
    V = qr_positive(rng.standard_normal((n, r)))[0]
    if r == 1:
        sigma = np.array([1.0])
    else:
        sigma = cond ** (-np.arange(r) / (r - 1.0))
    M = (U * sigma) @ V.T
    flat = rng.choice(d * n, size=num, replace=False)
    flat.sort()
    ii = flat // n
    jj = flat % n
    # group by column; the stable sort keeps each column's rows ascending
    order = np.argsort(jj, kind="stable")
    bounds = [0, *np.cumsum(np.bincount(jj, minlength=n)).tolist()]
    by_col, val_by_col = ii[order], M[ii, jj][order]
    rows = [by_col[a:b] for a, b in zip(bounds, bounds[1:])]
    vals = [val_by_col[a:b] for a, b in zip(bounds, bounds[1:])]
    return McInstance(d, n, r, rows, vals, M_true=M)


def mc_save_observations(inst, path):
    """Write observed entries as 'i j value' triples, 1-based indices."""
    with open(path, "w") as fh:
        for j in range(inst.n):
            for i, v in zip(inst.rows[j], inst.vals[j]):
                fh.write(f"{i + 1} {j + 1} {float(v)!r}\n")


def mc_load_observations(path, r, d=None, n=None):
    """Read 'i j value' triples (1-based); dims default to the max index seen.

    Raises InvalidObservation, naming the line, for a malformed line, an
    index below 1 or beyond an explicit d / n, or a repeated (i, j), and
    NonFiniteInput for a NaN or Inf value.
    """
    ii, jj, vv = [], [], []
    seen = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path}:{lineno}"
            try:
                a, b, c = line.split()
                i, j, v = int(a), int(b), float(c)
            except ValueError:
                raise InvalidObservation(f"{where}: expected 'i j value', got {line!r}") from None
            if i < 1 or j < 1:
                raise InvalidObservation(f"{where}: indices are 1-based, got ({i}, {j})")
            if d is not None and i > d:
                raise InvalidObservation(f"{where}: row {i} exceeds d = {d}")
            if n is not None and j > n:
                raise InvalidObservation(f"{where}: column {j} exceeds n = {n}")
            if not math.isfinite(v):
                raise NonFiniteInput(f"{where}: value {v!r} is not finite")
            if (i, j) in seen:
                raise InvalidObservation(
                    f"{where}: duplicate observation ({i}, {j}), first on line {seen[i, j]}")
            seen[i, j] = lineno
            ii.append(i - 1)
            jj.append(j - 1)
            vv.append(v)
    if not ii:
        raise ValueError(f"no observations in {path}")
    d = (max(ii) + 1) if d is None else d
    n = (max(jj) + 1) if n is None else n
    rows = [[] for _ in range(n)]
    vals = [[] for _ in range(n)]
    for i, j, v in zip(ii, jj, vv):
        rows[j].append(i)
        vals[j].append(v)
    return McInstance(d, n, r, rows, vals)
