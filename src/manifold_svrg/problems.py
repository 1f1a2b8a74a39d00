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
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidObservation, NonFiniteInput, TooManySamples
from .linalg import pinv_gram, qr_positive
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


@dataclass(frozen=True)
class ProblemConstants:
    """Component-gradient Lipschitz constant L and gradient bound C."""

    L: float
    C: float
    source: str = "analytic"  # analytic | sampled | user

    def __post_init__(self):
        if self.L <= 0 or self.C <= 0:
            raise ValueError("constants must be positive")


class PcaInstance:
    """Leading-subspace estimation of a d x n data matrix.

    The objective is the negated average explained variance; its optimum is
    the span of the top-r eigenvectors of the centered covariance.
    """

    def __init__(self, A, r):
        A = np.asarray(A, dtype=float)
        # min/max propagate NaN and expose Inf without a full-size mask
        if not (np.isfinite(A.min()) and np.isfinite(A.max())):
            raise NonFiniteInput("data matrix has NaN or Inf entries")
        self.A = A
        self.d, self.n = A.shape
        self.r = int(r)
        if not 1 <= self.r <= self.d:
            raise ValueError(f"r = {self.r} outside [1, d = {self.d}]")
        self.A_bar = A.mean(axis=1, keepdims=True)
        self.B = A - self.A_bar
        self._col_sq = np.sum(self.B ** 2, axis=0)

    def value(self, X):
        return -float(np.sum((self.B.T @ X) ** 2)) / self.n

    def full_value_egrad(self, X):
        G = self.B.T @ X
        f = -float(np.sum(G ** 2)) / self.n
        return f, (-2.0 / self.n) * (self.B @ G)

    def component_value(self, X, i):
        g = self.B[:, i] @ X
        return -float(g @ g)

    def component_egrad(self, X, i):
        b = self.B[:, i]
        return -2.0 * np.outer(b, b @ X)

    def batch_egrad(self, X, idx):
        Bs = self.B[:, idx]
        return (-2.0 / len(idx)) * (Bs @ (Bs.T @ X))

    def batch_egrad_diff(self, Xk, X0, idx):
        # mean_i grad f_i(Xk) - grad f_i(X0); one pass over the batch slab
        Bs = self.B[:, idx]
        return (-2.0 / len(idx)) * (Bs @ (Bs.T @ (Xk - X0)))

    def constants(self):
        m = float(self._col_sq.max())
        return ProblemConstants(L=2.0 * m, C=2.0 * m * math.sqrt(self.r))

    def optimum(self):
        """Optimal value and a maximizing subspace from the dense eigensolver."""
        w, V = dense_pca_eig(self.B, 1.0 / self.n)
        return -float(np.sum(w[: self.r])), V[:, : self.r]


class McInstance:
    """Low-rank matrix completion from uniformly observed entries.

    Lives on the Grassmann manifold (rho = 0 by default): the objective is
    invariant to right rotation of X.  Column i stores observed row indices
    Omega_i, each at most once, and values; a column with no observations
    contributes zero.

    The batched oracles pad every column's observations to one length and
    sum the per-observation gradient rows 2 resid_i a_i^T into X's shape
    with a single np.bincount over flat (row * r + j) slots precomputed at
    construction; padding lands in a sentinel row that is dropped.

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
        # a row repeated inside one column would be summed by the stacked
        # fit but kept once by the per-column one; sorted, it shows as equal
        # neighbours below the sentinel
        ranked = np.sort(self._pad_rows, axis=1)
        repeat = np.argwhere((ranked[:, 1:] == ranked[:, :-1]) & (ranked[:, 1:] < self.d))
        if repeat.size:
            j, k = repeat[0]
            raise InvalidObservation(f"column {j}: row index {ranked[j, k]} is repeated")
        self._pad_vals = np.zeros((self.n, m_max))
        self._pad_vals[filled] = flat_vals
        self._slots = (self._pad_rows[:, :, None] * self.r
                       + np.arange(self.r)).reshape(self.n, m_max * self.r)
        self._all_full_rank = bool(lengths.min() >= self.r)

    def _fit_batch(self, X, idx):
        """Stacked least-squares fits; falls back to the loop when singular."""
        Xp = np.vstack([X, np.zeros((1, X.shape[1]))])
        Xi = Xp[self._pad_rows[idx]]                  # (b, m_max, r)
        v = self._pad_vals[idx][:, :, None]           # (b, m_max, 1)
        G = Xi.transpose(0, 2, 1) @ Xi
        rhs = Xi.transpose(0, 2, 1) @ v
        a = np.linalg.solve(G, rhs)                   # (b, r, 1)
        resid = Xi @ a - v
        return a, resid

    def _contrib(self, X, idx):
        """Per-observation gradient rows 2 resid a^T, shape (b, m_max, r), and residuals."""
        a, resid = self._fit_batch(X, idx)
        return 2.0 * resid * a.transpose(0, 2, 1), resid

    def _scatter(self, idx, contrib):
        """Sum per-observation rows into a d x r array (duplicates in idx add up)."""
        flat = np.bincount(self._slots[idx].reshape(-1), weights=contrib.reshape(-1),
                           minlength=(self.d + 1) * self.r)
        return flat[: self.d * self.r].reshape(self.d, self.r)

    def _anchor_contrib(self, X0, idx):
        key, contrib = self._anchor
        if key is not None and np.array_equal(X0, key):
            return contrib[idx]
        return self._contrib(X0, idx)[0]

    def _fit_column(self, X, i):
        rows = self.rows[i]
        if len(rows) == 0:
            return None, None, None
        Xi = X[rows]
        v = self.vals[i]
        G = Xi.T @ Xi
        rhs = Xi.T @ v
        if len(rows) < self.r:
            a = pinv_gram(G) @ rhs  # minimum-norm fit
        else:
            try:
                a = np.linalg.solve(G, rhs)
            except np.linalg.LinAlgError:
                a = pinv_gram(G) @ rhs
        resid = Xi @ a - v
        return a, resid, rows

    def component_value_grad(self, X, i):
        a, resid, rows = self._fit_column(X, i)
        if a is None:
            return 0.0, np.zeros_like(X)
        egrad = np.zeros_like(X)
        egrad[rows] = 2.0 * np.outer(resid, a)
        return float(resid @ resid), egrad

    def component_value(self, X, i):
        return self.component_value_grad(X, i)[0]

    def component_egrad(self, X, i):
        return self.component_value_grad(X, i)[1]

    def value(self, X):
        return self.full_value_egrad(X)[0]

    def full_value_egrad(self, X):
        if self._all_full_rank:
            idx = np.arange(self.n)
            try:
                contrib, resid = self._contrib(X, idx)
            except np.linalg.LinAlgError:
                pass
            else:
                self._anchor = (np.array(X, dtype=float), contrib)
                f = float(np.sum(resid ** 2))
                return f / self.n, self._scatter(idx, contrib) / self.n
        f = 0.0
        egrad = np.zeros_like(X)
        for i in range(self.n):
            a, resid, rows = self._fit_column(X, i)
            if a is None:
                continue
            f += resid @ resid
            egrad[rows] += 2.0 * np.outer(resid, a)
        return float(f) / self.n, egrad / self.n

    def batch_egrad(self, X, idx):
        idx = np.asarray(idx, dtype=np.intp)
        if self._all_full_rank:
            try:
                contrib, _ = self._contrib(X, idx)
            except np.linalg.LinAlgError:
                pass
            else:
                return self._scatter(idx, contrib) / len(idx)
        egrad = np.zeros_like(X)
        for i in idx:
            a, resid, rows = self._fit_column(X, i)
            if a is None:
                continue
            egrad[rows] += 2.0 * np.outer(resid, a)
        return egrad / len(idx)

    def batch_egrad_diff(self, Xk, X0, idx):
        idx = np.asarray(idx, dtype=np.intp)
        if self._all_full_rank:
            try:
                ck, _ = self._contrib(Xk, idx)
                c0 = self._anchor_contrib(X0, idx)
            except np.linalg.LinAlgError:
                pass
            else:
                return self._scatter(idx, ck - c0) / len(idx)
        return self.batch_egrad(Xk, idx) - self.batch_egrad(X0, idx)

    def fitted_matrix(self, X):
        """Column-wise least-squares reconstruction X a_i from observed rows."""
        out = np.zeros((self.d, self.n))
        for i in range(self.n):
            a, _, _ = self._fit_column(X, i)
            if a is not None:
                out[:, i] = X @ a
        return out

    def constants(self, probes=50, seed=0):
        """Sampled (not certified) Lipschitz / bound estimates with 2x headroom."""
        rng = np.random.default_rng(seed)
        lip = 0.0
        bound = 0.0
        for _ in range(probes):
            X = qr_positive(rng.standard_normal((self.d, self.r)))[0]
            Y = qr_positive(rng.standard_normal((self.d, self.r)))[0]
            i = int(rng.integers(self.n))
            gx = self.component_egrad(X, i)
            gy = self.component_egrad(Y, i)
            lip = max(lip, np.linalg.norm(gx - gy) / max(np.linalg.norm(X - Y), 1e-300))
            bound = max(bound, np.linalg.norm(gx))
        return ProblemConstants(L=2.0 * max(lip, 1e-12), C=2.0 * max(bound, 1e-12),
                                source="sampled")


def pca_generate(d, n, seed):
    """Synthetic data: row i scaled by i^0.618, normalized by the max entry."""
    rng = np.random.default_rng(seed)
    scale = np.arange(1, d + 1, dtype=float) ** 0.618
    A = rng.standard_normal((d, n)) * scale[:, None]
    A /= np.abs(A).max()
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


def mc_load_observations(path, r, d=None, n=None, **kwargs):
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
    return McInstance(d, n, r, rows, vals, **kwargs)
