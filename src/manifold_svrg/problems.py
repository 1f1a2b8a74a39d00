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

from .errors import InvalidObservation, NonFiniteInput, TooManySamples, check_count, check_real
from .linalg import qr_positive

__all__ = [
    "ProblemConstants",
    "PcaInstance",
    "McInstance",
    "pca_check",
    "pca_generate",
    "pca_load",
    "check_cond",
    "mc_check",
    "mc_generate",
    "mc_save_observations",
    "mc_load_observations",
]


@dataclass(frozen=True)
class ProblemConstants:
    """Component-gradient Lipschitz constant L and gradient bound C: real
    numbers in (0, inf), stored as floats."""

    L: float
    C: float

    def __post_init__(self):
        for name in ("L", "C"):
            object.__setattr__(self, name, check_real(name, getattr(self, name), 0, open_low=True))


# rows of the data that are drawn, centred, checked and squared at a time
_INGEST_ROWS = 64
# columns per slice of a block's gather out of a column-major array: a whole
# 64 x n block gathered at once misses the cache on every column, 3-4x
# slower at n = 10000
_GATHER_COLS = 512


class PcaInstance:
    """Leading-subspace estimation of a d x n data matrix.

    The objective is the negated average explained variance; its optimum is
    the span of the top-r eigenvectors of the centered covariance.  The
    shape (d, n) of A and the rank r pass pca_check.

    The centered data B is the instance's one d x n array, stored
    column-major: B.T is then a contiguous B^T, so a minibatch is a gather
    of contiguous rows of B^T rather than a strided gather of columns of B.
    Minibatches, components and constants() read B.  The instance holds
    d n + d^2 floats, B and C, and no second d x n array.

    Construction reads A once, in blocks of _INGEST_ROWS rows, into a fresh
    column-major B; A is never written.  Each block is gathered into a
    row-major copy, whose row means are those of the row-major A whatever
    A's layout, and which are finite exactly when its entries are (and their
    sums do not overflow).  The block is centred by them, written into B,
    and its squares added row by row into the column norms that constants()
    takes L from.  pca_generate runs the same pass over its own column-major
    draw, which then becomes B: the data is centred where it was drawn.

    The full value and gradient come from the covariance C = (1/n) B B^T,
    built once at construction: d^2 n flops, and d^2 floats held next to B
    (more than B itself when d > n).  f = -<X, C X> and grad f = -2 C X
    then cost d^2 r flops per call instead of the 2 n d r of
    -(2/n) B (B^T X); IFO still charges n per full gradient.  optimum()
    takes the eigenvalues of the same C.
    """

    def __init__(self, A, r):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.size == 0:
            raise ValueError(f"data matrix must be 2-D and non-empty, got shape {A.shape}")
        self._ingest(A, np.empty(A.shape, order="F"), r)

    @classmethod
    def _centred_in_place(cls, A, r):
        """An instance whose B is A, a column-major data array it takes over."""
        inst = cls.__new__(cls)
        inst._ingest(A, A, r)
        return inst

    def _ingest(self, A, B, r):
        # A and B may be one array: each block is read whole before it is written
        self.d, self.n, self.r = pca_check(*A.shape, r)
        # each column of squares adds row by row, as np.sum(B**2, axis=0)
        # does over a row-major B; summed along the contiguous axis of the
        # column-major B it would round differently, and L with it
        self._col_sq = np.zeros(self.n)
        rows = np.empty((min(_INGEST_ROWS, self.d), self.n))
        for j in range(0, self.d, _INGEST_ROWS):
            block = rows[:min(_INGEST_ROWS, self.d - j)]
            for c in range(0, self.n, _GATHER_COLS):
                block[:, c:c + _GATHER_COLS] = A[j:j + _INGEST_ROWS, c:c + _GATHER_COLS]
            mean = block.mean(axis=1, keepdims=True)
            # a NaN or Inf entry makes its row's sum, and so its mean, non-finite;
            # so does a finite row whose sum overflows, which centring could not use
            if not np.isfinite(mean).all():
                raise NonFiniteInput("data matrix has NaN or Inf entries, or a row sum "
                                     "beyond the float range")
            block -= mean
            B[j:j + _INGEST_ROWS] = block
            np.square(block, out=block)
            for row in block:
                self._col_sq += row
        self.B = B
        # scaled in place: the bits of (1/n) * (B @ B.T) without a second d x d array
        self.C = self.B @ self.B.T
        self.C *= 1.0 / self.n
        self._f_star = None  # optimum(), solved on the first call

    def value(self, X):
        return self.full_value_egrad(X)[0]

    def full_value_egrad(self, X):
        CX = self.C @ X
        return -float(np.sum(X * CX)), -2.0 * CX

    def anchored(self, X):
        """f and grad f at the anchor X, and the batch difference bound to X."""
        return (*self.full_value_egrad(X), lambda Xk, idx: self.batch_egrad_diff(Xk, X, idx))

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
        """Optimal value f*: minus the sum of the r largest eigenvalues of C.

        The eigenvalues alone come from the dense symmetric solver, with no
        eigenvectors; the first call solves and later calls return the same
        value.
        """
        if self._f_star is None:
            w = np.linalg.eigvalsh(self.C)  # ascending
            self._f_star = -float(np.sum(w[::-1][: self.r]))
        return self._f_star


def _lsq_normal(Xi, v):
    """Stacked least squares min ||Xi a - v|| through the normal equations.

    An exactly singular matrix alone gets lstsq's minimum-norm fit, from the
    SVD of its Xi, not pinv(Xi^T Xi), which would square the condition number.
    """
    XiT = Xi.transpose(0, 2, 1)
    try:
        return np.linalg.solve(XiT @ Xi, XiT @ v)
    except np.linalg.LinAlgError:
        if len(Xi) == 1:
            return np.linalg.pinv(Xi) @ v
        return np.concatenate([_lsq_normal(Xi[k:k + 1], v[k:k + 1]) for k in range(len(Xi))])


class McInstance:
    """Low-rank matrix completion from uniformly observed entries.

    Lives on the Grassmann manifold (rho = 0 by default): the objective is
    invariant to right rotation of X.  d, n and r pass pca_check: r may
    exceed n here, unlike in mc_generate.  Omega is one triple: entry k is
    the value vals[k] at (rows[k], cols[k]), each (row, column) at most
    once; a column with no entry contributes zero.  Omega is stored once,
    padded per column in the order given; rows and vals are read-only
    per-column views.

    Every oracle gets its least-squares coefficients from one stacked fit,
    _fit, which also holds the one rank-deficient rule: a column of fewer
    than r observations, or whose normal equations are exactly singular,
    gets the minimum-norm fit, and no other column's fit changes with it.
    The full and batch gradients sum the per-observation gradient rows
    2 resid_i a_i^T into X's shape with a single np.bincount over flat
    (row * r + j) slots precomputed at construction; padding lands in a
    sentinel row that is dropped.  component_egrad fits its one column
    unpadded.

    anchored(X) fits all n columns at X once; its batch difference gathers
    the anchor's per-observation rows from that fit, so an inner step of the
    variance-reduced loop fits only the batch at Xk.  batch_egrad_diff(Xk,
    X0, idx) refits X0 on the batch.  No oracle writes the instance: it is
    fixed after construction, except for the constants() sampled on the
    first call.
    """

    def __init__(self, d, n, r, rows, cols, vals, M_true=None):
        self.d, self.n, self.r = pca_check(d, n, r)
        rows, cols, vals = np.asarray(rows), np.asarray(cols), np.asarray(vals, dtype=float)
        if not rows.ndim == cols.ndim == vals.ndim == 1 or not rows.size == cols.size == vals.size:
            raise ValueError("rows, cols and vals must be 1-D and of one length, got shapes "
                             f"{rows.shape}, {cols.shape} and {vals.shape}")
        if rows.size == 0:
            raise ValueError("no observed entries")
        self.num_observed = rows.size
        self.M_true = M = None if M_true is None else np.asarray(M_true, dtype=float)
        if M is not None and M.shape != (self.d, self.n):
            raise ValueError(f"M_true has shape {M.shape}, not (d, n) = {(self.d, self.n)}")
        if M is not None and not np.isfinite(M).all():
            raise NonFiniteInput("M_true has NaN or Inf entries")
        self._check_observations(rows, cols, vals)
        # on the smallest unsigned type that holds n - 1, numpy sorts by radix
        self._build_padded(rows.astype(np.intp), cols.astype(np.min_scalar_type(self.n - 1)), vals)
        self._constants = None  # constants(), sampled on the first call

    def _check_observations(self, rows, cols, vals):
        # the indices as given: a fractional one would be truncated, row d is
        # the padding sentinel and a negative index would alias the last one.
        # A bool, str or object index is no integer: it is checked as NaN
        for index, bound in ((cols, self.n), (rows, self.d)):
            num = index if index.dtype.kind in "iuf" else np.full(index.shape, np.nan)
            for bad, why in ((num != np.trunc(num), "is not an integer"),
                             ((num < 0) | (num >= bound), f"outside [0, {bound})")):
                bad = np.flatnonzero(bad)
                if not bad.size:
                    continue
                # a row index is named in the first column that holds one, and
                # any index as the repr of its Python value, so a str is quoted
                k = bad[0] if index is cols else bad[np.argmin(cols[bad])]
                value = repr(index[k:k + 1].tolist()[0])
                if index is cols:
                    raise InvalidObservation(f"entry {k}: column index {value} {why}")
                raise InvalidObservation(f"column {int(cols[k])}: row index {value} {why}")
        if not np.isfinite(vals).all():
            raise NonFiniteInput("observed values contain NaN or Inf")

    def _build_padded(self, rows, cols, vals):
        # pad each column's entries, in the order given (the sort is stable),
        # to one length so the normal-equation solves batch through one stacked
        # LAPACK call; the sentinel row index d maps to an appended zero row of
        # X, making padded residuals vanish identically
        order = np.argsort(cols, kind="stable")
        self._lengths = np.bincount(cols, minlength=self.n)
        m_max = int(self._lengths.max())
        filled = np.arange(m_max) < self._lengths[:, None]   # fills row-major: column by column
        self._pad_rows = np.full((self.n, m_max), self.d, dtype=np.intp)
        self._pad_rows[filled] = rows[order]
        # a row repeated in a column would enter its fit twice, though f_i
        # observes it once; sorted, it shows as equal neighbours below d
        ranked = np.sort(self._pad_rows, axis=1)
        repeat = (ranked[:, 1:] == ranked[:, :-1]) & (ranked[:, 1:] < self.d)
        if repeat.any():
            j, k = np.argwhere(repeat)[0]
            raise InvalidObservation(f"column {j}: row index {ranked[j, k]} is repeated")
        self._pad_vals = np.zeros((self.n, m_max))
        self._pad_vals[filled] = vals[order]
        self._pad_rows.flags.writeable = self._pad_vals.flags.writeable = False
        # one pass per j: broadcast over a trailing axis of r runs twice as slow
        base = self._pad_rows * self.r
        self._slots = np.empty((self.n, m_max * self.r), dtype=np.intp)
        for j in range(self.r):
            np.add(base, j, out=self._slots[:, j::self.r])
        self._short = self._lengths < self.r
        self._has_short = bool(self._short.any())

    rows = property(lambda self: [p[:m] for p, m in zip(self._pad_rows, self._lengths)])
    vals = property(lambda self: [p[:m] for p, m in zip(self._pad_vals, self._lengths)])

    def _fit(self, Xi, v, short):
        """Least-squares coefficients a (b, r, 1) and residuals Xi a - v (b, m, 1).

        Xi (b, m, r) holds the observed rows of X for b columns and v (b, m, 1)
        their values; short (b,) flags columns with fewer than r observations,
        or is None when the instance has no such column.  Short and singular
        columns get minimum-norm fits, and leave the others' bits alone.
        """
        if short is not None and short.any():
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
                         self._short.take(idx) if self._has_short else None)

    def _contrib(self, X, idx):
        """Per-observation gradient rows 2 resid a^T, shape (b, m_max, r), and residuals."""
        a, resid = self._fit_padded(X, idx)
        return 2.0 * resid * a.transpose(0, 2, 1), resid

    def _scatter(self, idx, contrib):
        """Sum per-observation rows into a d x r array (duplicates in idx add up)."""
        flat = np.bincount(self._slots.take(idx, axis=0).reshape(-1), weights=contrib.reshape(-1),
                           minlength=(self.d + 1) * self.r)
        return flat[: self.d * self.r].reshape(self.d, self.r)

    def _batch_diff(self, Xk, idx, c0):
        """mean over idx of grad f_i(Xk) - grad f_i(X0), given X0's rows c0 of idx."""
        return self._scatter(idx, self._contrib(Xk, idx)[0] - c0) / len(idx)

    def component_egrad(self, X, i):
        # the column's own rows, unpadded: zero-row padding would change the
        # Gram sums in the last bits
        rows, v = self._pad_rows[i, :self._lengths[i]], self._pad_vals[i, :self._lengths[i]]
        a, resid = self._fit(X[rows][None], v[None, :, None], self._short[i:i + 1])
        egrad = np.zeros_like(X)
        egrad[rows] = 2.0 * np.outer(resid[0, :, 0], a[0, :, 0])
        return egrad

    def value(self, X):
        return self.full_value_egrad(X)[0]

    def _full(self, X):
        """f and grad f at X, and the per-observation gradient rows of all n columns."""
        every = np.arange(self.n)
        c0, resid = self._contrib(X, every)
        return float(np.sum(resid ** 2)) / self.n, self._scatter(every, c0) / self.n, c0

    def full_value_egrad(self, X):
        return self._full(X)[:2]

    def anchored(self, X):
        """f and grad f at the anchor X, and the batch difference bound to X."""
        f, egrad, c0 = self._full(X)
        return f, egrad, lambda Xk, idx: self._batch_diff(Xk, idx, c0.take(idx, axis=0))

    def batch_egrad_diff(self, Xk, X0, idx):
        return self._batch_diff(Xk, idx, self._contrib(X0, idx)[0])

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


def pca_check(d, n, r):
    """d, n and r as ints, checked: each an integer of at least 1, r at most d."""
    d, n, r = (check_count(name, v, 1) for name, v in (("d", d), ("n", n), ("r", r)))
    if r > d:
        raise ValueError(f"r = {r} outside [1, d = {d}]")
    return d, n, r


def pca_generate(d, n, r, seed):
    """Synthetic PCA instance of rank r on d x n data.

    Row i of the data is a standard normal draw scaled by i^0.618, and the
    whole is normalized by its largest entry in absolute value.  The draw
    fills a column-major d x n array 64 rows at a time, the values of one
    (d, n) draw in the same order; it is normalized in place, and the
    instance centres it in place and keeps it as B, so the instance's B is
    the only d x n array made.  d, n and r are checked before any draw.
    """
    d, n, r = pca_check(d, n, r)
    rng = np.random.default_rng(seed)
    scale = np.arange(1, d + 1, dtype=float) ** 0.618
    A = np.empty((d, n), order="F")
    rows = np.empty((min(_INGEST_ROWS, d), n))
    top = 0.0
    for j in range(0, d, _INGEST_ROWS):
        block = rows[:min(_INGEST_ROWS, d - j)]
        rng.standard_normal(out=block)
        block *= scale[j:j + _INGEST_ROWS, None]
        top = max(top, block.max(), -block.min())
        A[j:j + _INGEST_ROWS] = block
    del rows, block  # freed before the ingest takes its own block buffer
    A /= top
    return PcaInstance._centred_in_place(A, r)


def pca_load(path, r):
    """Wrap a dense d x n data matrix from CSV or a .npy file, which is mapped, not read whole."""
    path = str(path)
    if path.endswith(".npy"):
        A = np.load(path, mmap_mode="r")
    else:
        A = np.loadtxt(path, delimiter=",", ndmin=2)
    return PcaInstance(A, r)


def check_cond(cond):
    """The ground-truth condition number mc_generate takes, a real number in
    [1, inf), as a float."""
    return check_real("cond", cond, 1)


def mc_check(d, n, r):
    """mc_generate's checks before it draws: pca_check's, r at most n, and
    |Omega| = (n + d - r) r^2 at most d n.  Returns d, n, r and |Omega|."""
    d, n, r = pca_check(d, n, r)
    if r > n:
        raise ValueError(f"r = {r} outside [1, min(d, n) = {min(d, n)}]")
    num = (n + d - r) * r * r
    if num > d * n:
        raise TooManySamples(f"|Omega| = {num} exceeds the {d * n} entries available")
    return d, n, r, num


def mc_generate(d, n, r, cond, seed):
    """Random rank-r ground truth with the given condition number.

    Singular values are geometrically spaced from 1 down to 1/cond; the
    observation set has exactly (n + d - r) r^2 entries drawn uniformly
    without replacement.  d, n, r and cond are checked before any draw.
    """
    cond = check_cond(cond)
    d, n, r, num = mc_check(d, n, r)
    rng = np.random.default_rng(seed)
    U = qr_positive(rng.standard_normal((d, r)))[0]
    V = qr_positive(rng.standard_normal((n, r)))[0]
    sigma = cond ** (-np.arange(r) / max(r - 1.0, 1.0))  # [1.0] at r = 1
    M = (U * sigma) @ V.T
    flat = rng.choice(d * n, size=num, replace=False)
    flat.sort()
    ii, jj = np.divmod(flat, n)   # row-major order: each column's rows ascending
    return McInstance(d, n, r, ii, jj, M.take(flat), M_true=M)


def mc_save_observations(inst, path):
    """Write observed entries as 'i j value' triples, 1-based indices."""
    with open(path, "w") as fh:
        for j, (rows, vals) in enumerate(zip(inst.rows, inst.vals), 1):
            for i, v in zip(rows.tolist(), vals.tolist()):
                fh.write(f"{i + 1} {j} {v!r}\n")


def mc_load_observations(path, r, d=None, n=None):
    """Read 'i j value' triples (1-based); dims default to the max index seen.

    Raises InvalidObservation, naming the line, for a malformed line, an
    index below 1 or beyond an explicit d / n, or a repeated (i, j), and
    NonFiniteInput for a NaN or Inf value.  Each column keeps its entries in
    file order.
    """
    # an explicit d or n bounds the indices read, so it is checked first
    d, n = (v if v is None else check_count(name, v, 1) for name, v in (("d", d), ("n", n)))
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
    return McInstance(d, n, r, ii, jj, vv)
