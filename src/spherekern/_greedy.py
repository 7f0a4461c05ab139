"""Greedy max-variance selection's steps (:func:`_select`) and the split of
each step's factor-row product between two threads (:class:`_ColumnSplit`).

``regression.greedy_max_variance`` imports this module when it runs, so
that only greedy runs compile it: ``regression`` is itself imported lazily,
in the middle of a run, and without a bytecode cache each line it holds is
compiled then.  With these steps in it, ``error-rate``, which never selects
greedily, measured 0.06-0.18 MB more peak RSS.
"""

import threading
from math import sqrt

import numpy as np

from .errors import IllConditionedGramError
from .kernels import _available_cpus, _in_place


def _select(kernel, grid, n, lam2):
    """``(sel, variance, L, tail)`` of n greedy steps over the unit rows
    ``grid``, lam2 = lam^2: the selected indices, the variance at each
    selection, the lower factor L of K + lam^2 I over the selected points,
    and the flat rest of the buffer that holds L (empty when m <= n).

    One buffer of n x max(n, m) floats holds the steps' rows V in its first
    m columns.  Row i of the growing factor is (V[:i, sel[i]], ell[i]), so
    only ell is stored, and after the last step the factor is compacted
    into the buffer's leading n x n square.  Each step's product
    v @ V[:i], v = V[:i, sel[i]], goes through one :class:`_ColumnSplit`,
    which keeps its bits; v stays the strided column, since a contiguous
    copy of it moves bits.
    """
    m = grid.shape[0]
    kappa_one = kernel.kappa_one

    buf = np.empty((n, max(m, n)))
    V = buf[:, :m]  # row i of the factor of K + lam^2 I is (V[:i, sel[i]], ell[i])
    ell = np.empty(n)
    sigma2 = np.full(m, kappa_one)
    sel = np.empty(n, dtype=np.int64)
    variance = np.empty(n)
    u = np.empty(m)  # inner products with the selected point, then its kernel row
    p = np.empty(m)  # v @ V[:i], then V[i]^2
    kappa = _in_place(kernel, m)

    split = _ColumnSplit(m)
    try:
        for i in range(n):
            j = int(np.argmax(sigma2))
            sel[i] = j

            v = V[:i, j]
            vv = float(v @ v)
            variance[i] = kappa_one - vv
            schur = kappa_one + lam2 - vv
            if schur <= 0.0:
                raise IllConditionedGramError(
                    f"greedy step {i}: nonpositive Schur complement {schur:.3e}"
                )
            ell[i] = sqrt(schur)
            h = split.start(v, V[:i], p)
            np.matmul(v, V[:i, :h], out=p[:h])
            np.matmul(grid, grid[j], out=u)
            np.clip(u, -1.0, 1.0, out=u)
            u[j] = 1.0  # as in gram: the row's own entry is kappa(1) bit for bit
            k_row = kappa(u)
            split.wait()
            np.subtract(k_row, p, out=V[i])
            V[i] /= ell[i]
            sigma2 -= np.square(V[i], out=p)
            np.clip(sigma2, 0.0, None, out=sigma2)  # for the argmax; the ledger clamps its own input
    finally:
        split.close()

    # the factor into buf's leading n x n square: row k of L^T is V[k, sel],
    # gathered before it is written over rows <= k of V, which no later row
    # reads, and its left part takes the mirror of the rows above
    flat = buf.reshape(-1)
    L = flat[: n * n].reshape(n, n)
    for k in range(n):
        L[k] = V[k, sel]
        L[k, :k] = L[:k, k]
    np.fill_diagonal(L, ell)
    return sel, variance, L, flat[n * n:]


class _ColumnSplit:
    """Products ``v @ rows`` (greedy selection's v @ V[:i] over m grid
    points) split by columns between the calling thread and one helper.

    :meth:`start` hands ``v @ rows[:, h:]`` into ``out[h:]`` to the helper
    and returns h, the columns the caller then computes itself before
    :meth:`wait`.  It returns m, and hands nothing over, on one CPU, for a
    grid of fewer than ``MIN_COLUMNS`` points, and for a product of fewer
    than ``MIN_ENTRIES`` entries, where the hand-off costs more than half
    the product saves.  Split from the first step, 1024 steps over 512
    points ran 21 % slower and 256 steps over 1024 points 21 % slower at
    2^16 entries, while 512 steps over 1024 points ran 6 % faster and over
    4096 points 33 % faster (one BLAS thread, 2-core Xeon).

    h = m // 2 // 64 * 64, and m must be a multiple of 8: OpenBLAS at two
    threads splits the whole product itself, and its bits differed from
    the halves' for m = 1, ..., 6 (mod 8) while they matched for the
    multiples of 8 tried.  Each output entry is then the same dot product,
    so results do not depend on the split.

    The thread starts at the first hand-off.  It blocks on a lock between
    products (a lock may be released by any thread, and its round trip
    measured 13 us, half a semaphore's), never spins, and calls nothing but
    ``np.matmul`` on the caller's arrays.  :meth:`wait` raises in the
    caller what the product raised; :meth:`close` joins the thread, also
    with a product in flight.
    """

    MIN_COLUMNS = 1024
    MIN_ENTRIES = 1 << 18

    def __init__(self, m):
        self.m = m
        self.h = m
        if m >= self.MIN_COLUMNS and m % 8 == 0 and _available_cpus() > 1:
            self.h = m // 2 // 64 * 64
        self._thread = self._task = self._error = None
        self._busy = False

    def start(self, v, rows, out):
        if self.h == self.m or rows.size < self.MIN_ENTRIES:
            return self.m
        if self._thread is None:
            self._go, self._done = threading.Lock(), threading.Lock()
            self._go.acquire()
            self._done.acquire()
            thread = threading.Thread(target=self._run, daemon=True)
            thread.start()
            self._thread = thread
        self._task = (v, rows[:, self.h:], out[self.h:])
        self._busy = True
        self._go.release()
        return self.h

    def _run(self):
        while True:
            self._go.acquire()
            task = self._task
            if task is None:
                return
            try:
                np.matmul(task[0], task[1], out=task[2])
            except BaseException as exc:  # raised again in the caller by wait()
                self._error = exc
            self._done.release()

    def wait(self):
        if self._busy:
            self._busy = False
            self._done.acquire()
            if self._error is not None:
                raise self._error

    def close(self):
        if self._thread is not None:
            self._task = None
            if self._go.locked():
                self._go.release()
            self._thread.join()
