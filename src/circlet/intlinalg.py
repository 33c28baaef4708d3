"""Exact integer and mod-2 linear algebra.

Smith normal form with full transform tracking, two sparse unit-pivot
eliminations, and the integer and GF(2) solvers built on them.  All
integer arithmetic runs on Python ints, so every result is exact.  A
sparse system is a list of rows, each mapping a column label to its
integer coefficient, as ``cochains.coboundary_rows`` returns them with
facet positions for labels.

Which solver serves which caller: every integer system first goes
through a unit-pivot elimination (Mrozek-Batko coreduction), and only a
block left without a unit pivot reaches ``smith_normal_form``.
``_unit_pivots`` sees the whole system and picks the sparsest pivot
first; the sweep ``solvable_prefixes`` takes the rows in the order given
and pivots each as it arrives.

* persistence codeaths ask ``solvable_prefixes`` whether every prefix of
  the filtration-ordered system is solvable, in one sweep;
* the per-stage cross-check of persistence asks ``integer_solvable``,
  which eliminates one stage from scratch, decides and returns nothing;
* the winding solve of a global trivialization asks ``solve_integer``
  for one solution, with every undetermined column set to 0;
* the twisted fundamental class asks ``integer_kernel`` for a kernel
  parametrization, and takes the Smith form of its small 3-boundary
  image in kernel parameters;
* sign classes (is it a coboundary, and of which vertex signs) use the
  parity union-find ``sign_potential``; persistence feeds the same
  union-find one edge at a time through ``sign_solvable_prefixes``.
  ``solve_gf2`` stays as the dense reference both are tested against;
* unwrapping two-cluster labels runs ``ParityForest`` itself: once over
  the nerve's edges for the connected pieces and the connectivity
  class's parity on each, once over the cluster relations for the
  hemisphere sheets.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class SNFResult:
    """Smith normal form S = L @ D @ R with unimodular transforms.

    All matrices have dtype=object (Python ints), so downstream
    arithmetic stays exact.  ``Linv`` and ``Rinv`` are the tracked
    inverses of the transforms.
    """

    L: np.ndarray
    S: np.ndarray
    R: np.ndarray
    Linv: np.ndarray
    Rinv: np.ndarray

    @property
    def diagonal(self) -> list[int]:
        m, n = self.S.shape
        return [int(self.S[i, i]) for i in range(min(m, n))]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def smith_normal_form(D) -> SNFResult:
    """Diagonalize an integer matrix by unimodular row/column operations.

    The diagonal is nonnegative with each entry dividing the next.
    """
    S = np.asarray(D)
    if S.ndim != 2:
        raise ValueError("need a 2-d matrix")
    S = S.astype(object)
    m, n = S.shape
    L = np.eye(m, dtype=object)
    Linv = np.eye(m, dtype=object)
    R = np.eye(n, dtype=object)
    Rinv = np.eye(n, dtype=object)

    def swap_rows(i, j):
        if i != j:
            S[[i, j], :] = S[[j, i], :]
            L[[i, j], :] = L[[j, i], :]
            Linv[:, [i, j]] = Linv[:, [j, i]]

    def swap_cols(i, j):
        if i != j:
            S[:, [i, j]] = S[:, [j, i]]
            R[:, [i, j]] = R[:, [j, i]]
            Rinv[[i, j], :] = Rinv[[j, i], :]

    def negate_row(i):
        S[i, :] = -S[i, :]
        L[i, :] = -L[i, :]
        Linv[:, i] = -Linv[:, i]

    t = 0
    while t < min(m, n):
        sub = S[t:, t:]
        nz = np.nonzero(sub)
        if len(nz[0]) == 0:
            break
        flat = np.abs(sub[nz])
        pick = int(np.argmin(flat))
        swap_rows(t, t + int(nz[0][pick]))
        swap_cols(t, t + int(nz[1][pick]))
        while True:
            # clear the pivot column, then the pivot row, retrying with a
            # smaller pivot whenever a remainder survives
            col = S[t + 1:, t]
            if np.any(col):
                q = col // S[t, t]
                S[t + 1:, :] -= q[:, None] * S[t, :]
                L[t + 1:, :] -= q[:, None] * L[t, :]
                Linv[:, t] += Linv[:, t + 1:] @ q
                col = S[t + 1:, t]
                if np.any(col):
                    live = np.nonzero(col)[0]
                    smallest = live[int(np.argmin(np.abs(col[live])))]
                    swap_rows(t, t + 1 + int(smallest))
                    continue
            row = S[t, t + 1:]
            if np.any(row):
                q = row // S[t, t]
                S[:, t + 1:] -= S[:, t][:, None] * q[None, :]
                R[:, t + 1:] -= R[:, t][:, None] * q[None, :]
                Rinv[t, :] += q @ Rinv[t + 1:, :]
                row = S[t, t + 1:]
                if np.any(row):
                    live = np.nonzero(row)[0]
                    smallest = live[int(np.argmin(np.abs(row[live])))]
                    swap_cols(t, t + 1 + int(smallest))
                    continue
                continue  # the column may have been refilled
            break
        if S[t, t] < 0:
            negate_row(t)
        # divisibility: fold in any remaining entry the pivot misses
        rest = S[t + 1:, t + 1:]
        if rest.size:
            bad = np.nonzero(rest % S[t, t])
            if len(bad[0]):
                i = t + 1 + int(bad[0][0])
                S[t, :] += S[i, :]
                L[t, :] += L[i, :]
                Linv[:, i] -= Linv[:, t]
                continue
        t += 1
    for i in range(min(m, n)):
        if S[i, i] < 0:
            negate_row(i)
    return SNFResult(L=L, S=S, R=R, Linv=Linv, Rinv=Rinv)


def solve_gf2(A, b):
    """Some solution of A x = b over GF(2), or None when none exists."""
    A = (np.asarray(A) % 2).astype(np.uint8)
    b = (np.asarray(b) % 2).astype(np.uint8).reshape(-1)
    m, n = A.shape
    if b.size != m:
        raise ValueError("right-hand side does not match the matrix")
    aug = np.concatenate([A, b[:, None]], axis=1)
    pivots = []
    r = 0
    for c in range(n):
        hit = np.nonzero(aug[r:, c])[0]
        if hit.size == 0:
            continue
        p = r + int(hit[0])
        if p != r:
            aug[[r, p], :] = aug[[p, r], :]
        mask = np.nonzero(aug[:, c])[0]
        mask = mask[mask != r]
        aug[mask, :] ^= aug[r, :]
        pivots.append(c)
        r += 1
        if r == m:
            break
    if np.any(aug[r:, n]):
        return None
    x = np.zeros(n, dtype=np.uint8)
    for i, c in enumerate(pivots):
        x[c] = aug[i, n]
    return x


def _unit_pivots(rows: list[dict], rhs) -> Optional[tuple[list, dict, dict]]:
    """Eliminate the unit pivots of the sparse integer system ``rows @ x = rhs``.

    Each row maps a column label to its integer coefficient.  Unit (+-1)
    pivots go first by the sparsest row and within it the sparsest
    column, on Python ints: a unit pivot determines its variable over the
    integers, so substituting it out leaves an equivalent system.

    Returns ``(pivots, live, b)``: the pivots in elimination order as
    ``(column, unit, row, rhs)`` with the row and its right side as they
    stood when it was picked, and the rows left without a unit pivot with
    their right sides, by input position.  None when some row reduces to
    ``0 = b`` with ``b`` nonzero.  The input rows are left untouched.
    """
    if len(rows) != len(rhs):
        raise ValueError("right-hand side does not match the matrix")
    live = {}
    b = {}
    cols: dict = {}
    for i, (given, bi) in enumerate(zip(rows, rhs)):
        row = {c: int(v) for c, v in given.items() if v}
        if not row:
            if bi:
                return None
            continue
        live[i] = row
        b[i] = int(bi)
        for c in row:
            cols.setdefault(c, set()).add(i)

    def priority(i):
        row = live[i]
        best = None
        for c, v in row.items():
            if (v == 1 or v == -1) and (best is None or len(cols[c]) < best):
                best = len(cols[c])
        return None if best is None else (len(row), best)

    heap = []
    for i in live:
        key = priority(i)
        if key is not None:
            heap.append((key, i))
    heapq.heapify(heap)
    pivots = []
    while heap:
        key, i = heapq.heappop(heap)
        if i not in live:
            continue
        now = priority(i)
        if now != key:
            # other pivots changed the row or its column counts: requeue
            if now is not None:
                heapq.heappush(heap, (now, i))
            continue
        piv = live.pop(i)
        bi = b.pop(i)
        c, fewest = None, None
        for cc, v in piv.items():  # the first unit column in the fewest rows
            if (v == 1 or v == -1) and (fewest is None or len(cols[cc]) < fewest):
                c, fewest = cc, len(cols[cc])
        u = piv[c]
        pivots.append((c, u, piv, bi))
        for cc in piv:
            cols[cc].discard(i)
        for r in cols.pop(c):
            row = live[r]
            f = row[c] * u
            for cc, v in piv.items():
                nv = row.get(cc, 0) - f * v
                if nv:
                    if cc not in row:
                        cols[cc].add(r)
                    row[cc] = nv
                else:
                    del row[cc]
                    if cc != c:
                        cols[cc].discard(r)
            b[r] -= f * bi
            if not row:
                if b[r]:
                    return None
                del live[r], b[r]
                continue
            key = priority(r)
            if key is not None:
                heapq.heappush(heap, (key, r))
    return pivots, live, b


def _back_substitute(pivots: list, x: dict) -> dict:
    """Fill in the pivot columns of ``x``, last pivot first.

    A pivot row reads ``u * x[c] + sum(row[cc] * x[cc]) = rhs`` and ``u``
    is its own inverse; a column ``x`` holds no value for is set to 0.
    """
    for c, u, row, bi in reversed(pivots):
        x[c] = u * (bi - sum(v * x.setdefault(cc, 0) for cc, v in row.items() if cc != c))
    return x


def _solve_block(live: dict, b: dict) -> Optional[dict]:
    """Some solution of the rows left without a unit pivot, or None.

    With ``S = L @ A @ R`` diagonal, ``A x = b`` is solvable exactly when
    ``L @ b`` vanishes past the rank and each earlier entry is divisible
    by its diagonal entry; then ``x = R @ y`` with ``y = (L @ b) / S``.
    """
    if not live:
        return {}
    block = list(dict.fromkeys(c for row in live.values() for c in row))
    snf = smith_normal_form(_dense_rows(list(live.values()), block))
    lb = snf.L @ np.array([b[i] for i in live], dtype=object)
    d = snf.diagonal[: snf.rank]
    if any(lb[len(d):]) or any(v % di for v, di in zip(lb, d)):
        return None
    y = np.zeros(len(block), dtype=object)
    y[: len(d)] = [v // di for v, di in zip(lb, d)]
    return dict(zip(block, (int(v) for v in snf.R @ y)))


def integer_solvable(rows: list[dict], rhs) -> bool:
    """Does the sparse integer system ``rows @ x = rhs`` have a solution?

    ``_unit_pivots`` substitutes out every unit pivot and the Smith form
    decides whatever has no unit pivot left, so torsion is decided
    exactly.  Back-substitutes nothing and returns no solution.
    """
    reduced = _unit_pivots(rows, rhs)
    return reduced is not None and _solve_block(*reduced[1:]) is not None


def _reduce(row: dict, bi: int, pivots: list, position: dict) -> int:
    """Subtract the pivots from ``row`` in creation order; return its right side.

    A pivot row holds no column of an earlier pivot, so one pass in
    creation order clears every pivot column.  ``row`` changes in place.
    """
    heap = [position[c] for c in row if c in position]
    heapq.heapify(heap)
    while heap:
        c, u, piv, pb = pivots[heapq.heappop(heap)]
        f = row.get(c)
        if not f:
            continue  # a repeat, or cleared already
        f *= u
        for cc, v in piv.items():
            nv = row.get(cc, 0) - f * v
            if not nv:
                del row[cc]
                continue
            if cc not in row and cc in position:
                heapq.heappush(heap, position[cc])
            row[cc] = nv
        bi -= f * pb
    return bi


def solvable_prefixes(rows: list[dict], rhs) -> list[bool]:
    """Entry n: is the system of the first n rows of ``rows @ x = rhs`` solvable over Z?

    One elimination in row order.  Each new row is reduced by the
    existing pivots in creation order; a +-1 entry left over makes its
    column a pivot, and the rows left without a unit entry that hold that
    column go through the reduction again.  A row reduced to ``0 = b``
    with ``b`` nonzero makes its prefix and every later one unsolvable.
    The rows left without a unit entry form the block that
    ``_solve_block`` decides, whenever it has changed.  Entry 0 (no rows)
    is True.  The input rows are left untouched.
    """
    if len(rows) != len(rhs):
        raise ValueError("right-hand side does not match the matrix")
    pivots = []  # (column, unit, row, rhs) in creation order
    position = {}  # pivot column -> its place in pivots
    live = {}  # rows without a unit entry, by arrival number
    b = {}
    holding: dict = {}  # column -> arrival numbers of the live rows holding it
    out = [True]
    block = True  # the block's answer, decided again only when it changes
    changed = False
    for i, (given, bi) in enumerate(zip(rows, rhs)):
        queue = [(i, {c: int(v) for c, v in given.items() if v}, int(bi))]
        while queue:
            k, row, rb = queue.pop()
            rb = _reduce(row, rb, pivots, position)
            if not row:
                if rb:
                    return out + [False] * (len(rows) - i)
                continue
            units = [c for c, v in row.items() if v in (1, -1)]
            if not units:
                live[k], b[k] = row, rb
                for c in row:
                    holding.setdefault(c, set()).add(k)
                changed = True
                continue
            c = min(units, key=lambda c: len(holding.get(c, ())))
            position[c] = len(pivots)
            pivots.append((c, row[c], row, rb))
            for j in holding.pop(c, ()):
                old = live.pop(j)
                for cc in old:
                    if cc != c:
                        holding[cc].discard(j)
                queue.append((j, old, b.pop(j)))
                changed = True
        if changed:
            block = _solve_block(live, b) is not None
            changed = False
        out.append(block)
    return out


def solve_integer(rows: list[dict], rhs) -> Optional[dict]:
    """Some integer solution of the sparse system ``rows @ x = rhs``, or None.

    The elimination is ``integer_solvable``'s; the block without unit
    pivots is solved by the Smith form, every column that nothing
    determines is set to 0, and the pivots are back-substituted.  The
    solution maps every column of the system to an integer.
    """
    reduced = _unit_pivots(rows, rhs)
    if reduced is None:
        return None
    pivots, live, b = reduced
    x = _solve_block(live, b)
    return None if x is None else _back_substitute(pivots, x)


@dataclass
class IntegerKernel:
    """Integer kernel of a sparse matrix, parametrized by free columns.

    A kernel vector is fixed by its values on ``free`` (any integers) and
    on ``block`` (the columns of the rows left without a unit pivot, in
    the span of ``basis``); the unit pivots follow by back-substitution.
    Its parameters are the free values followed by ``coords`` applied to
    the block values.
    """

    free: list  # columns with no pivot and no leftover row
    block: list  # columns of the rows left without a unit pivot
    basis: np.ndarray  # (len(block), b) integer kernel basis of that block
    coords: np.ndarray  # (b, len(block)) inverse rows: block values -> parameters
    pivots: list  # (column, unit, row, 0) in elimination order

    @property
    def rank(self) -> int:
        return len(self.free) + self.basis.shape[1]

    def parameters(self, x: dict) -> list[int]:
        """Parameters of a kernel vector given as column -> integer."""
        y = np.array([x.get(c, 0) for c in self.block], dtype=object)
        return [int(x.get(c, 0)) for c in self.free] + [int(v) for v in self.coords @ y]

    def vector(self, t) -> dict:
        """The kernel vector with parameters ``t``, as column -> integer."""
        t = [int(v) for v in t]
        nf = len(self.free)
        x = dict(zip(self.free, t[:nf]))
        x.update(zip(self.block, (int(v) for v in self.basis @ np.array(t[nf:], dtype=object))))
        return _back_substitute(self.pivots, x)


def integer_kernel(rows: list[dict], columns: list) -> IntegerKernel:
    """Integer kernel of ``rows`` over the given columns, by unit pivots.

    The elimination is ``integer_solvable``'s.  Only a block without a
    unit pivot reaches ``smith_normal_form``; its last right-transform
    columns span the block's kernel.
    """
    pivots, live, _ = _unit_pivots(rows, [0] * len(rows))
    block = list(dict.fromkeys(c for row in live.values() for c in row))
    if block:
        snf = smith_normal_form(_dense_rows(list(live.values()), block))
        basis, coords = snf.R[:, snf.rank:], snf.Rinv[snf.rank:, :]
    else:
        basis = coords = np.zeros((0, 0), dtype=object)
    done = {c for c, *_ in pivots} | set(block)
    free = [c for c in columns if c not in done]
    return IntegerKernel(free=free, block=block, basis=basis, coords=coords, pivots=pivots)


def _dense_rows(rows: list[dict], labels: list) -> np.ndarray:
    """Scatter sparse rows into a dense object matrix, columns by label."""
    pos = {c: j for j, c in enumerate(labels)}
    A = np.zeros((len(rows), len(labels)), dtype=object)
    for i, row in enumerate(rows):
        for c, v in row.items():
            A[i, pos[c]] = v
    return A


class ParityForest:
    """Union-find over vertices, each carrying its parity relative to its parent.

    Every component is rooted at its largest vertex id; a root carries no
    parity entry.
    """

    def __init__(self):
        self.parent: dict = {}
        self.parity: dict = {}

    def find(self, v):
        path = []
        p = 0
        while self.parent.setdefault(v, v) != v:
            path.append(v)
            v = self.parent[v]
        # compress: point every vertex on the path straight at the root
        for w in reversed(path):
            p ^= self.parity[w]
            self.parent[w] = v
            self.parity[w] = p
        return v

    def union(self, j, k, odd: bool) -> bool:
        """Join j and k at relative parity ``odd``; False on an odd cycle."""
        rj, rk = self.find(j), self.find(k)
        odd ^= self.parity.get(j, 0) ^ self.parity.get(k, 0)
        if rj == rk:
            return not odd
        lo, hi = (rj, rk) if rj < rk else (rk, rj)
        self.parent[lo] = hi
        self.parity[lo] = odd
        return True


def sign_potential(signs: dict, vertices=()) -> Optional[dict]:
    """Vertex signs whose products give an edge sign cochain, or None.

    ``signs`` maps each edge (j, k) to +-1; the result ``phi`` satisfies
    ``phi[j] * phi[k] == signs[(j, k)]`` on every edge and covers the
    edges' endpoints plus ``vertices``.  A parity union-find: each
    component is rooted at its largest vertex id with sign +1, the
    solution ``solve_gf2`` picks on vertex columns in ascending order.
    None means some cycle has odd parity, so the cochain is no
    coboundary.
    """
    forest = ParityForest()
    for (j, k), s in signs.items():
        if not forest.union(j, k, s < 0):
            return None
    for v in [*forest.parent, *vertices]:
        forest.find(v)
    # roots carry no parity entry, so they get +1
    return {v: -1 if forest.parity.get(v, 0) else 1 for v in forest.parent}


def sign_solvable_prefixes(signs: dict) -> list[bool]:
    """Entry n: is the sign cochain on the first n edges of ``signs`` a coboundary?

    ``sign_potential``'s union-find, fed one edge at a time; once an edge
    closes an odd cycle every longer prefix holds that cycle too.
    """
    forest = ParityForest()
    out = [True]
    for (j, k), s in signs.items():
        out.append(out[-1] and forest.union(j, k, s < 0))
    return out

