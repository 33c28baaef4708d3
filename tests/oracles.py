"""Independent oracles used to derive and cross-check expected values.

Everything here is deliberately naive: exhaustive scans, dense grids, and
direct restatements of definitions.  Nothing imports from the package
internals beyond plain value types, so an implementation bug cannot leak
into its own expected values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from circlet.cochains import Witness
from circlet.errors import (
    DiameterTooLarge,
    GuardError,
    InconsistentClusters,
    LiftUndefined,
    PropagationConflict,
    SectionUndefined,
    TooFewSamples,
)
from circlet.io import Columns
from circlet.projection import PartitionOfUnity


@dataclass(frozen=True)
class O2:
    """Reference isometry of the circle: rotate by ``turn``, reflect first if ``sign`` is -1.

    ``a @ b`` is the product of matrix forms: turn ``a.turn + a.sign * b.turn``
    modulo 1, signs multiplied.
    """

    turn: float
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        object.__setattr__(self, "turn", self.turn % 1.0)

    @property
    def matrix(self) -> np.ndarray:
        c, s = math.cos(2.0 * math.pi * self.turn), math.sin(2.0 * math.pi * self.turn)
        return np.array([[c, -s * self.sign], [s, c * self.sign]])

    def inverse(self) -> "O2":
        return O2(-self.turn, 1) if self.sign == 1 else self  # reflections are involutions

    def __matmul__(self, other: "O2") -> "O2":
        return O2(self.turn + self.sign * other.turn, self.sign * other.sign)


def witness_of(nerve, values: dict) -> Witness:
    """The package's witness of ``{edge: O2}``, aligned to ``nerve.edges``."""
    om = [values[e] for e in nerve.edges]
    turn = np.array([o.turn for o in om], dtype=float)
    return Witness(nerve, turn, np.array([o.sign for o in om], dtype=np.int64))


def o2_values(witness) -> dict:
    """``{edge: O2}`` of a package witness."""
    return {e: O2(t, s) for e, t, s in
            zip(witness.nerve.edges, witness.turn.tolist(), witness.sign.tolist())}


def trivial_twist(nerve):
    """The sign cochain that is +1 on every edge."""
    return np.ones(len(nerve.edges), dtype=np.int64)


def loop_defect(values: dict, triangles) -> float:
    """Worst holonomy defect, one triangle at a time, from ``{edge: O2}``."""
    worst = 0.0
    for j, k, l in triangles:
        a, b = values[(j, k)] @ values[(k, l)], values[(j, l)]
        if a.sign == b.sign:
            d = math.sqrt(8.0) * abs(math.sin(math.pi * (a.turn - b.turn)))
        else:
            d = float(np.linalg.norm(a.matrix - b.matrix))
        worst = max(worst, d)
    return worst


def loop_lift_coboundary(witness):
    """Pre-bracket values (one per triangle) and the bracket margin, a triangle at a time.

    On (j, k, l): the principal lifts, in (-1/2, 1/2], of the turns on
    (k, l) times the sign on (j, k), minus (j, l), plus (j, k), added left to right.
    """
    turns = dict(zip(witness.nerve.edges, (witness.turn % 1.0).tolist()))
    lift = {e: t if t <= 0.5 else t - 1.0 for e, t in turns.items()}
    sign = dict(zip(witness.nerve.edges, witness.sign.tolist()))
    pre = [sign[j, k] * lift[k, l] - lift[j, l] + lift[j, k] for j, k, l in witness.nerve.triangles]
    return pre, min((0.5 - abs(x - round(x)) for x in pre), default=math.inf)


def gap_scan_arc(angles, resolution: int = 200_000):
    """Shortest enclosing arc by scanning candidate start points.

    Returns (midpoint, width) in turns.  Exhaustive over data-aligned
    candidates: the optimal arc starts at a data point.
    """
    a = np.sort(np.asarray(angles, dtype=float) % 1.0)
    n = a.size
    if n == 1:
        return float(a[0]), 0.0
    best = None
    for i in range(n):
        start = a[i]
        rel = (a - start) % 1.0
        width = float(np.max(rel))
        if best is None or width < best[1] - 1e-15:
            best = (float((start + width / 2.0) % 1.0), width)
    return best


def grid_karcher(angles, weights, step: float = 1e-5):
    """Weighted Karcher mean by brute-force grid minimization.

    Minimizes the weighted sum of squared geodesic distances over a dense
    grid of candidate means, then refines once around the best cell.
    """
    a = np.asarray(angles, dtype=float) % 1.0
    w = np.asarray(weights, dtype=float)

    def objective(grid):
        d = np.abs((grid[:, None] - a[None, :] + 0.5) % 1.0 - 0.5)
        return ((2.0 * math.pi * d) ** 2) @ w

    grid = np.arange(0.0, 1.0, step)
    obj = objective(grid)
    t0 = float(grid[int(np.argmin(obj))])
    fine = (t0 + np.linspace(-step, step, 2001)) % 1.0
    obj = objective(fine)
    return float(fine[int(np.argmin(obj))])


def grid_procrustes(alpha, beta, step: float = 1e-5):
    """Minimax circle alignment by grid search over both components.

    Tries every rotation angle on a grid against both candidate forms
    (plain rotation, rotation of the conjugate) and returns
    ``(turn, sign, minimax_chord_error)`` of the best grid point.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    grid = np.arange(0.0, 1.0, step)

    def best_turn(gamma):
        # chord error of rotation by theta against offsets gamma
        d = np.abs(np.sin(np.pi * (gamma[None, :] - grid[:, None])))
        worst = 2.0 * d.max(axis=1)
        i = int(np.argmin(worst))
        return float(grid[i]), float(worst[i])

    t_rot, e_rot = best_turn((alpha - beta) % 1.0)
    t_ref, e_ref = best_turn((alpha + beta) % 1.0)
    if e_rot <= e_ref:
        return t_rot, 1, e_rot
    return t_ref, -1, e_ref


def snf_properties(original, L, S, R) -> bool:
    """Check L @ original @ R == S, unimodularity, diagonal divisibility."""
    Lm = [[int(x) for x in row] for row in L]
    Rm = [[int(x) for x in row] for row in R]
    Dm = [[int(x) for x in row] for row in original]
    Sm = [[int(x) for x in row] for row in S]
    prod = mat_mul(mat_mul(Lm, Dm), Rm)
    if prod != Sm:
        return False
    if abs(int_det(Lm)) != 1 or abs(int_det(Rm)) != 1:
        return False
    m, n = len(Sm), len(Sm[0])
    diag = [Sm[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j and Sm[i][j] != 0:
                return False
    for i in range(min(m, n)):
        if diag[i] < 0:
            return False
    for a, b in zip(diag, diag[1:]):
        if a == 0 and b != 0:
            return False
        if a != 0 and b % a != 0:
            return False
    return True


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    assert len(A[0]) == k
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                row = out[i]
                for j in range(m):
                    row[j] += a * Bt[j]
    return out


def int_det(A):
    """Exact determinant by fraction-free Gaussian elimination (Bareiss)."""
    n = len(A)
    M = [[int(x) for x in row] for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def brute_force_integer_solvable(A, b, bound: int = 12) -> bool:
    """Decide solvability of A x = b over the integers by boxed search.

    Only usable for tiny systems; the box bound must exceed any plausible
    solution coordinate for the test family in use.
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    rng = range(-bound, bound + 1)
    for cand in itertools.product(rng, repeat=cols):
        ok = True
        for i in range(rows):
            s = sum(A[i][j] * cand[j] for j in range(cols))
            if s != b[i]:
                ok = False
                break
        if ok:
            return True
    return False


def dense_solve_integer(A, b):
    """Some integer solution of the dense system A x = b, or None.

    One full-transform Smith form S = L A R: a solution exists exactly
    when L b is divisible by the diagonal and vanishes beyond the rank,
    and then x = R y with y = (L b) / S.  The Smith form is the
    library's, which the intlinalg tests check against its defining
    properties.
    """
    from circlet.intlinalg import smith_normal_form

    A = np.asarray(A, dtype=object)
    b = np.asarray(b, dtype=object).reshape(-1)
    m, n = A.shape
    snf = smith_normal_form(A)
    c = np.dot(snf.L, b)
    y = np.zeros(n, dtype=object)
    for i in range(m):
        d = int(snf.S[i, i]) if i < n else 0
        if d == 0:
            if c[i] != 0:
                return None
        elif c[i] % d != 0:
            return None
        else:
            y[i] = c[i] // d
    return np.dot(snf.R, y)


def gf2_solvable(A, b) -> bool:
    """Decide solvability of A x = b over GF(2) by row reduction."""
    A = [[x & 1 for x in row] for row in A]
    b = [x & 1 for x in b]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    aug = [A[i] + [b[i]] for i in range(rows)]
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        for i in range(rows):
            if i != r and aug[i][c]:
                aug[i] = [(x ^ y) for x, y in zip(aug[i], aug[r])]
        r += 1
    return all(row[-1] == 0 for row in aug[r:])


def direct_mean_chord(f_angles, g_angles, turn, sign):
    """Mean chord misalignment of two angle lists under a (turn, sign) map."""
    f = np.asarray(f_angles, dtype=float)
    g = np.asarray(g_angles, dtype=float)
    mapped = (turn + sign * g) % 1.0
    return float(np.mean(2.0 * np.abs(np.sin(np.pi * (f - mapped)))))


def gf2_nullspace(A):
    """Basis of the GF(2) nullspace of A, as 0/1 lists.

    Plain RREF; free columns parameterize the kernel.
    """
    A = [[x & 1 for x in row] for row in A]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    aug = [row[:] for row in A]
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        for i in range(rows):
            if i != r and aug[i][c]:
                aug[i] = [x ^ y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * cols
        vec[f] = 1
        for i, c in enumerate(pivots):
            vec[c] = aug[i][f]
        basis.append(vec)
    return basis


def integer_kernel_via_rationals(A):
    """Rank and one integer kernel basis check using fractions.

    Returns (rank, nullity).  Used to cross-check kernel dimensions
    independently of any normal-form code.
    """
    from fractions import Fraction

    rows = len(A)
    cols = len(A[0]) if rows else 0
    M = [[Fraction(x) for x in row] for row in A]
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = 1 / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(rows):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        r += 1
    return r, cols - r


def recursive_canonical_text(obj, indent: int = 0) -> str:
    """Canonical JSON text by one recursive call per value.

    The serializer's original form: sorted keys, two-space indent, floats
    by ``repr``-exact 17 significant digits with a decimal marker.  A
    column record list is written as the list of row dicts it stands for.
    """
    import json

    if isinstance(obj, Columns):
        obj = column_rows(obj)
    pad = " " * indent
    kid = " " * (indent + 2)
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        s = format(float(obj), ".17g")
        return s if any(c in s for c in ".e") else s + ".0"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [recursive_canonical_text(x, indent + 2) for x in obj]
        if not items:
            return "[]"
        return "[\n" + ",\n".join(kid + x for x in items) + "\n" + pad + "]"
    rows = [
        kid + json.dumps(k) + ": " + recursive_canonical_text(obj[k], indent + 2)
        for k in sorted(obj, key=str)
    ]
    if not rows:
        return "{}"
    return "{\n" + ",\n".join(rows) + "\n" + pad + "}"


def column_rows(table: Columns) -> list:
    """Row ``i`` of a column record list as ``{key: col[i]}``, plain Python values."""
    keys = list(table.cols)
    return [dict(zip(keys, row)) for row in zip(*(c.tolist() for c in table.cols.values()))]


def dense_boundary(nerve, twist, p: int):
    """Twisted boundary matrix of p-chains, restated from the definition.

    The face without vertex i has sign (-1)**i, except that the face
    without the leading vertex carries the twist (a sign array on
    ``nerve.edges``) on the leading edge.  Rows and columns follow the
    nerve's filtration order (lex without one).  Returns
    ``(matrix, rows, cols)`` with an object matrix.
    """
    twist = dict(zip(nerve.edges, twist.tolist()))

    def ordered(q):
        simps = list(nerve.simplices.get(q, []))
        if nerve.index is not None:
            simps.sort(key=lambda s: nerve.index[s])
        return simps

    rows, cols = ordered(p - 1), ordered(p)
    pos = {s: i for i, s in enumerate(rows)}
    D = np.zeros((len(rows), len(cols)), dtype=object)
    for j, s in enumerate(cols):
        for i in range(len(s)):
            D[pos[s[:i] + s[i + 1:]], j] = twist[s[:2]] if i == 0 else (-1) ** i
    return D, rows, cols


def snf_fundamental_class(nerve, twist) -> dict:
    """Twisted fundamental 2-cycle by two dense full-transform Smith forms.

    The kernel of the 2-boundary is read off the Smith form's zero
    columns, the 3-boundary is taken into kernel coordinates, and the
    free generator of the quotient is pulled back; first nonzero
    coefficient positive.  Returns None unless the free rank is one.
    The Smith form is the library's dense one, which the intlinalg tests
    check against its defining properties.
    """
    from circlet.intlinalg import smith_normal_form

    d2, _, tris = dense_boundary(nerve, twist, 2)
    d3, _, tets = dense_boundary(nerve, twist, 3)
    snf = smith_normal_form(d2)
    k = len(tris) - snf.rank
    if k == 0:
        return None
    K = snf.R[:, snf.rank:]
    if tets:
        bsnf = smith_normal_form(np.dot(snf.Rinv[snf.rank:, :], d3))
        if k - bsnf.rank != 1:
            return None
        v = bsnf.Linv[:, k - 1].reshape(-1, 1)
    elif k == 1:
        v = np.ones((1, 1), dtype=object)
    else:
        return None
    mu = np.dot(K, v).reshape(-1)
    lead = next(x for x in mu if x != 0)
    return {s: int(c) * (1 if lead > 0 else -1) for s, c in zip(tris, mu)}


# ---------------------------------------------------------------------------
# per-sample projection loops
#
# The projection pipeline used to run one sample at a time; these loops are
# that code, kept as references.  The partition weights and the frame
# moment must match them bit for bit: the moment's eigenvalues come in
# exact pairs for witnesses without reflections, so its principal basis is
# fixed only by rounding and any change of summation order moves it.


def loop_partition_weights(cover, dataset):
    """Partition-of-unity rows ``{sample: {set: weight}}``, one (sample, set) at a time.

    Tent weights (radius minus geodesic distance, clipped at zero) are
    summed in cover order and normalized; covers without geometry get
    membership indicators.
    """
    cover = list(cover)
    parametric = dataset.kind != "abstract" and all(
        c.center is not None and c.radius is not None for c in cover
    )
    holders = {s: [] for s in dataset.ids}
    for c in cover:
        for s in c.members:
            holders[s].append(c)
    rows = {}
    for i, s in enumerate(dataset.ids):
        sets_here = holders[s]
        if parametric:
            row = {}
            for c in sets_here:
                dot = np.atleast_2d(dataset.base[i]) @ c.center
                if dataset.kind == "projective_plane":
                    dot = np.abs(dot)
                d = float(np.arccos(np.clip(dot, -1.0, 1.0))[0])
                row[c.id] = max(0.0, c.radius - d)
            total = sum(row.values())
            if total <= 0.0:
                row = {c.id: 1.0 for c in sets_here}
                total = float(len(sets_here))
        else:
            row = {c.id: 1.0 for c in sets_here}
            total = float(len(sets_here))
        rows[s] = {j: w / total for j, w in row.items() if w > 0.0}
    return rows


def partition_from_rows(rows, sets, mode):
    """A ``PartitionOfUnity`` holding ``{sample: {set: weight}}`` rows."""
    sets = tuple(sorted(sets))
    ids = sorted(rows)
    supp = [sorted(rows[s]) for s in ids]
    return PartitionOfUnity(
        ids=np.array(ids, dtype=np.int64),
        indptr=np.cumsum([0] + [len(x) for x in supp]),
        slots=np.array([sets.index(j) for x in supp for j in x], dtype=np.int64),
        weights=np.array([rows[s][j] for s, x in zip(ids, supp) for j in x], dtype=float),
        sets=sets,
        mode=mode,
    )


def _o2_at(values, j, k):
    """Isometry on an ordered pair from values kept on ascending pairs."""
    if j == k:
        return O2(0.0, 1)
    if j < k:
        return values[(j, k)]
    return values[(k, j)].inverse()


def loop_frames(values, rows, sets):
    """Restricted witness frames, ``sample -> (support, weights, {set: frame}, ambient rows)``."""
    slot = {j: i for i, j in enumerate(sorted(sets))}
    out = {}
    for s in sorted(rows):
        supp = sorted(rows[s])
        w = np.array([rows[s][j] for j in supp])
        roots = np.sqrt(w)
        frames = {}
        for j in supp:
            mat = np.empty((2 * len(supp), 2))
            for r, i in enumerate(supp):
                mat[2 * r : 2 * r + 2, :] = roots[r] * _o2_at(values, i, j).matrix
            frames[j] = mat
        amb = np.array([x for i in supp for x in (2 * slot[i], 2 * slot[i] + 1)], dtype=int)
        out[s] = (supp, w, frames, amb)
    return out


def loop_moment(frames, dim):
    """Second-moment matrix of all frame columns, scattered frame by frame."""
    moment = np.zeros((dim, dim))
    for _, _, mats, amb in frames.values():
        block = np.ix_(amb, amb)
        for mat in mats.values():
            moment[block] += mat @ mat.T
    return moment


def _loop_polar(b):
    vals, vecs = np.linalg.eigh(b.T @ b)
    return b @ (vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T)


def _loop_round(m):
    """Nearest circle isometry to a 2x2 matrix, with the Frobenius gap."""
    if m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] >= 0:
        om = O2(math.atan2(m[1, 0] - m[0, 1], m[0, 0] + m[1, 1]) / (2.0 * math.pi), 1)
    else:
        om = O2(math.atan2(m[1, 0] + m[0, 1], m[0, 0] - m[1, 1]) / (2.0 * math.pi), -1)
    return om, float(np.linalg.norm(m - om.matrix))


def _loop_karcher(pts, w):
    """Closed-form weighted circular mean of points within a half circle."""
    ang = np.arctan2(pts[:, 1], pts[:, 0]) / (2.0 * math.pi) % 1.0
    center = float(ang[0])
    rel = []
    for t in ang:
        r = (t - center) % 1.0
        rel.append(r if r <= 0.5 else r - 1.0)
    t = ((center + float(np.dot(w, rel))) % 1.0) * 2.0 * math.pi
    return np.array([np.cos(t), np.sin(t)])


def _chart_value(trivs, j, s):
    c = trivs.chart(j)
    r = int(c.ids.searchsorted(s))
    return c.points[r], float(c.turns[r])


def loop_bundle_map(trivs, values, rows, sets, d):
    """Frame-bundle coordinates, one sample at a time.

    Returns ``(vectors, overlap_residual, plane_residual, ortho_residual)``
    for valid inputs (no guard is checked).
    """
    frames = loop_frames(values, rows, sets)
    _, vecs = np.linalg.eigh(loop_moment(frames, 2 * len(sets)))
    basis = vecs[:, ::-1][:, :d]
    for c in range(d):
        col = basis[:, c]
        if col[int(np.argmax(np.abs(col)))] < 0:
            basis[:, c] = -col
    vectors = {}
    overlap = plane = ortho = 0.0
    for s, (supp, w, mats, amb) in frames.items():
        proj = basis[amb].T
        red = {j: _loop_polar(proj @ mat) for j, mat in mats.items()}
        tilde = np.zeros((d, d))
        for wj, f in zip(w, red.values()):
            tilde += wj * (f @ f.T)
        top = np.linalg.eigh(tilde)[1][:, ::-1][:, :2]
        p = top @ top.T
        fixed = {j: _loop_polar(p @ red[j]) for j in supp}
        pairs = {}
        for a, j in enumerate(supp):
            for k in supp[a + 1 :]:
                pairs[(j, k)], resid = _loop_round(fixed[j].T @ fixed[k])
                ortho = max(ortho, resid)
        here = [_chart_value(trivs, j, s)[0] for j in supp]
        outputs = {}
        for j in supp:
            pts = np.stack([v @ _o2_at(pairs, j, k).matrix.T for k, v in zip(supp, here)])
            outputs[j] = fixed[j] @ _loop_karcher(pts, w)
        v = outputs[min(supp, key=lambda j: (-rows[s][j], j))]
        for a, j in enumerate(supp):
            for k in supp[a + 1 :]:
                overlap = max(overlap, float(np.linalg.norm(outputs[j] - outputs[k])))
        vectors[s] = v
        plane = max(plane, float(np.linalg.norm(v - p @ v)))
    return vectors, overlap, plane, ortho


def loop_global_angles(trivs, rows, phi, shift):
    """Global fiber angles, one sample at a time, and the worst chart disagreement.

    ``phi`` is the per-set reflection fix and ``shift`` the per-edge
    rotation lift less its winding correction, on ascending edges.
    """

    def shift_at(j, k):
        if j == k:
            return 0.0
        return shift[(j, k)] if j < k else -shift[(k, j)]

    angles = {}
    residual = 0.0
    for s in sorted(rows):
        supp = sorted(rows[s])
        pts = []
        for j in supp:
            turn = _chart_value(trivs, j, s)[1]
            if phi[j] < 0:
                turn = -turn
            mu = sum(rows[s][k] * shift_at(k, j) for k in supp)
            pts.append((turn + mu) % 1.0)
        xy = np.array([[math.cos(2 * math.pi * t), math.sin(2 * math.pi * t)] for t in pts])
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                residual = max(residual, float(np.linalg.norm(xy[a] - xy[b])))
        mean = _loop_karcher(xy, np.array([rows[s][j] for j in supp]))
        angles[s] = float(np.arctan2(mean[1], mean[0]) / (2.0 * math.pi) % 1.0)
    return angles, residual


def projection_distances(omega, ff, projected) -> dict:
    """What one run of projection stages 1-3 measured, one sample at a time.

    ``projected`` is ``(averages, frames, pairs)`` of a ``FrameField``
    ``ff``: per group the weighted frame averages with their projectors,
    and the rounded transitions as turns, signs and residuals.  Returns
    the largest Frobenius gaps between an average and its projector
    ("projector"), between a witness transition and its rounded one
    ("cocycle"), the worst rounding residual ("ortho"), and the worst
    cocycle-identity residual of the rounded transitions ("defect").
    """
    out = dict.fromkeys(("projector", "cocycle", "ortho", "defect"), 0.0)
    values = o2_values(omega)
    averages, _, pairs = projected
    for g, (tilde, proj, _), (turn, sign, ortho) in zip(ff.groups, averages, pairs):
        for i in range(len(g.ids)):
            sets = [int(j) for j in g.sets[i]]
            m = len(sets)
            out["projector"] = max(out["projector"], float(np.linalg.norm(tilde[i] - proj[i])))
            out["ortho"] = max(out["ortho"], float(ortho[i]))
            rounded = {(a, b): O2(float(turn[i, a, b]), int(sign[i, a, b])).matrix
                       for a in range(m) for b in range(m)}
            for a, b in itertools.combinations(range(m), 2):
                gap = np.linalg.norm(values[(sets[a], sets[b])].matrix - rounded[a, b])
                out["cocycle"] = max(out["cocycle"], float(gap))
            for a, b, c in itertools.combinations(range(m), 3):
                gap = np.linalg.norm(rounded[a, b] @ rounded[b, c] - rounded[a, c])
                out["defect"] = max(out["defect"], float(gap))
    return out


def per_value_int(x):
    """An integer field's value, or None: an exact int (bool is not) inside int64."""
    if isinstance(x, bool) or not isinstance(x, int) or not -(2**63) <= x < 2**63:
        return None
    return x


def per_value_number(x):
    """A number field's value as a double, or None: int or float (bool is not), finite."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return None
    try:
        x = float(x)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


# ---------------------------------------------------------------------------
# the witness layer, one overlap at a time: nerve by set intersection,
# per-edge minimax fits and per-overlap quality, as the package computed
# them before its overlaps became segments of one incidence

_TIE_TOL = 1e-12


def loop_nerve(cover, max_dim: int = 3) -> dict:
    """Simplices by extending each tuple with every later set that still meets it."""
    members = {c.id: set(c.members) for c in cover}
    verts = sorted(j for j, m in members.items() if m)
    simplices = {0: [(j,) for j in verts]}
    shared = {(j,): members[j] for j in verts}
    for p in range(1, max_dim + 1):
        level = []
        for s in simplices[p - 1]:
            for j in verts:
                if j > s[-1] and shared[s] & members[j]:
                    level.append(s + (j,))
                    shared[s + (j,)] = shared[s] & members[j]
        simplices[p] = sorted(level)
    return simplices


def loop_overlap(trivs, sets):
    """Shared ids of charts and each chart's rows, by chained pairwise intersection."""
    ids = trivs.chart(sets[0]).ids
    rows = [np.arange(len(ids))]
    for j in sets[1:]:
        ids, here, there = np.intersect1d(
            ids, trivs.chart(j).ids, assume_unique=True, return_indices=True
        )
        rows = [r[here] for r in rows] + [there]
    return ids, rows


def _angle(points):
    p = np.asarray(points, dtype=float)
    return np.arctan2(p[..., 1], p[..., 0]) / (2.0 * math.pi) % 1.0


def _chord(dt):
    return 2.0 * np.abs(np.sin(np.pi * np.asarray(dt, dtype=float)))


def loop_arc(angles):
    """Shortest enclosing arc of one angle list: ``(midpoint, width, max_gap, tied_midpoints)``.

    More than one tied midpoint means the largest gap is not unique.
    """
    a = np.sort(np.asarray(angles, dtype=float) % 1.0)
    if a.size == 1:
        return float(a[0]), 0.0, 1.0, [float(a[0])]
    gaps = np.diff(a, append=a[0] + 1.0)
    g = float(np.max(gaps))
    tied = np.flatnonzero(gaps >= g - _TIE_TOL)
    mids = [float((a[(i + 1) % a.size] + (1.0 - gaps[i]) / 2.0) % 1.0) for i in tied]
    i = int(tied[0])
    width = 1.0 - g
    start = a[(i + 1) % a.size] % 1.0
    return float((start + width / 2.0) % 1.0), width, g, mids


def loop_procrustes(f_points, g_points):
    """Minimax O(2) fit of two point lists: ``(turn, sign, error)``, the rotation on a tie."""
    n = len(f_points)
    if n < 2:
        raise TooFewSamples(f"minimax alignment needs >= 2 samples, got {n}")
    alpha, beta = _angle(f_points), _angle(g_points)
    candidates = []
    for resid, sign in (((alpha - beta) % 1.0, 1), ((alpha + beta) % 1.0, -1)):
        mid, width, _, mids = loop_arc(resid)
        if len(mids) > 1 or width >= 0.5:
            continue
        candidates.append((float(np.max(_chord(resid - mid))), sign, mid))
    if not candidates:
        raise DiameterTooLarge("rotation and reflection residuals both spread over half a circle")
    err, sign, mid = min(candidates, key=lambda c: c[0])
    return mid, sign, err


def loop_witness(trivs, edges):
    """Per-edge fits ``{edge: (turn, sign)}`` and the worst error; errors name the edge."""
    values, worst = {}, 0.0
    for j, k in edges:
        ids, (rj, rk) = loop_overlap(trivs, (j, k))
        if len(ids) < 2:
            raise TooFewSamples(f"edge ({j}, {k}): {len(ids)} shared samples")
        try:
            turn, sign, err = loop_procrustes(trivs.chart(j).points[rj], trivs.chart(k).points[rk])
        except GuardError as exc:
            raise type(exc)(f"edge ({j}, {k}): {exc}") from exc
        values[(j, k)] = (turn, sign)
        worst = max(worst, err)
    return values, worst


def loop_coverage_gap(turns):
    if len(turns) == 0:
        return 2.0
    a = np.sort(np.asarray(turns, dtype=float) % 1.0)
    gaps = np.diff(a, append=a[0] + 1.0)
    g = float(np.max(gaps)) * 2.0 * np.pi
    return 2.0 * math.sin(g / 4.0)


def loop_edge_errors(trivs, values, edge):
    """Chord errors of one edge under ``values[edge] = (turn, sign)``."""
    j, k = edge
    turn, sign = values[edge]
    _, (rj, rk) = loop_overlap(trivs, edge)
    return _chord(trivs.chart(j).turns[rj] - (turn + sign * trivs.chart(k).turns[rk]))


def loop_quality(trivs, values, edges, triangles) -> dict:
    """Per-edge max and mean errors, epsilon, and the pairwise and triple coverage gaps."""
    rows = []
    for e in edges:
        err = loop_edge_errors(trivs, values, e)
        rows.append((e, float(np.max(err, initial=0.0)), float(np.mean(err)) if len(err) else 0.0))

    def worst_gap(simplices):
        worst = 0.0
        for s in simplices:
            _, rows_of = loop_overlap(trivs, s)
            for j, r in zip(s, rows_of):
                worst = max(worst, loop_coverage_gap(trivs.chart(j).turns[r]))
        return worst

    return {
        "rows": rows,
        "epsilon": max((r[1] for r in rows), default=0.0),
        "delta_pairwise": worst_gap(edges),
        "delta_triple": worst_gap(triangles),
    }


# ---------------------------------------------------------------------------
# overlap trimming and two-cluster unwrapping written out directly: one loop
# per trimming rule and breadth-first searches over the cover


def loop_trim_flat(cover, min_shared: int = 6):
    """Until stable, the later set of a pair sheds any overlap under ``min_shared`` samples.

    Returns (members by set id, ids of the sets that shed samples).
    """
    members = {cs.id: set(cs.members) for cs in cover}
    ids = sorted(members)
    clipped = set()
    changed = True
    while changed:
        changed = False
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                shared = members[a] & members[b]
                if 0 < len(shared) < min_shared:
                    members[b] -= shared
                    clipped.add(b)
                    changed = True
    return members, clipped


def loop_trim_labels(cover, label, min_shared: int = 6):
    """Until stable, the later set sheds an overlap unless its label pairs are two matching
    combinations (++ with --, or +- with -+), each on at least ``min_shared`` samples.

    ``label(j, s)`` is sample s's label in set j.  Returns (members by
    set id, ids of the sets that shed samples).
    """
    members = {cs.id: set(cs.members) for cs in cover}
    order = sorted(members)
    clipped = set()
    changed = True
    while changed:
        changed = False
        for i, a in enumerate(order):
            for b in order[i + 1 :]:
                shared = members[a] & members[b]
                if not shared:
                    continue
                combos = {}
                for s in shared:
                    combos.setdefault((label(a, s), label(b, s)), []).append(s)
                matching = len(combos) == 2 and len({x == y for x, y in combos}) == 1
                if matching and all(len(v) >= min_shared for v in combos.values()):
                    continue
                members[b] -= shared
                clipped.add(b)
                changed = True
    return members, clipped


def bfs_unwrap(dataset, cover, clusters) -> dict:
    """Two-cluster unwrapping with breadth-first searches and a GF(2) elimination.

    The connectivity sign on an overlap is read off its label pairs; the
    pieces of the cover are BFS components of its overlap graph; a piece
    whose signs GF(2) elimination solves splits into two copies.  On any
    other piece every cluster's hemisphere orientation propagates by BFS
    from the piece's smallest set, whose two clusters start opposite, and
    each sample takes the base representative on its cluster's
    hemisphere.  Returns base, kind, set_map, components, orientations,
    nu and the lifted sets' (members, center) by new id.
    """
    by_id = {c.id: c for c in cover}
    cl = {j: (frozenset(a), frozenset(b)) for j, (a, b) in clusters.items()}
    for j, (plus, minus) in cl.items():
        if not plus or not minus or plus & minus or plus | minus != by_id[j].members:
            raise InconsistentClusters(f"clusters of set {j} do not partition its members")
    edges = loop_nerve(cover, max_dim=1)[1]
    nu = {}
    for (j, k) in edges:
        pairs = {(c, d) for c in (0, 1) for d in (0, 1) if cl[j][c] & cl[k][d]}
        if pairs not in ({(0, 0), (1, 1)}, {(0, 1), (1, 0)}):
            raise InconsistentClusters(f"edge ({j}, {k}) meets label pairs {sorted(pairs)}")
        nu[(j, k)] = 1 if (0, 0) in pairs else -1

    adjacency = {j: set() for j in by_id if by_id[j].members}
    for (j, k) in edges:
        adjacency[j].add(k)
        adjacency[k].add(j)
    seen, pieces = set(), []
    for start in sorted(adjacency):
        if start in seen:
            continue
        queue, piece = [start], []
        seen.add(start)
        while queue:
            j = queue.pop(0)
            piece.append(j)
            for k in sorted(adjacency[j] - seen):
                seen.add(k)
                queue.append(k)
        pieces.append(sorted(piece))

    base = np.array(dataset.base, dtype=float, copy=True)
    orientations, components, geometric = {}, 0, False
    for piece in pieces:
        piece_edges = [e for e in edges if e[0] in piece]
        col = {j: i for i, j in enumerate(piece)}
        A = [[int(i in (col[j], col[k])) for i in range(len(piece))] for (j, k) in piece_edges]
        if gf2_solvable(A, [int(nu[e] < 0) for e in piece_edges]):
            components += 2
            continue
        if dataset.kind != "projective_plane":
            raise ValueError("nontrivial connectivity class needs an antipodal base")
        centers = {j: by_id[j].center for j in piece}
        rel = {(j, c): [] for j in piece for c in (0, 1)}
        for (j, k) in piece_edges:
            for cj in (0, 1):
                for ck in (0, 1):
                    signs = set()
                    for s in sorted(cl[j][cj] & cl[k][ck]):
                        v = dataset.base_of(s)
                        dj, dk = float(v @ centers[j]), float(v @ centers[k])
                        if abs(dj) < 1e-12 or abs(dk) < 1e-12:
                            raise LiftUndefined(f"sample {s} sits on a hemisphere boundary")
                        signs.add(1 if dj * dk > 0 else -1)
                    if len(signs) > 1:
                        raise PropagationConflict("an overlap straddles the antipodal seam")
                    if signs:
                        r = signs.pop()
                        rel[(j, cj)].append(((k, ck), r))
                        rel[(k, ck)].append(((j, cj), r))
        seed = piece[0]
        orient = {(seed, 0): 1, (seed, 1): -1}
        queue = [(seed, 0), (seed, 1)]
        while queue:
            node = queue.pop(0)
            for other, r in rel[node]:
                if other not in orient:
                    orient[other] = orient[node] * r
                    queue.append(other)
                elif orient[other] != orient[node] * r:
                    raise PropagationConflict(f"cluster {other} has contradictory orientations")
        if set(orient) != set(rel) or any(orient[(j, 0)] == orient[(j, 1)] for j in piece):
            raise PropagationConflict("some cluster has no sheet of its own")
        lift = {}
        for j in piece:
            for c in (0, 1):
                orientations[2 * j + c] = orient[(j, c)]
                for s in cl[j][c]:
                    eta = 1 if float(dataset.base_of(s) @ centers[j]) * orient[(j, c)] > 0 else -1
                    if lift.setdefault(s, eta) != eta:
                        raise PropagationConflict(f"sample {s} needs two different lifts")
        for s, eta in lift.items():
            base[dataset.position(s)] = eta * dataset.base_of(s)
        components += 1
        geometric = True

    sets = {}
    for j in sorted(by_id):
        for c in (0, 1):
            o = orientations.get(2 * j + c, 1)
            center = by_id[j].center
            sets[2 * j + c] = (cl[j][c], None if center is None else o * center)
    return {
        "base": base,
        "kind": "sphere" if geometric else dataset.kind,
        "set_map": {2 * j + c: (j, c) for j in by_id for c in (0, 1)},
        "components": components,
        "orientations": orientations,
        "nu": nu,
        "sets": sets,
    }


# ---------------------------------------------------------------------------
# quaternion-generator charts, one set at a time, against which the batched
# chart pass is compared.  The quaternion primitives are the generator's
# own, so the comparison is exact; what is independent here is the loop
# structure, the per-set error checks and the label bookkeeping.


def oracle_quaternions(n: int, seed: int) -> np.ndarray:
    """The generators' uniform unit quaternions: a Philox normal stream keyed by (seed, 0)."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
    q = np.random.Generator(np.random.Philox(key=key)).normal(size=(n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def oracle_split_quaternions(n: int, seed: int) -> np.ndarray:
    """The two copies of a split bundle, each from its own stream."""
    return np.concatenate(
        [oracle_quaternions(n // 2, (seed << 1) ^ (500 + c)) for c in (0, 1)]
    )


def loop_lens_chart(q, b, anchor, power, context):
    """Fiber turns of one set's samples against the geodesic section from ``anchor``."""
    from circlet.synthetic import E1, quat_conj, quat_mul, rotation_between

    dots = b @ anchor
    if np.any(dots <= -1.0 + 1e-9):
        raise SectionUndefined(f"{context}: a sample sits at the section antipode")
    sec = quat_mul(rotation_between(anchor, b), rotation_between(E1, anchor))
    w = quat_mul(quat_conj(sec), q)
    drift = float(np.max(np.abs(w[:, 2:]))) if len(w) else 0.0
    if drift > 1e-9:
        raise SectionUndefined(f"{context}: section residual {drift:.2e} is not planar")
    return (power * np.arctan2(w[:, 1], w[:, 0]) / (2.0 * math.pi)) % 1.0


def _loop_seam_dots(b, center, context):
    d = b @ center
    if np.any(np.abs(d) < 1e-12):
        raise LiftUndefined(f"{context}: a base point sits on the lift seam")
    return d


def loop_hemisphere_chart(q, b, center, p, context):
    """Turns at power 2p, far-hemisphere samples read through the gluing."""
    from circlet.synthetic import QUAT_J, quat_mul

    d = _loop_seam_dots(b, center, context)
    q = np.where((d < 0)[:, None], quat_mul(q, QUAT_J), q)
    return loop_lens_chart(q, b * np.sign(d)[:, None], center, 2 * p, context)


def loop_two_sheet_chart(q, b, center, p, context):
    """Turns at power 2p, each hemisphere cluster against its own section, near side first."""
    d = _loop_seam_dots(b, center, context)
    turns = np.empty(len(b))
    for side, anchor in ((d > 0, center), (d < 0, -center)):
        if side.any():
            turns[side] = loop_lens_chart(q[side], b[side], anchor, 2 * p, context)
    return turns


LOOP_CHARTS = {
    "lens": loop_lens_chart,
    "hemisphere": loop_hemisphere_chart,
    "two-sheet": loop_two_sheet_chart,
}


def loop_set_charts(kind, q, b, centers, p, sets):
    """Per-row turns from one chart call per set, sets in increasing order.

    ``centers`` holds one row per set, ``sets`` each row's set.
    """
    turns = np.empty(len(sets))
    for j in sorted(set(sets.tolist())):
        at = np.flatnonzero(sets == j)
        turns[at] = LOOP_CHARTS[kind](q[at], b[at], centers[j], p, f"set {j}")
    return turns


def loop_generator_charts(kind, q, dataset, cover, p, label=None):
    """Chart tables ``set id -> (sorted members, turns)`` of a generated cover, set by set.

    With ``label(j, s)``, also the clusters ``set id -> (labelled, unlabelled)``.
    """
    tables, clusters = {}, {}
    for cs in sorted(cover, key=lambda c: c.id):
        members = sorted(cs.members)
        rows = np.array([dataset.position(s) for s in members], dtype=int)
        turns = LOOP_CHARTS[kind](q[rows], dataset.base[rows], cs.center, p, f"set {cs.id}")
        tables[cs.id] = (members, turns)
        if label is not None:
            first = frozenset(s for s in members if label(cs.id, s))
            clusters[cs.id] = (first, frozenset(members) - first)
    return tables, clusters
