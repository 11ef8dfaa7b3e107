"""Geometric primitives with analytic surface sampling, line intersection, and normals.

All primitive math happens in the primitive's local frame (pose = rotation
quaternion + translation). Supported kinds: box, sphere, cylinder (axis +z),
and plane-slab (a thin box, used for flat tiles and the table).

Points and directions go in and come out as (3, M) coordinate columns, so
every per-line operation streams M contiguous values instead of running
numpy's inner loop over 3; only sample_surface returns (M, 3) rows, for the
cloud. Every query is line-exact: a line gives the same bits alone as in a
batch, and the bits of the (M, 3) row form, where each rotation was a
(M, 3) @ (3, 3) product. A (3, 3) @ (3, M) product has those bits for
M >= 2; for M = 1 BLAS takes a matrix-vector kernel with other bits, so a
one-line batch is rotated in the row form (_turn). The per-line arithmetic
does the same IEEE operations in the same order as the axis=1 reduction it
stands for (col_dots, col_norms), so no query reduces over a short axis.
"""

from dataclasses import dataclass, field

import numpy as np

from .geometry import col_dots, col_norms, quat_to_matrix

KINDS = ("box", "sphere", "cylinder", "plane-slab")
MAX_FRICTION = 1.2
_BOX_LIKE = ("box", "plane-slab")


@dataclass
class Primitive:
    """A rigid scene object: shape, pose, and grasp-relevant material flags.

    dimensions by kind:
      box / plane-slab: (sx, sy, sz) full edge lengths [m]
      sphere:           (radius,)
      cylinder:         (radius, height), axis along local +z
    friction_coeff is the surface friction available for parallel grasping;
    porosity_flag disables vacuum sealing entirely.
    """

    kind: str
    dimensions: tuple
    rotation: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0, 0.0]))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    object_id: int = 1
    friction_coeff: float = 0.8
    porosity_flag: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown primitive kind {self.kind!r}")
        self.dimensions = tuple(float(d) for d in self.dimensions)
        expected = {"box": 3, "plane-slab": 3, "sphere": 1, "cylinder": 2}[self.kind]
        if len(self.dimensions) != expected:
            raise ValueError(f"{self.kind} needs {expected} dimensions, got {len(self.dimensions)}")
        if any(d <= 0 for d in self.dimensions):
            raise ValueError(f"dimensions must be strictly positive: {self.dimensions}")
        self.rotation = np.asarray(self.rotation, dtype=np.float64).reshape(4)
        self.translation = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if not 0.0 < self.friction_coeff <= MAX_FRICTION:
            raise ValueError(f"friction_coeff must be in (0, {MAX_FRICTION}], got {self.friction_coeff}")
        self._rot = quat_to_matrix(self.rotation)
        # Stored C-contiguous: a product with the strided transpose view takes a
        # different BLAS kernel for one row than for many, so a row's bits
        # would depend on the batch it came in.
        self._rot_t = np.ascontiguousarray(self._rot.T)

    # -- frames: (3, M) columns in, C-contiguous (3, M) columns out ---------

    def to_local(self, points: np.ndarray) -> np.ndarray:
        return _turn(self._rot_t, self._rot, _columns(points) - self.translation[:, None])

    def to_world(self, points: np.ndarray) -> np.ndarray:
        return _turn(self._rot, self._rot_t, _columns(points)) + self.translation[:, None]

    def dirs_to_local(self, dirs: np.ndarray) -> np.ndarray:
        return _turn(self._rot_t, self._rot, _columns(dirs))

    def dirs_to_world(self, dirs: np.ndarray) -> np.ndarray:
        return _turn(self._rot, self._rot_t, _columns(dirs))

    # -- shape measures -----------------------------------------------------

    def surface_area(self) -> float:
        if self.kind in _BOX_LIKE:
            sx, sy, sz = self.dimensions
            return 2.0 * (sx * sy + sy * sz + sz * sx)
        if self.kind == "sphere":
            (r,) = self.dimensions
            return 4.0 * np.pi * r * r
        r, h = self.dimensions
        return 2.0 * np.pi * r * h + 2.0 * np.pi * r * r

    def bounding_radius(self) -> float:
        """Radius of the bounding sphere centered at the primitive's translation."""
        if self.kind in _BOX_LIKE:
            return float(np.linalg.norm(np.asarray(self.dimensions) / 2.0))
        if self.kind == "sphere":
            return self.dimensions[0]
        r, h = self.dimensions
        return float(np.hypot(r, h / 2.0))

    # -- surface sampling ---------------------------------------------------

    def sample_surface(self, count: int, rng: np.random.Generator):
        """Area-uniform surface samples.

        Returns (points, normals, flat) in world coordinates, points and
        normals as C-contiguous (count, 3) rows; flat marks samples that lie
        on a planar face (box faces, cylinder caps).
        """
        if self.kind in _BOX_LIKE:
            pts, nrm, flat = _sample_box(self.dimensions, count, rng)
        elif self.kind == "sphere":
            pts, nrm, flat = _sample_sphere(self.dimensions[0], count, rng)
        else:
            pts, nrm, flat = _sample_cylinder(*self.dimensions, count, rng)
        return self.to_world(pts).T.copy(), self.dirs_to_world(nrm).T.copy(), flat

    # -- analytic queries ---------------------------------------------------

    def line_intersections(self, origins: np.ndarray, dirs: np.ndarray):
        """Intersect M infinite lines, (3, M) origins and unit dirs, with the surface.

        Returns (t0, t1, hit): entry/exit parameters per line (t0 <= t1) and a
        bool mask. Tangent touches (t1 - t0 ~ 0) count as misses.
        """
        o = self.to_local(origins)
        d = self.dirs_to_local(dirs)
        if self.kind in _BOX_LIKE:
            t0, t1, hit = _intersect_box(np.asarray(self.dimensions) / 2.0, o, d)
        elif self.kind == "sphere":
            t0, t1, hit = _intersect_sphere(self.dimensions[0], o, d)
        else:
            t0, t1, hit = _intersect_cylinder(*self.dimensions, o, d)
        hit = hit & ((t1 - t0) > 1e-9)
        return t0, t1, hit

    def surface_normal(self, points: np.ndarray) -> np.ndarray:
        """Outward normals, (3, M), at world points on (or near) the surface."""
        p = self.to_local(points)
        if self.kind in _BOX_LIKE:
            n = _box_normal(np.asarray(self.dimensions) / 2.0, p)
        elif self.kind == "sphere":
            n = p / np.maximum(col_norms(p), 1e-12)
        else:
            n = _cylinder_normal(*self.dimensions, p)
        return self.dirs_to_world(n)

    def surface_distance(self, points: np.ndarray) -> np.ndarray:
        """Unsigned distance from world points to the surface."""
        return np.abs(self._signed_distance(points))

    def contains(self, points: np.ndarray, pad: float = 0.0) -> np.ndarray:
        """Bool mask: world points strictly inside the surface expanded by pad (shrunk by |pad| for pad < 0)."""
        return self._signed_distance(points) < pad

    def _signed_distance(self, points: np.ndarray) -> np.ndarray:
        """Signed distance from world points to the surface, negative inside."""
        p = self.to_local(points)
        if self.kind in _BOX_LIKE:
            return _box_sdf(np.asarray(self.dimensions) / 2.0, p)
        if self.kind == "sphere":
            return col_norms(p) - self.dimensions[0]
        return _cylinder_sdf(*self.dimensions, p)


# -- local-frame implementations: (3, M) columns ------------------------------


def _columns(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or len(x) != 3:
        raise ValueError(f"expected (3, M) coordinate columns, got shape {x.shape}")
    return x


def _turn(m, m_t, x):
    """m @ x on (3, M) columns, with the bits of the row form x.T @ m_t (m_t: m's C-contiguous transpose).

    x is made C-contiguous first, so that the product always takes the BLAS
    kernel whose bits were checked against the row form.
    """
    x = np.ascontiguousarray(x)
    if x.shape[1] == 1:
        return (x.reshape(1, 3) @ m_t).reshape(3, 1)
    return m @ x


def _sample_box(dims, count, rng):
    sx, sy, sz = dims
    areas = np.array([sy * sz, sy * sz, sx * sz, sx * sz, sx * sy, sx * sy])
    face = rng.choice(6, size=count, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, size=(count, 2))
    pts = np.zeros((3, count))
    nrm = np.zeros((3, count))
    size = np.array([sx, sy, sz])
    axis = face // 2  # 0:x faces, 1:y faces, 2:z faces
    sign = np.where(face % 2 == 0, 1.0, -1.0)
    o1, o2 = np.array([[1, 2], [0, 2], [0, 1]])[axis].T  # the two in-face axes
    cols = np.arange(count)
    pts[axis, cols] = sign * (size / 2.0)[axis]
    pts[o1, cols] = u[:, 0] * size[o1]
    pts[o2, cols] = u[:, 1] * size[o2]
    nrm[axis, cols] = sign
    return pts, nrm, np.ones(count, dtype=bool)


def _sample_sphere(radius, count, rng):
    v = rng.normal(size=(count, 3)).T
    v = v / col_norms(v)
    return radius * v, v, np.zeros(count, dtype=bool)


def _sample_cylinder(radius, height, count, rng):
    a_side = 2.0 * np.pi * radius * height
    a_cap = np.pi * radius * radius
    comp = rng.choice(3, size=count, p=np.array([a_side, a_cap, a_cap]) / (a_side + 2 * a_cap))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=count)
    pts = np.zeros((3, count))
    nrm = np.zeros((3, count))
    flat = np.zeros(count, dtype=bool)

    side = comp == 0
    pts[0, side] = radius * np.cos(theta[side])
    pts[1, side] = radius * np.sin(theta[side])
    pts[2, side] = rng.uniform(-height / 2.0, height / 2.0, size=int(side.sum()))
    nrm[0, side] = np.cos(theta[side])
    nrm[1, side] = np.sin(theta[side])

    for which, zsign in ((comp == 1, 1.0), (comp == 2, -1.0)):
        k = int(which.sum())
        if k == 0:
            continue
        rr = radius * np.sqrt(rng.uniform(0.0, 1.0, size=k))
        pts[0, which] = rr * np.cos(theta[which])
        pts[1, which] = rr * np.sin(theta[which])
        pts[2, which] = zsign * height / 2.0
        nrm[2, which] = zsign
        flat[which] = True
    return pts, nrm, flat


def _intersect_box(half, o, d):
    half = np.reshape(half, (3, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / d
        ta = (-half - o) * inv
        tb = (half - o) * inv
    lo = np.minimum(ta, tb)
    hi = np.maximum(ta, tb)
    # Parallel-to-slab axes: inside -> unbounded, outside -> empty interval.
    # Almost no line has one, so the scan for them runs only when one exists.
    parallel = np.abs(d) < 1e-12
    if parallel.any():
        axis, line = np.nonzero(parallel)
        inside = np.abs(o[axis, line]) <= half[axis, 0]
        lo[axis, line] = np.where(inside, -np.inf, np.inf)
        hi[axis, line] = np.where(inside, np.inf, -np.inf)
    t0 = np.maximum(np.maximum(lo[0], lo[1]), lo[2])
    t1 = np.minimum(np.minimum(hi[0], hi[1]), hi[2])
    hit = (t0 < t1) & np.isfinite(t0) & np.isfinite(t1)
    return t0, t1, hit


def _intersect_sphere(radius, o, d):
    b = col_dots(o, d)
    c = col_dots(o, o) - radius * radius
    disc = b * b - c
    hit = disc > 0
    s = np.sqrt(np.maximum(disc, 0.0))
    return -b - s, -b + s, hit


def _intersect_cylinder(radius, height, o, d):
    # Candidate parameters: two on the side, then the +h/2 and -h/2 caps.
    cand_t, ok = [], []
    # Side surface: quadratic in the xy-plane.
    a = d[0] ** 2 + d[1] ** 2
    b = o[0] * d[0] + o[1] * d[1]
    c = o[0] ** 2 + o[1] ** 2 - radius * radius
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = b * b - a * c
        s = np.sqrt(np.maximum(disc, 0.0))
        q_ok = (a > 1e-14) & (disc > 0)
        for sgn in (-1.0, 1.0):
            t = np.where(q_ok, (-b + sgn * s) / np.where(q_ok, a, 1.0), np.nan)
            z = o[2] + t * d[2]
            cand_t.append(t)
            ok.append(q_ok & (np.abs(z) <= height / 2.0))
        # Caps at z = +-h/2.
        dz_ok = np.abs(d[2]) > 1e-12
        for zc in (height / 2.0, -height / 2.0):
            t = np.where(dz_ok, (zc - o[2]) / np.where(dz_ok, d[2], 1.0), np.nan)
            x = o[0] + t * d[0]
            y = o[1] + t * d[1]
            cand_t.append(t)
            ok.append(dz_ok & (x * x + y * y <= radius * radius))
    hit = (ok[0].astype(np.intp) + ok[1] + ok[2] + ok[3]) >= 2
    lo = [np.where(k, t, np.inf) for t, k in zip(cand_t, ok)]
    hi = [np.where(k, t, -np.inf) for t, k in zip(cand_t, ok)]
    # np.minimum keeps its second operand on a tie (+0.0 against -0.0), so folding
    # from the last candidate keeps the first one, as a nanmin/nanmax over the row would.
    t0 = np.minimum(np.minimum(np.minimum(lo[3], lo[2]), lo[1]), lo[0])
    t1 = np.maximum(np.maximum(np.maximum(hi[3], hi[2]), hi[1]), hi[0])
    return np.where(hit, t0, 0.0), np.where(hit, t1, 0.0), hit


def _box_normal(half, p):
    # Face whose plane the point is closest to wins; ties go to the lowest axis.
    g0, g1, g2 = np.reshape(half, (3, 1)) - np.abs(p)
    axis = np.where((g0 <= g1) & (g0 <= g2), 0, np.where(g1 <= g2, 1, 2))
    n = np.empty(p.shape)
    for k in range(3):
        sign = np.sign(p[k])
        n[k] = np.where(axis == k, np.where(sign == 0.0, 1.0, sign), 0.0)
    return n


def _cylinder_normal(radius, height, p):
    r = col_norms(p[:2])
    side_gap = np.abs(radius - r)
    cap_gap = np.abs(height / 2.0 - np.abs(p[2]))
    n = np.zeros(p.shape)
    use_cap = cap_gap < side_gap
    safe_r = np.maximum(r, 1e-12)
    n[0] = np.where(use_cap, 0.0, p[0] / safe_r)
    n[1] = np.where(use_cap, 0.0, p[1] / safe_r)
    n[2] = np.where(use_cap, np.sign(p[2]), 0.0)
    n[2] = np.where(use_cap & (n[2] == 0.0), 1.0, n[2])
    return n


def _box_sdf(half, p):
    q = np.abs(p) - np.reshape(half, (3, 1))
    outside = col_norms(np.maximum(q, 0.0))
    inside = np.minimum(np.maximum(np.maximum(q[0], q[1]), q[2]), 0.0)
    return outside + inside


def _cylinder_sdf(radius, height, p):
    qr = col_norms(p[:2]) - radius
    qz = np.abs(p[2]) - height / 2.0
    qr_out, qz_out = np.maximum(qr, 0.0), np.maximum(qz, 0.0)
    outside = np.sqrt(qr_out * qr_out + qz_out * qz_out)
    inside = np.minimum(np.maximum(qr, qz), 0.0)
    return outside + inside
