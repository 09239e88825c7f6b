"""Named fractal-curve instances and their geometric recursion oracles.

Three families:
  * homogeneous polygonal generators (koch, levy, heighway, hilbert_type,
    hilbert_rp): a chain P_0..P_M with A_j e = P_{j+1} - P_j, acting on
    endpoint-extended curves;
  * a two-state finite-state system (gosper);
  * connector-based stage-dependent generators (hilbert, morton): l copies
    with M = 2l - 1, straight anchors / connectors and drifting endpoints.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, replace

import numpy as np

from .cpwl import CpwlCurve, ScalarCpwl, curve_add, curve_scale, merge_grids
from .reductions import FiniteStateSystem
from .refinement import RefinementOp, check_breakpoint_cap

EDGE_TOL = 1e-12  # the edge condition A_j e = P_{j+1} - P_j holds to this


def rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])

REFLECT_Y = np.diag([1.0, -1.0])


@dataclass(frozen=True)
class PolygonalInstance:
    """Homogeneous polygonal generator: chain + copy maps."""

    name: str
    chain: np.ndarray      # (M+1, p)
    matrices: tuple        # M matrices (p, p)

    @property
    def M(self) -> int:
        return len(self.matrices)

    @property
    def p(self) -> int:
        return self.chain.shape[1]

    def op(self) -> RefinementOp:
        return RefinementOp(self.M, self.p, 1,
                            {j: A for j, A in enumerate(self.matrices)})

    def anchor(self) -> CpwlCurve:
        """Straight endpoint-extended profile from P_0 to P_M."""
        return straight_anchor(self.chain[0], self.chain[-1])

    def check_edges(self):
        e = np.zeros(self.p)
        e[0] = 1.0
        for j, A in enumerate(self.matrices):
            err = np.max(np.abs(A @ e - (self.chain[j + 1] - self.chain[j])))
            if err > EDGE_TOL:
                raise ValueError(f"{self.name}: edge condition fails at j={j} ({err})")


def straight_anchor(a, b) -> CpwlCurve:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ts = np.array([0.0, 1.0])
    comps = tuple(ScalarCpwl(ts, np.array([a[i], b[i]])) for i in range(a.size))
    return CpwlCurve(comps, 1)


def koch() -> PolygonalInstance:
    chain = np.array([[0, 0], [1 / 3, 0], [0.5, np.sqrt(3) / 6],
                      [2 / 3, 0], [1, 0]])
    mats = (rotation(0) / 3, rotation(np.pi / 3) / 3,
            rotation(-np.pi / 3) / 3, rotation(0) / 3)
    return PolygonalInstance("koch", chain, mats)


def levy() -> PolygonalInstance:
    chain = np.array([[0, 0], [0.5, 0.5], [1, 0]])
    mats = (rotation(np.pi / 4) / np.sqrt(2), rotation(-np.pi / 4) / np.sqrt(2))
    return PolygonalInstance("levy", chain, mats)


def heighway() -> PolygonalInstance:
    """Mirror dragon: the second rotation is replaced by its reflection."""
    chain = np.array([[0, 0], [0.5, 0.5], [1, 0]])
    mats = (rotation(np.pi / 4) / np.sqrt(2),
            rotation(-np.pi / 4) @ REFLECT_Y / np.sqrt(2))
    return PolygonalInstance("heighway", chain, mats)


def hilbert_type() -> PolygonalInstance:
    """The planar Hilbert-type generator, which is ``hilbert_rp(2)``."""
    return replace(hilbert_rp(2), name="hilbert_type")


def hilbert_rp(p: int) -> PolygonalInstance:
    """Recursive signed-permutation Hilbert prototype in R^p (M = 2^p)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    chain = np.array([[0.0], [0.5], [1.0]])
    mats = [np.array([[1.0]]), np.array([[1.0]])]
    for dim in range(2, p + 1):
        n = len(mats)  # 2^(dim-1)
        new_chain = np.zeros((2 * n + 1, dim))
        for j in range(2 * n + 1):
            if j <= n - 1:
                new_chain[j] = np.concatenate([[0.0], chain[j]])
            elif j == n:
                new_chain[j] = np.concatenate([[0.5], chain[n - 1]])
            else:
                new_chain[j] = np.concatenate([[1.0], chain[2 * n - j]])
        new_mats = []
        for j in range(2 * n):
            if j <= n - 2:
                U = mats[j]
                u = U[:, :1]
                Uh = U[:, 1:]
                top = np.concatenate([[0.0, 1.0], np.zeros(dim - 2)])
                bot = np.hstack([u, np.zeros((dim - 1, 1)), Uh])
                new_mats.append(np.vstack([top[None, :], bot]))
            elif j in (n - 1, n):
                U = mats[n - 1]
                W = np.zeros((dim, dim))
                W[0, 0] = 1.0
                W[1:, 1:] = U
                new_mats.append(W)
            else:
                U = mats[2 * n - 1 - j]
                u = U[:, :1]
                Uh = U[:, 1:]
                top = np.concatenate([[0.0, -1.0], np.zeros(dim - 2)])
                bot = np.hstack([-u, np.zeros((dim - 1, 1)), Uh])
                new_mats.append(np.vstack([top[None, :], bot]))
        chain = new_chain
        mats = new_mats
    inst = PolygonalInstance(f"hilbert_rp{p}", chain,
                             tuple(0.5 * U for U in mats))
    inst.check_edges()
    return inst


def polygonal_oracle(inst: PolygonalInstance, n: int) -> CpwlCurve:
    """Stage-n endpoint-extended curve via direct vertex recursion."""
    check_breakpoint_cap(2, inst.M, n)
    pts = inst.chain[[0, -1]].astype(float)  # stage 0: straight segment
    params = np.array([0.0, 1.0])
    for _ in range(n):
        new_pts = []
        new_params = []
        for j, A in enumerate(inst.matrices):
            block = inst.chain[j] + pts @ A.T
            tb = (params + j) / inst.M
            if j:
                block = block[1:]
                tb = tb[1:]
            new_pts.append(block)
            new_params.append(tb)
        pts = np.vstack(new_pts)
        params = np.concatenate(new_params)
    comps = tuple(ScalarCpwl(params, pts[:, i]) for i in range(inst.p))
    return CpwlCurve(comps, 1)


def gosper_system() -> FiniteStateSystem:
    """Two-state Gosper recursion with M = 7 and scale 1/sqrt(7)."""
    phi = np.arctan(np.sqrt(3) / 5)
    theta_A = np.array([0, -np.pi / 3, -np.pi, -2 * np.pi / 3, 0, 0, np.pi / 3])
    theta_B = np.array([np.pi / 3, 0, 0, -2 * np.pi / 3, -np.pi, -np.pi / 3, 0])
    sig_A = [0, 1, 1, 0, 0, 0, 1]
    sig_B = [0, 1, 1, 1, 0, 0, 1]
    C = np.zeros((2, 7, 2, 2))
    for j in range(7):
        C[0, j] = rotation(phi + theta_A[j]) / np.sqrt(7)
        C[1, j] = rotation(phi + theta_B[j]) / np.sqrt(7)
    return FiniteStateSystem(2, 7, 1, np.array([sig_A, sig_B]), C)


def gosper_stage0() -> list:
    """Endpoint-extended unit segments for both states."""
    seg = straight_anchor((0.0, 0.0), (1.0, 0.0))
    return [seg, seg]


def gosper_oracle(n: int) -> list:
    curves = gosper_stage0()
    sys = gosper_system()
    check_breakpoint_cap(2, sys.M, n)
    for _ in range(n):
        curves = sys.apply(curves)
    return curves


@dataclass(frozen=True)
class ConnectorInstance:
    """l affine copies F_j(x) = A_j x + u_j with straight connectors."""

    name: str
    A: tuple
    u: tuple
    a_templates: np.ndarray  # (2, p): a_n = a0 + lambda_n a1, lambda_n = 2^-n
    b_templates: np.ndarray

    @property
    def ell(self) -> int:
        return len(self.A)

    @property
    def M(self) -> int:
        return 2 * self.ell - 1

    @property
    def p(self) -> int:
        return self.a_templates.shape[1]

    def op(self) -> RefinementOp:
        """Copy-part refinement operator: masks at the even shifts 2j."""
        return RefinementOp(self.M, self.p, 1,
                            {2 * j: A for j, A in enumerate(self.A)})

    def lam(self, n: int) -> float:
        return 2.0 ** (-n)

    def endpoints(self, n: int):
        lam = self.lam(n)
        return (self.a_templates[0] + lam * self.a_templates[1],
                self.b_templates[0] + lam * self.b_templates[1])

    def anchor(self, n: int) -> CpwlCurve:
        a, b = self.endpoints(n)
        return straight_anchor(a, b)

    def forcing_stage(self, n: int) -> CpwlCurve:
        """B_n from the defect formula, exact on the grid k/M."""
        a_n, b_n = self.endpoints(n)
        a_n1, b_n1 = self.endpoints(n + 1)
        M, p = self.M, self.p
        ts = np.linspace(0.0, 1.0, M + 1)
        gamma_n = straight_anchor(a_n, b_n)
        gamma_n1 = straight_anchor(a_n1, b_n1)
        vals = np.zeros((M + 1, p))
        for k, t in enumerate(ts):
            # M is odd: k = 2j starts copy j, k = 2j + 1 ends it at Q_j
            j, rem = divmod(k, 2)
            vals[k] = self.A[j] @ gamma_n(rem) + self.u[j] - gamma_n1(t)
        # straight anchors/connectors: B_n is affine between the grid points
        comps = tuple(ScalarCpwl(ts, vals[:, i]) for i in range(p))
        return CpwlCurve(comps, 1)

    def forcing_templates(self):
        """(B0, B1) with B_n = B0 + 2^-n B1, solved from stages 0 and 1."""
        Bn0 = self.forcing_stage(0)
        Bn1 = self.forcing_stage(1)
        B1 = curve_scale(curve_add(Bn0, curve_scale(Bn1, -1.0)), 2.0)
        B0 = curve_add(curve_scale(Bn1, 2.0), curve_scale(Bn0, -1.0))
        return B0, B1

    def forcing_schedule(self):
        """The forcing r -> B_r = B0 + 2^-r B1."""
        B0, B1 = self.forcing_templates()
        return lambda r: curve_add(B0, curve_scale(B1, 2.0 ** -r))

    def oracle(self, n: int) -> CpwlCurve:
        """Stage-n geometric curve by direct copy/connector recursion."""
        check_breakpoint_cap(2, self.ell, n)
        cur = self.anchor(0)
        M, A, u = self.M, np.stack(self.A), np.stack(self.u)
        for _ in range(n):
            grid = merge_grids(*[c.ts for c in cur.components])
            ts = merge_grids(np.linspace(0, 1, M + 1),
                             *[(grid + 2 * j) / M for j in range(self.ell)])
            k = ts * M
            js = np.minimum(np.floor(k / 2 + 1e-12).astype(int), self.ell - 1)
            # cur at every copy parameter, and at its two ends, in one call
            # each: every call copies cur's read-only arrays (see cpwl)
            at, (c0, c1) = cur(np.clip(k - 2 * js, 0.0, 1.0)), cur(np.array([0.0, 1.0]))
            copy = (A[js] @ at[..., None])[..., 0] + u[js]   # copy interval I_j
            # connector J_j: straight from Q_j to P_{j+1} (the last copy
            # interval ends at k = M, so no connector reads P_ell)
            Q, P = A @ c1 + u, A @ c0 + u
            s = (k - (2 * js + 1))[:, None]
            conn = (1 - s) * Q[js] + s * P[np.minimum(js + 1, self.ell - 1)]
            vals = np.where((k <= 2 * js + 1 + 1e-9)[:, None], copy, conn)
            cur = CpwlCurve(tuple(ScalarCpwl(ts, vals[:, i])
                                  for i in range(self.p)), 1)
        return cur


def hilbert_connector() -> ConnectorInstance:
    H = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])
    I = 0.5 * np.eye(2)
    A = (H, I, I, -H)
    u = (np.array([0.0, 0.0]), np.array([0.0, 0.5]),
         np.array([0.5, 0.5]), np.array([1.0, 0.5]))
    a_t = np.array([[0.0, 0.0], [0.5, 0.5]])
    b_t = np.array([[1.0, 0.0], [-0.5, 0.5]])
    return ConnectorInstance("hilbert", A, u, a_t, b_t)


def morton_instance(p: int) -> ConnectorInstance:
    ell = 2 ** p
    A = tuple(0.5 * np.eye(p) for _ in range(ell))
    u = tuple(0.5 * np.array([(r >> (p - 1 - i)) & 1 for i in range(p)], dtype=float)
              for r in range(ell))
    one = np.ones(p)
    a_t = np.vstack([np.zeros(p), 0.5 * one])
    b_t = np.vstack([one, -0.5 * one])
    return ConnectorInstance(f"morton{p}", A, u, a_t, b_t)


_FIXED = {"koch": koch, "levy": levy, "heighway": heighway,
          "hilbert_type": hilbert_type, "hilbert": hilbert_connector,
          "gosper": gosper_system}
_FAMILIES = {"morton": morton_instance, "hilbert_rp": hilbert_rp}
NAMED_INSTANCES = (*_FIXED, *_FAMILIES)


def get_instance(name: str):
    """A named instance; ``morton<p>`` and ``hilbert_rp<p>`` take an
    optional dimension p >= 1 (default 2)."""
    name = name.lower()
    if name in _FIXED:
        return _FIXED[name]()
    m = re.fullmatch(r"(morton|hilbert_rp)([1-9]\d*)?", name)
    if m is None:
        raise KeyError(f"unknown instance {name!r}")
    return _FAMILIES[m[1]](int(m[2] or 2))
