"""Oracles that the tests build from the library's public pieces: the
algebra of affine maps, and a polynomial's expansion in a chart's local
coordinates, read coefficient by coefficient."""

from jointslab import linalg
from jointslab.poly import AffineMap, Polynomial, coefficient_along, monomials_upto, pullback


# The maps below are built as the library builds its own, ``_trusted``:
# their entries are fresh rows of field elements, kept as they are.


def identity_map(F, d) -> AffineMap:
    return AffineMap(F, linalg.identity(F, d), [F.zero] * d, _trusted=True)


def compose(S: AffineMap, T: AffineMap) -> AffineMap:
    """S after T: x -> S(T(x))."""
    F = S.field
    b = [F.add(v, t) for v, t in zip(linalg.mat_vec(F, S.matrix, T.translation), S.translation)]
    return AffineMap(F, linalg.mat_mul(F, S.matrix, T.matrix), b, _trusted=True)


def inverse(T: AffineMap) -> AffineMap:
    F = T.field
    A = linalg.inverse(F, T.matrix)
    return AffineMap(F, A, [F.neg(v) for v in linalg.mat_vec(F, A, T.translation)], _trusted=True)


def substitute_through(g: Polynomial, images: list, N: int) -> Polynomial:
    """g with variable i -> images[i], through degree N: the t^gamma
    coefficients with |gamma| <= N, each read by ``coefficient_along``."""
    nv, memo = images[0].nvars, {}
    coords = [h.terms for h in images]
    return Polynomial(g.field, nv, {
        gamma: coefficient_along(g, coords, gamma, memo) for gamma in monomials_upto(nv, N)
    })


def local_expansion(C, g: Polynomial, N: int) -> Polynomial:
    """g as a power series in the chart's local coordinates through degree
    N: (t_1, ..., t_k, h_{k+1}, ..., h_d) substituted into the framed g."""
    k = C.owner.dim
    images = [Polynomial.variable(C.field, k, i) for i in range(k)] + C.series(N)
    return substitute_through(pullback(g, C.frame_inverse), images, N)


def v_vector(p, r: int, h, P) -> dict:
    """Vanishing orders forced at each point of P by the time step (p, r)
    of the handicap h is reached: the smallest order whose step has not
    yet been processed."""
    out = {}
    for q in P:
        bump = 1 if h.position(q) < h.position(p) else 0
        out[q] = max(r - h.of(p) + h.of(q) + bump if q != p else r, 0)
    return out
