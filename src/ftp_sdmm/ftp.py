"""The trace-download multiplication scheme: parameter construction, user-side
encoding, server-side trace computation, user-side decoding, symbol-exact cost
accounting, and security audits."""

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import reduce
from itertools import combinations, product

import numpy as np

from . import kernels
from .analysis import RateParams, costs
from .errors import (
    DimMismatch,
    FieldMismatch,
    InvalidParams,
    NotDivisible,
    ShapeMismatch,
    TooFewEvalPoints,
    TooLargeForExhaustive,
)
from .fields import make_tower, power_basis_dual
# Exported from here too: perfbench/tracing.py times ftp.trace_dual_basis.
from .fields import trace_dual_basis  # noqa: F401
from .linalg import rank
from .matrices import Mat, SplitMix64, partition_inner, random_mat
from .poly import EvalDomain, Poly, annihilator, divide_at, evaluate, powers, prefix_products


@dataclass
class SchemeParams:
    L: int
    T: int
    primes: tuple
    base: object            # BaseField
    tower: object           # TowerField
    a: int
    b: int
    c: int
    N: list                 # N_i per group, ascending
    n: int                  # |Omega| = N_L + L
    points: list            # full Omega as tower elements (gens first)
    domain: EvalDomain      # Omega with dual weights
    k_polys: list           # annihilator k_i per group
    server_scalars: list    # [i-1][j-1] = v_{L+j} k_i(alpha_j) = 1/((alpha_j - a_i) P_i'(alpha_j))
    server_taus: list       # [i-1]: trace_scalars of group i's stacked w, (N_i, p_i, d) over F_q0
    lambdas: list           # lambda bases per group, each (p_i, *tower.shape)
    mus: list               # trace-dual bases per group, each (p_i, *tower.shape)
    vandermonde: list = dc_field(repr=False)
    # Per group i, the (N_i d, p_i d) F_p matrix of r -> c_is = -sum_j alpha_j^s r_ij.
    # encode's Lagrange step.  On a tower that multiplies by its table
    # (kernels._by_table_fits), only the basis: (L+T, L+T, *tower.shape),
    # basis[s][k] = coefficient s of l_k on the L+T nodes.  Past its limit,
    # only the basis's factors, as float64 F_p matrices (_node_factors).
    basis: object = dc_field(default=None, repr=False)
    node_scales: list = dc_field(default=None, repr=False)  # [(axes, matrices, nodes)]
    combine: object = dc_field(default=None, repr=False)    # (2^L (L+T), (L+T) d, d)
    by_gen: list = dc_field(default=None, repr=False)       # per axis k, times a_k


@dataclass
class CostReport:
    upload_symbols: int
    download_symbols: int
    output_symbols: int

    @property
    def rate(self):
        return Fraction(self.output_symbols,
                        self.upload_symbols + self.download_symbols)


@dataclass
class AuditReport:
    mode: str
    checks: int
    failures: list

    @property
    def passed(self):
        return not self.failures


def build_scheme(L, T, primes, base, a, b, c):
    layout = RateParams(a, b, c, L, T, primes)
    primes, N = layout.primes, layout.N
    if b % L != 0:
        raise NotDivisible(f"L={L} does not divide b={b}")
    n = N[-1] + L
    if base.order < N[-1]:
        raise TooFewEvalPoints(f"q0={base.order} < N_L={N[-1]}")

    tower = make_tower(base, primes)
    gens = range(1, L + 1)
    alphas = np.stack([base.from_int(k) for k in range(N[-1])])
    points = [tower.gen(i) for i in gens] + list(tower.embed_base(alphas))
    alpha_powers = powers(base, alphas, max(primes) + 1)

    # Every inverse below is a product of (u - a_i)^-1 = Q(a_i)/m_i(u), from
    # m_i(x) = (x - u) Q(x) + m_i(u).  Over F_q0: P_M'(alpha_j)^-1 for the
    # annihilator P_M of the first M upload points, M = T, N_1, ..., N_L, by
    # prefix products of the differences alpha_j - alpha_j' (1 for j' = j).
    diff = base.sub(alphas, alphas[:, None])  # [j', j]
    diff[np.diag_indices(N[-1])] = base.one()
    deriv_inv = base.inv(prefix_products(base, diff)[[T - 1] + [n_i - 1 for n_i in N]])
    # Group i's values lie in F_q0(a_i), subs[i - 1], and are computed there.
    # between[i, k] = (a_i - a_k)^-1 by powers of a_k over F_q0(a_i), (p_k,
    # p_i, d): for i < k from m_k divided by x - a_i, m_k(a_i) inverted.
    subs = [tower.subtower([i]) for i in range(L)]
    between = {}
    for i in range(1, L):
        ks, sub = range(i + 1, L + 1), subs[i - 1]
        u_powers = powers(sub, sub.gen(1), primes[-1] + 1)[:, 0]
        divs = [divide_at(sub, tower.moduli[k - 1], u_powers[: primes[k - 1] + 1]) for k in ks]
        for k, q, inverse in zip(ks, divs, sub.inv(np.stack([q[0] for q in divs]))):
            between[i, k] = sub.mul(q[1:], inverse)
            between[k, i] = base.neg(np.moveaxis(between[i, k], 0, 1))

    to_axis, server_scalars, gen_inverses, duals, k_polys = [], [], [], [], []
    pt_inv = []  # P_T(a_i)^-1 = prod_(t < T) (a_i - alpha_t)^-1, in F_q0(a_i)
    for i, (p_i, n_i, sub) in enumerate(zip(primes, N, subs), start=1):
        q = divide_at(base, tower.moduli[i - 1], alpha_powers[: p_i + 1])  # over F_q0
        to_axis.append(np.moveaxis(base.mul(q[1:], base.inv(q[0])), 0, 1))  # (alpha_j - a_i)^-1
        w = base.mul(to_axis[-1][:n_i], deriv_inv[i][:n_i, None])
        server_scalars.append(tower.embed_base(w, [i - 1]))
        # v_i and A'(a_i)^-1: prod_(j < N_L or T) (a_i - alpha_j)^-1 prod_(k != i) (a_i - a_k)^-1
        from_axis = prefix_products(sub, sub.neg(to_axis[-1]))
        pt_inv.append(from_axis[T - 1])
        ks = [k for k in gens if k != i]
        others = [np.expand_dims(between[i, k], tuple(t for t in range(L - 1) if ks[t] != k))
                  for k in ks]
        start = from_axis[[N[-1] - 1, T - 1]].reshape((2,) + (1,) * (L - 1) + sub.shape)
        gen_inverses.append(np.moveaxis(reduce(sub.mul, others, start), -2, i))
        duals.append([tower.embed_base(v, [i - 1])  # scale 1/P_i(a_i)
                      for v in power_basis_dual(sub, from_axis[n_i - 1], 1)])
        k_polys.append(_times_generators(tower, ks, annihilator(base, alphas[n_i:])))

    # At the upload points prod_i (alpha_j - a_i)^-1, an outer product over the axes, times
    # an F_q0 scalar: the weights at all N_L points, then the node inverses at the first T.
    at = np.r_[: N[-1], :T]
    scalars = np.concatenate([deriv_inv[-1], deriv_inv[0][:T]]).reshape(at.shape + (1,) * L + (-1,))
    upload = reduce(base.mul, [np.expand_dims(t[at], tuple(1 + j for j in range(L) if j != k))
                               for k, t in enumerate(to_axis)], scalars)
    weights = np.concatenate([[g[0] for g in gen_inverses], upload[: N[-1]]])
    # Lagrange basis on the nodes a_1..a_L, alpha_1..alpha_T: each quotient of
    # A = prod_i (x - a_i) * P_T(x) by one of its factors has the same form.
    quotients = np.stack([
        *(_times_generators(tower, [k for k in gens if k != i], annihilator(base, alphas[:T])).coeffs
          for i in gens),
        *(_times_generators(tower, gens, annihilator(base, np.delete(alphas[:T], t, axis=0))).coeffs
          for t in range(T))], axis=1)  # [s, k]
    if kernels._by_table_fits(tower):
        node_inv = np.concatenate([[g[1] for g in gen_inverses], upload[N[-1] :]])
        lagrange = dict(basis=tower.mul(quotients, node_inv))
    else:
        lagrange = _node_factors(tower, quotients, pt_inv, to_axis, between, deriv_inv[0][:T])
    return SchemeParams(
        L=L, T=T, primes=primes, base=base, tower=tower, a=a, b=b, c=c,
        N=N, n=n, points=points,
        domain=EvalDomain(tower, points, weights=weights),
        k_polys=k_polys, server_scalars=server_scalars,
        server_taus=[tower.trace_scalars(w, i) for i, w in enumerate(server_scalars, start=1)],
        lambdas=[lam for lam, _ in duals], mus=[mu for _, mu in duals],
        vandermonde=_vandermonde_blocks(base, alpha_powers, primes, N), **lagrange,
    )


def _times_generators(tower, axes, r):
    """prod_(k in axes) (x - a_k) times the polynomial r over F_q0.
    The first factor is the sum over subsets S of the axes of (-1)^|S| a_S
    x^(|axes| - |S|), each a_S = prod_(k in S) a_k one monomial, so each
    subset places +-r, shifted, on its monomial."""
    r = r.coeffs
    out = np.zeros((len(r) + len(axes),) + tower.shape, dtype=np.int64)
    for size in range(len(axes) + 1):
        for S in combinations(axes, size):
            at = tuple(int(k in S) for k in range(1, tower.L + 1))
            out[(slice(len(axes) - size, len(axes) - size + len(r)),) + at] = r * (-1) ** size
    return Poly(tower, out)


def _node_factors(tower, quotients, pt_inv, to_axis, between, scalars):
    """encode's Lagrange step past the table's limit, from the quotients
    A/(x - w_k) [s, k], as SchemeParams fields.  node_scales: (axes,
    matrices, nodes) per factor of the nodes' scales A'(w_k)^-1, on the
    axes it spans.  Generator i's scale is P_T(a_i)^-1 on axis i times the
    (a_i - a_k)^-1 on axes {i, k}; random node t's is the (alpha_t - a_k)^-1
    on each axis k times the F_q0 scalar scalars[t].  As (a_k - a_i)^-1 =
    -(a_i - a_k)^-1, one matrix per pair i < k scales both of its nodes,
    and generator k's F_q0 scalar is (-1)^k.  combine: [(S, s), (k, a), b]
    is entry [a, b] of the multiplication matrix of node k's F_q0 scalar
    times the coefficient of a_S x^s in its quotient, which lies in F_q0
    and sits in the (2, ..., 2) corner of the tower axes.  by_gen: per axis
    k, multiplication by a_k."""
    base, L, T = tower.base, tower.L, len(scalars)
    randoms, subs = list(range(L, L + T)), [tower.subtower((k,)) for k in range(L)]
    scales = [((k,), sub.mul_matrix(np.stack([pt_inv[k], *to_axis[k][:T]])), [k, *randoms])
              for k, sub in enumerate(subs)]
    scales += [((i, k), tower.subtower((i, k)).mul_matrix(np.moveaxis(between[i + 1, k + 1], 0, 1)),
                [i, k]) for i, k in combinations(range(L), 2)]
    signs = base.one() * (-1) ** np.arange(L)[:, None] % base.p
    per_node = np.concatenate([signs, scalars]).reshape((1, L + T) + (1,) * L + (base.d,))
    corner = quotients[(slice(None), slice(None), *(slice(2),) * L)]  # [s, k, S, digit]
    by = base.mul_matrix(np.moveaxis(base.mul(corner, per_node), (0, 1), (L, L + 1)))
    return dict(node_scales=scales,
                combine=by.reshape(2**L * (L + T), (L + T) * base.d, base.d).astype(np.float64),
                by_gen=[sub.mul_matrix(sub.gen(1)) for sub in subs])


def _vandermonde_blocks(base, alpha_powers, primes, N):
    """Decode's Vandermonde step per group i as one F_p matrix: row (j, a)
    and column (s, b) hold entry [a, b] of the matrix of multiplication by
    -alpha_j^s, for servers j <= N_i, powers s < p_i and base digits a, b."""
    blocks = -base.mul_matrix(alpha_powers) % base.p  # [s, j, a, b]
    return [blocks[:p_i, :n_i].transpose(1, 2, 0, 3).reshape(n_i * base.d, p_i * base.d)
            for p_i, n_i in zip(primes, N)]


def _draw_randoms(scheme, seed):
    rng = SplitMix64(seed)
    w = scheme.b // scheme.L
    R = [random_mat(scheme.a, w, scheme.tower, rng=rng) for _ in range(scheme.T)]
    S = [random_mat(w, scheme.c, scheme.tower, rng=rng) for _ in range(scheme.T)]
    return R, S


def encode(scheme, A, B, seed=0, randoms=None):
    """Interpolate f through (gens -> A blocks, first T upload points ->
    randoms) and likewise g, and return their values at the N_L upload
    points as the share stacks F (N_L, a, b/L, *tower.shape) and G (N_L,
    b/L, c, *tower.shape), views into one evaluation array: server j's
    share is F[j - 1] and G[j - 1].  On a tower that multiplies by its
    table, the coefficients of f and g are one product of the Lagrange basis
    with the stacked nodes.
    Past its limit, they come from the basis's factors (_interpolate), each
    an F_p matrix on the tower axes it spans.  Their values are one F_q0
    Vandermonde product, since the upload points lie in F_q0."""
    tower, L, T = scheme.tower, scheme.L, scheme.T
    a, w, c = scheme.a, scheme.b // L, scheme.c
    R, S = randoms if randoms is not None else _draw_randoms(scheme, seed)
    operands = [(A, (a, scheme.b)), (B, (scheme.b, c)),
                *((r, (a, w)) for r in R), *((s, (w, c)) for s in S)]
    if any(m.field != tower for m, _ in operands):
        raise FieldMismatch("an operand is not over the scheme's tower")
    if len(R) != T or len(S) != T or any((m.rows, m.cols) != shape for m, shape in operands):
        raise DimMismatch("matrix dimensions do not match the scheme")
    part = partition_inner(A, B, L)
    nodes = np.stack([
        np.concatenate([f.data.reshape((a * w,) + tower.shape),
                        g.data.reshape((w * c,) + tower.shape)])
        for f, g in zip(part.A_blocks + list(R), part.B_blocks + list(S))
    ])
    if scheme.basis is not None:
        coeffs = kernels.matmul(tower, scheme.basis, nodes)
    else:
        coeffs = _interpolate(scheme, nodes)
    evals = evaluate(tower, coeffs, scheme.points[L:])
    n = len(evals)
    return (evals[:, : a * w].reshape((n, a, w) + tower.shape),
            evals[:, a * w :].reshape((n, w, c) + tower.shape))


def _interpolate(scheme, nodes):
    """The coefficients (L+T, m, *tower.shape) of the polynomials through
    the stacked nodes (L+T, m, *tower.shape), sum_k A/(x - w_k) A'(w_k)^-1
    v_k, from the factors that setup keeps: each node v_k times its scale's
    tower factors, one on_axes product per factor; then, with A/(x - w_k) =
    sum_S a_S sum_s c_Sks x^s, c_Sks in F_q0, and node k's F_q0 scalar
    folded in, the sums sum_k c_Sks v_k for every subset S and power s as
    one float64 F_p matmul; then sum_S a_S of those in L Horner steps, the
    terms with a_k in S times a_k, on axis k, and added to the rest."""
    tower, p, d, n = scheme.tower, scheme.base.p, scheme.base.d, len(nodes)
    kernels.check_fp_exact(n * d, p)
    u = (nodes % p).astype(np.float64)
    for axes, matrices, which in scheme.node_scales:
        u[which] = kernels.on_axes(tower, u[which], axes, matrices)
    out = np.empty(nodes.shape, dtype=np.int64)
    # The m columns in chunks, each with about _CHUNK_BYTES of sums, 2^L per node.
    step = max(1, kernels._CHUNK_BYTES // (8 * 2**scheme.L * nodes[:, 0].size))
    for c in range(0, nodes.shape[1], step):
        part = u[:, c : c + step]
        rows = part.reshape(n, -1, d).transpose(1, 0, 2).reshape(-1, n * d)  # [(m, F_q0 coeff), (k, a)]
        sums = kernels.fp_mod(np.matmul(rows, scheme.combine), p)  # [(S, s), (m, F_q0 coeff), b]
        sums = sums.reshape((2,) * scheme.L + part.shape)  # S as one 0/1 axis per tower axis
        for k, by_a in enumerate(scheme.by_gen):
            sums = kernels.fp_mod(sums[0] + kernels.on_axes(tower, sums[1], (k,), by_a), p)
        out[:, c : c + step] = sums
    return out


def server_groups(scheme, j):
    """Server j's trace scalars w_ij by group i, for the i with j <= N_i."""
    return {i: scheme.server_scalars[i - 1][j - 1]
            for i in range(1, scheme.L + 1) if j <= scheme.N[i - 1]}


def server_step(tower, taus, F, G):
    """The servers' work, in process and in the TCP daemon alike, for the
    share stacks F and G and taus[i] = tower.trace_scalars(w_i, i) of the
    stacked w_i of the first len(taus[i]) shares: every h = f(alpha_j)
    g(alpha_j) in one batched product, then tr_i(w_i h) per group i, as
    {i: (len(taus[i]), a, c, *F_i.shape)}.  The trace is
    F_i-linear, so with h = sum_s h_s a_i^s, h_s in F_i the axis-i slices of
    h, tr_i(w_i h) = sum_s h_s tau_s for tau_s = tr_i(w_i a_i^s) in F_q0:
    h's axis-i digits, moved last, times the (p_i d, d) matrix whose block s
    multiplies by tau_s, one float64 F_p matmul, kept on F_i's axes as each
    share's (a, c, *F_i.shape) reply."""
    h = kernels.matmul(tower, F, G)
    replies = {}
    for i, tau in taus.items():
        kernels.check_fp_exact(tau[0].size, tower.base.p)
        moved = h[: len(tau)].transpose(kernels._axes_last(h.ndim, tower.L, (i - 1,))[0])
        rows = np.ascontiguousarray(moved, dtype=np.float64).reshape(len(tau), -1, tau[0].size)
        by_tau = tower.base.mul_matrix(tau).reshape(len(tau), tau[0].size, -1)  # [(s, a), b]
        reply = kernels.fp_mod(np.matmul(rows, by_tau.astype(np.float64)), tower.base.p)
        replies[i] = reply.astype(np.int64).reshape(moved.shape[:-2] + (-1,))
    return replies


def server_compute(scheme, F, G):
    """Every server's replies, {i: (N_i, a, c, *F_i.shape)}, from one
    server_step on the scheme's taus, for the share stacks F and G of all
    N_L servers in order, as encode makes them: group i's servers are the
    first N_i.  DimMismatch for stacks of another shape."""
    w = scheme.b // scheme.L
    if (F.shape[:3], G.shape[:3]) != ((scheme.N[-1], scheme.a, w), (scheme.N[-1], w, scheme.c)):
        raise DimMismatch(f"share stacks of {F.shape[:3]} and {G.shape[:3]} for N_L = "
                          f"{scheme.N[-1]} servers of {scheme.a} x {w} and {w} x {scheme.c}")
    taus = dict(enumerate(scheme.server_taus, start=1))
    return server_step(scheme.tower, taus, F, G)


def decode(scheme, replies):
    """Recover AB from replies[i], the (N_i, a, c, *F_i.shape) stack of
    group i's traces from servers 1..N_i, for every group i in 1..L;
    ShapeMismatch for another set of groups or a stack of another shape.
    For each group i, the Vandermonde step over F_q0 gives c_is = -sum_j
    alpha_j^s r_ij from the replies r_ij on F_i's axes, and the trace-dual
    basis gives h_i = sum_s c_is mu_is, the mirror of server_step: mu_is lies
    in F_q0(a_i), so coefficient e of h_i on axis i is sum_s c_is mu_ise with
    every mu_ise in F_q0: with c_is on axis i, one on_axes product with the
    (p_i d, p_i d) matrix whose block (s, e) multiplies by mu_ise."""
    tower, base = scheme.tower, scheme.base
    a, c, d, p = scheme.a, scheme.c, base.d, base.p
    if sorted(replies) != list(range(1, scheme.L + 1)):
        raise ShapeMismatch(f"replies for groups {sorted(replies)}, not 1..{scheme.L}")
    total = np.zeros((a, c) + tower.shape, dtype=np.int64)
    for i in range(1, scheme.L + 1):
        p_i, n_i = scheme.primes[i - 1], scheme.N[i - 1]
        r_i = replies[i]
        shape = (n_i, a, c) + tower.shape[: i - 1] + tower.shape[i:]
        if np.shape(r_i) != shape:
            raise ShapeMismatch(f"group {i}'s replies are {np.shape(r_i)}, not a {shape} stack")
        flat = np.moveaxis(r_i, 0, -2).reshape(-1, n_i * d)
        c_is = flat @ scheme.vandermonde[i - 1] % p  # [(a, c, F_i), (s, digit)]
        mu = np.moveaxis(scheme.mus[i - 1], i, 1).reshape(p_i, p_i, -1, d)[:, :, 0]  # [s, e, digit]
        by_mu = base.mul_matrix(mu).transpose(0, 2, 1, 3).reshape(p_i * d, p_i * d)
        c_i = c_is.reshape(total.shape[: 1 + i] + total.shape[2 + i :-1] + (p_i, d))  # s last
        n = c_i.ndim  # transposes, as moveaxis costs more per call
        c_i = c_i.transpose(*range(1 + i), n - 2, *range(1 + i, n - 2), n - 1)  # s on axis i
        total += kernels.on_axes(tower, c_i, (i - 1,), by_mu)
    return Mat(tower, a, c, total % p)


def cost_report(scheme):
    """Exact symbol counts in base-field symbols: analysis.costs of the
    scheme's parameters."""
    return CostReport(*costs(RateParams(scheme.a, scheme.b, scheme.c, scheme.L, scheme.T,
                                        scheme.primes)))


def security_rank_audit(tower, nodes, eval_points, T):
    """For every T-subset of eval_points, the T x T matrix of randomness
    Lagrange-basis values must be invertible.  l_t(x) = prod_(k != t) (x -
    w_k) / A'(w_t) on the nodes w, and the nonzero column scale 1/A'(w_t)
    changes no rank, so the values are the products of differences alone.
    One rank call eliminates every subset's matrix at once."""
    n = len(nodes)
    diff = tower.sub(np.asarray(eval_points)[:, None], np.asarray(nodes)[None])  # [j, k]
    factors = np.stack([np.delete(diff, t, axis=1) for t in range(n - T, n)], axis=2)
    values = reduce(tower.mul, np.moveaxis(factors, 1, 0))  # [j, t]
    subsets = list(combinations(range(len(eval_points)), T))
    ranks = rank(tower, values[np.array(subsets)].swapaxes(1, 2))
    return len(subsets), [s for s, r in zip(subsets, ranks) if r < T]


def security_audit(scheme, mode="rank", fixed_A=None):
    tower = scheme.tower
    if mode == "rank":
        nodes = scheme.points[: scheme.L + scheme.T]
        eval_points = scheme.points[scheme.L : scheme.L + scheme.N[-1]]
        checks, failures = security_rank_audit(tower, nodes, eval_points, scheme.T)
        return AuditReport("rank", checks, failures)

    if mode == "exhaustive":
        if tower.order_int > 1 << 16 or (scheme.a, scheme.b, scheme.c) != (1, 1, 1):
            raise TooLargeForExhaustive("exhaustive mode needs |F_q| <= 2^16 and 1x1 blocks")
        A = fixed_A if fixed_A is not None else Mat(tower, 1, 1, [[tower.gen(1)]])
        B = Mat(tower, 1, 1, [[tower.one()]])
        q, T = tower.order_int, scheme.T
        S = [Mat(tower, 1, 1, [[tower.zero()]])] * T
        # The shares do not depend on the subset: encode each of the q^T
        # draws once, and keep every server's f value.
        views = []
        for draw in product(range(q), repeat=T):
            R = [Mat(tower, 1, 1, [[tower.from_int(k)]]) for k in draw]
            F, _ = encode(scheme, A, B, randoms=(R, S))
            views.append([tower.to_int(f[0, 0]) for f in F])
        # A subset sees each of its q^T views once iff the draws give q^T
        # distinct views.
        subsets = list(combinations(range(1, scheme.N[-1] + 1), T))
        failures = [s for s in subsets if len({tuple(v[j - 1] for j in s) for v in views}) != q**T]
        return AuditReport("exhaustive", len(subsets), failures)

    raise InvalidParams(f"unknown audit mode {mode!r}")
