"""Constructive V V^T factorization of complex symmetric matrices.

The construction is an induction on the dimension.  Each level takes one
eigenpair (lambda, e) of the current symmetric block C and branches on
whether e is isotropic (e^T e = 0, possible only over the complex field):

* ``CaseI``               non-isotropic e: a complex-orthogonal reflector
                          maps e/sqrt(e^T e) to the last axis and splits off
                          a 1x1 corner, recurse on the rest.
* ``CaseII_LambdaZero``   lambda = 0: the null space leaves in one unitary
                          split (a lone null vector with e^T e != 0 is
                          recorded as ``CaseI``).
* ``CaseII_General``      isotropic e, lambda != 0, coupling block nonzero:
                          an extra bordered transform D restores the CaseI
                          shape; the free entries of D are scored, and the
                          best-scoring choice is taken.
* ``CaseII_Degenerate``   isotropic e, lambda != 0, coupling block zero or
                          negligible: the remaining 2x2 antidiagonal core is
                          factored in closed form.
* ``Base`` / ``ZeroMatrix`` terminate the recursion.
* ``Takagi``              a block where no eigenpair has a sound route ends in its
                          Autonne-Takagi factor (``_takagi``); the paper's
                          induction has no such step.

``_first_sound_plan`` decides a level's branch; a chain (below) takes further
levels by the same rules, ``_reflects`` and eigen's candidate tests.  A plan
holds A^-T of its levels' congruence A, built by the planner that chose A, the
next block, and the part of B (with B^T B = A^T C A) known at these levels.
``factor_symmetric`` walks the blocks down in a loop and assembles
V = A^-T B^T bottom-up by one product per plan, so the Python stack does not
grow with the dimension, and no level solves.  CaseI levels take exactly two
forms, a chain or one reflector.  A chain is one congruence by the
m x (r + 1) matrix A of the block's eigenvectors, taken when every other
eigenpair passes the planner's tests, or all up to a null tail (a
rank-deficient C, its other eigenvalues under the noise floor): eigenvectors
of distinct eigenvalues are bilinear-orthogonal to each other and to the null
space, so C = L M L^T with L = A (2I - A^T A), one Newton-Schulz step, up to
what a check bounds by the noise floor; a tail is an exact zero block.  A
chain forms M = A^T C A in one product, re-checks each level on M, and
assembles V = A^-T R in one product.  Any other CaseI plan, a chain that
fails its checks included, is one level by one complex-orthogonal reflector.
Every plan starts from one eigendecomposition of its own block, and the block
it leaves takes a fresh one.  In exact arithmetic that is the paper's
per-level congruence; a chain changes the order of the arithmetic, and its
cuts compare against the norms of M's leading blocks.  Every level works in
the input's units; only ``_plan``, whose bordered transform compares against
absolute constants, builds its level on the block over its norm.  An input
whose |C|_F lies near the ends of the float range is factored and verified as
4^-k C, an exact power of 4.

At small n a numpy call's dispatch, not its arithmetic, sets the time: products use ``ndarray.dot``,
constants enter ufuncs as 0-d arrays and scalar tests run on ``tolist()``, every bit kept.

The returned factor's ``relative_residual`` is |C - V V^T|_F / max(|C|_F, 1).
It can exceed verify_tol where an isotropic level's coupling block is weak: a
coupling of the bulk to the corner alone takes a bordered transform that scores
just above ``_SOUND_SCORE``, and a flat block under the all-zero cut is dropped
at more than verify_tol from m ~ 150.  The CLI then reports ``status: "fail"``
with exit code 2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from . import eigen
from .matcore import (
    _DEFAULT_CONFIG,
    _EPS,
    _ETE_DANGER,
    _HALF,
    _ISO_FLOOR,
    _ONE,
    _ZERO,
    SingularMatrixError,
    ToleranceConfig,
    ValidationError,
    _complement_basis_within,
    _principal_sqrt,
    as_matrix,
    as_scalar,
    frobenius,
    principal_sqrt,
)

BRANCH_BASE = "Base"
BRANCH_CASE_I = "CaseI"
BRANCH_CASE_II_LAMBDA_ZERO = "CaseII_LambdaZero"
BRANCH_CASE_II_GENERAL = "CaseII_General"
BRANCH_CASE_II_DEGENERATE = "CaseII_Degenerate"
BRANCH_ZERO_MATRIX = "ZeroMatrix"
#: the Autonne-Takagi terminal, kept out of ``ALL_BRANCHES``: no generator family reaches it
BRANCH_TAKAGI = "Takagi"

ALL_BRANCHES = (
    BRANCH_BASE,
    BRANCH_CASE_I,
    BRANCH_CASE_II_LAMBDA_ZERO,
    BRANCH_CASE_II_GENERAL,
    BRANCH_CASE_II_DEGENERATE,
    BRANCH_ZERO_MATRIX,
)

#: |lambda*alpha| below this multiple of |C|_F is treated as lambda = 0
#: (dropping a corner this small costs at most sqrt(2)*1e-10 relative residual,
#: while feeding it to the bordered transform would divide by it)
_LAMBDA_ZERO_CUT = 1e-10
#: coupling block with max-entry below this multiple of |lambda*alpha| counts as zero
_ALLZERO_CUT = 1e-10
#: symmetry defect tolerated (and symmetrized away) on input
_SYM_BAND = 1e-12
#: an isotropic eigenvector with 0 < |lambda| below this fraction of |C|_F
#: drives the bordered transform (x_n = -1/(lambda*alpha)) toward singularity;
#: such candidates are deferred the same way
_LAMBDA_DANGER = 1e-4
#: coupling block with |c_tilde'|_F below this multiple of |C|_F is dropped
#: through the closed form: that costs at most its own norm, far under
#: verify_tol, while a bordered transform built on it scores rounding noise
_DROP_CUT = 5e-9
#: a bordered transform whose score (|det D| against |x||y|, a 1/cond proxy) is below this is
#: unsound: ``choose_x`` labels it ``fallback:`` and ``_plan`` builds no plan on it
_SOUND_SCORE = 1e-3
#: ``orthogonal_gauge`` accepts o with |o^T o - I|_F up to this multiple of max(|o|_F^2, 1)
_GAUGE_TOL = 1e-10
#: |C|_F outside this band is factored as 4^-k C, largest part near 1: near the ends of the
#: float range, |C|_F^2 overflows (|C|_F ~ 1.3e154) or underflows
_NORM_BAND = (2.0**-400, 2.0**400)
#: the smallest normal float, the symmetry test's least scale
_TINY = float(np.finfo(np.float64).tiny)


class NotSymmetricError(ValueError):
    """Input matrix is not symmetric within the accepted band."""


@dataclass(frozen=True, slots=True)
class ChosenX:
    x: np.ndarray
    det_d: complex
    strategy: str
    score: float  # |det D| relative to the size of D, a 1/cond proxy


@dataclass(frozen=True, slots=True)
class LevelRecord:
    """One level of the trace.  ``value`` (the eigenvalue, lambda*alpha on the
    isotropic branches, the entry at Base) is in the input's units; ``det_d`` at unit norm.
    ``ete`` is e^T e of the level's phase-canonical unit eigenvector, in the coordinates of the
    plan's block: a chain records all its levels' in its top block's."""

    dim: int
    branch: str
    value: complex | None = None
    ete: complex | None = None
    det_d: complex | None = None
    x_strategy: str | None = None


@dataclass(frozen=True, slots=True)
class LevelPlan:
    """Levels decided but not yet assembled, one record each: V = A^-T B^T = ``left`` B^T.

    ``left`` = A^-T: a reflector level's complex orthogonal Q is its own, a chain's m x p
    eigenvector matrix A gives L = A (2I - A^T A) with the coupling fold of ``_chain``,
    zero-padded to [0 | L] when a null tail is left; a null split's unitary
    [R | N] gives its conjugate; an isotropic A' = [V' | conj(e) | e] gives conj(A') with a
    Gram correction, times D^-T for a bordered transform A' D.  ``b`` is B, its leading
    block left zero for the factor of ``sub``, the next block (None at the last plan).  The
    Takagi terminal's ``left`` is its V and ``b`` is I.  All in the input's units; ``sub`` takes a
    fresh eigendecomposition of its own.
    """

    records: tuple
    left: np.ndarray
    sub: np.ndarray | None
    b: np.ndarray


@dataclass(frozen=True)
class RecursionTrace:
    levels: tuple

    def branches(self) -> list:
        return [lv.branch for lv in self.levels]


@dataclass(frozen=True)
class FactorizationResult:
    V: np.ndarray
    residual: float
    relative_residual: float
    trace: RecursionTrace


@dataclass(frozen=True)
class VerifyResult:
    residual: float
    relative_residual: float
    passed: bool


def verify_factorization(c, v, cfg: ToleranceConfig | None = None) -> VerifyResult:
    """Frobenius residual of C - V V^T, relative to max(|C|_F, 1).

    A nonzero C whose |C|_F lies outside ``_NORM_BAND`` is measured as C/4^k against V/2^k, the
    prescale of ``factor_symmetric``, so neither norm overflows or underflows on the way."""
    c = as_matrix(c, square=True, name="C")
    v = as_matrix(v, square=True, name="V")
    cfg = cfg or _DEFAULT_CONFIG
    if v.shape != c.shape:
        raise ValidationError(f"shape mismatch: C is {c.shape}, V is {v.shape}")
    unit = _norm_and_prescale(c)[1]
    residual, relative = _residual(c / unit / unit, v / unit, unit)
    return VerifyResult(residual=residual, relative_residual=relative, passed=relative <= cfg.verify_tol)


def _residual(inner: np.ndarray, w: np.ndarray, unit: float = 1.0, norm: float | None = None) -> tuple:
    """(|C - V V^T|_F, that relative to max(|C|_F, 1)) of C = 4^k ``inner`` and V = 2^k ``w``,
    ``unit`` = 2^k: both norms are taken at the prescaled size and scaled back.  ``norm`` is
    |``inner``|_F when the caller has it."""
    product = w.dot(w.T)
    residual = frobenius(np.subtract(inner, product, out=product)) * unit * unit
    norm = frobenius(inner) if norm is None else norm
    return residual, residual / max(norm * unit * unit, 1.0)


def _norm_and_prescale(c: np.ndarray) -> tuple:
    """(|C|_F, 2^k) with C/4^k's largest real or imaginary part in [1/2, 2) for a nonzero C whose |C|_F
    lies outside ``_NORM_BAND``; (|C|_F, 1.0) for C = 0 or C in the band.  Parts, not moduli: a
    modulus can overflow where its parts do not."""
    with np.errstate(over="ignore"):  # an overflow to inf is outside the band
        norm = frobenius(c)
    if _NORM_BAND[0] <= norm <= _NORM_BAND[1] or not c.any():
        return norm, 1.0
    peak = np.maximum(np.abs(c.real), np.abs(c.imag)).max()
    return norm, 2.0 ** (math.frexp(float(peak))[1] // 2)


def orthogonal_gauge(v, o) -> np.ndarray:
    """Apply the gauge freedom V -> V o for complex orthogonal o (o^T o = I)."""
    v = as_matrix(v, name="V")
    o = as_matrix(o, square=True, name="o")
    if o.shape[0] != v.shape[1]:
        raise ValidationError(f"gauge matrix {o.shape} does not conform to V {v.shape}")
    defect = frobenius(o.T @ o - np.eye(o.shape[0]))
    if defect > _GAUGE_TOL * max(frobenius(o) ** 2, 1.0):
        raise ValidationError(f"gauge matrix is not orthogonal: |o^T o - I| = {defect:.3g}")
    return v @ o


def choose_x(c_tilde_prime, lambda_alpha):
    """Pick the free entries of the bordered transform D.

    x_n is pinned to -1/(lambda*alpha).  The free components are scored on a
    ladder of rungs d: zero, each unit vector e_i, and e_i +- e_j for the
    largest off-diagonal |c_tilde'_ij| of the leading block (the 1x1 and 2x2
    pivots of Bunch & Kaufman).  A rung with |c_tilde' d| between the
    all-zero cut of |lambda*alpha| and 1 is scaled to 1/sqrt(|c_tilde' d|)
    (at most 1e8), so a block weak against lambda*alpha still gives a
    well-conditioned D.  The best-scoring rung is taken; one scoring below
    ``_SOUND_SCORE`` is labelled ``fallback:``.  Whether the coupling block is
    worth bordering is the caller's decision (``_plan`` drops a negligible one
    first): on an all-zero block every rung scores 0, and the result is
    ``fallback:zero`` with det D = 0.

    Each rung scores in closed form, in scalars: with c = c_tilde', c_k its
    last column, g = c^* c_k, x = [s d; x_n] and y = c x,
    det D = -x^T y = -(s^2 d^T c d + 2 s x_n d^T c_k + x_n^2 c_kk),
    |x|^2 = s^2 |d|^2 + |x_n|^2 and |y|^2 = s^2 |c d|^2 + 2 s Re(x_n d^T g) + |x_n|^2 |c_k|^2,
    so c's diagonal, last column and column norms and g score every rung (a pair's |c d| measured).
    """
    ct = np.asarray(c_tilde_prime, dtype=np.complex128)
    if ct.ndim != 2 or ct.size == 0 or ct.shape[0] != ct.shape[1]:
        raise ValidationError(f"c_tilde_prime must be a nonempty square 2-D array, got shape {ct.shape}")
    la = as_scalar(lambda_alpha, "lambda_alpha")
    if la == 0.0:
        raise ValidationError("lambda_alpha must be nonzero in this branch")
    moduli = np.abs(ct)
    if not math.isfinite(np.maximum.reduce(moduli, axis=None)):  # NaN or Inf makes the largest modulus non-finite
        raise ValidationError("c_tilde_prime contains NaN or Inf entries")
    k = ct.shape[0] - 1  # entries 0..k-1 of x are the rung's, entry k is x_n
    squares = moduli * moduli
    norms = np.add.reduce(squares, axis=0).tolist()  # |c_i|^2
    diag, last, g = ct.diagonal().tolist(), ct[:, k].tolist(), ct[:, k].dot(ct.conj()).tolist()
    # (rung, entries of d, |d|^2, d^T c d, d^T c_k, |c d|^2, d^T g); the rung is -1 for zero, i for
    # unit:i and a pair's label, so that only the best rung's label is formatted
    rungs = [(-1, (), 0, 0.0, 0.0, 0.0, 0.0)]
    rungs += [(i, ((i, 1.0),), 1, diag[i], last[i], norms[i], g[i]) for i in range(k)]
    if k > 1:  # the pair on the largest off-diagonal entry of the leading block
        off = moduli[:k, :k].copy()
        off.reshape(-1)[:: k + 1] = -1.0  # a diagonal block pairs (0, 1)
        i, j = sorted(divmod(int(off.argmax()), k))
        cross = 2.0 * complex(ct[i, j])
        # |c d| measured, as |c_i|^2 + |c_j|^2 +- ... cancels; c_i +- c_j squares as c_i +- 1.0 * c_j
        for sign, op, measured in ((1.0, "+", ct[:, i] + ct[:, j]), (-1.0, "-", ct[:, i] - ct[:, j])):
            rungs.append((f"pair:{i}{op}{j}", ((i, 1.0), (j, sign)), 2, diag[i] + diag[j] + sign * cross,
                          last[i] + sign * last[j], frobenius(measured) ** 2, g[i] + sign * g[j]))
    xn = -1.0 / la
    xn2, cut = abs(xn) ** 2, _ALLZERO_CUT * abs(la)
    # the parts every rung shares, evaluated as the rung's own expression groups them
    two_xn, corner, tail = 2.0 * xn, xn * xn * last[k], xn2 * norms[k]
    best, sqrt = None, math.sqrt
    for rung, entries, count, quad, along, weight2, dg in rungs:
        weight = sqrt(weight2)
        s = min(weight**-0.5, 1e8) if cut < weight < 1.0 else 1.0
        det_d = -(s * (s * quad + two_xn * along) + corner)
        yy = s * (s * weight2 + 2.0 * (xn * dg).real) + tail
        # |det D| <= |x||y| always; a tiny ratio means D is nearly singular
        score = abs(det_d) / (1.0 + sqrt((s * s * count + xn2) * (0.0 if yy < 0.0 else yy)))
        if best is None or score > best[0]:
            best = score, rung, entries, s, det_d
    score, rung, entries, s, det_d = best
    x = np.zeros(k + 1, dtype=np.complex128)
    for index, sign in entries:
        x[index] = sign * s
    x[k] = xn
    label = rung if isinstance(rung, str) else "zero" if rung < 0 else f"unit:{rung}"
    if score < _SOUND_SCORE:
        label = f"fallback:{label}"
    return ChosenX(x=x, det_d=det_d, strategy=label, score=score)


def _isotropic_upgrade(c: np.ndarray, pair: eigen.EigenPair, basis: np.ndarray, scale: float):
    """(isotropic eigenpair, its e^T e) for pair.value when its eigenspace has one, or None.

    A multi-dimensional eigenspace always contains isotropic directions
    (any nonzero quadratic form on C^k, k >= 2, has nontrivial zeros); one is
    taken from ``basis``, the numerical eigenspace that came with the pair;
    its columns need not be orthonormal, since B z is normalised.  The pair's
    vector is unit and phase-canonical, as the isotropic level takes it.
    """
    if basis.shape[1] < 2:
        return None
    v = eigen._phase_canonical(basis.dot(_isotropic_in_subspace(basis.T.dot(basis))))
    v /= frobenius(v)  # after the phase, which rounds |v| off 1
    cv = c.dot(v)
    lam = complex(np.vdot(v, cv))
    res = frobenius(cv - lam * v)
    ete = complex(v.dot(v))
    if res <= max(1e-10 * scale, 10.0 * pair.residual) and abs(ete) <= _ISO_FLOOR:
        return eigen.EigenPair(value=lam, vector=v, residual=res), ete
    return None


def _null_split(c: np.ndarray, pair: eigen.EigenPair, null: np.ndarray, r: np.ndarray,
                cfg: ToleranceConfig) -> LevelPlan:
    """One unitary split A = [R | N] off the numerical null space N of C.

    C N = 0 gives w^T C N = 0 for every w, so A^T C A = blockdiag(R^T C R, 0)
    with R completing N unitarily: the other right singular vectors of the SVD
    of C that found N.  The level drops only C N, whose singular
    values lie under the eigenspace cut.  A null space of two or more
    dimensions holds isotropic directions; a lone null vector with e^T e != 0
    is recorded as CaseI.
    """
    m, k = null.shape
    ete = complex(pair.vector.dot(pair.vector))
    branch = BRANCH_CASE_I if k == 1 and abs(ete) > cfg.iso_tol else BRANCH_CASE_II_LAMBDA_ZERO
    left = np.concatenate((r, null), axis=1)
    np.conjugate(left, out=left)
    return LevelPlan((LevelRecord(m, branch, pair.value, ete),), left, _symmetrized(r.T.dot(c).dot(r)),
                     np.zeros((m, m), dtype=np.complex128))


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """0.5 (M + M^T), in the one new array that holds the sum."""
    s = m + m.T
    return np.multiply(_HALF, s, out=s)


def _reflects(ete: complex) -> bool:
    """Whether a simple pair with this e^T e is safely non-isotropic (iso_tol is below the cut): a panel level."""
    return abs(ete) >= _ETE_DANGER


def _panel(c: np.ndarray, pair: eigen.EigenPair, ete: complex, rest: tuple | None, cfg: ToleranceConfig,
           floor: float = 0.0) -> LevelPlan:
    """CaseI levels on ``pair`` (``ete`` = e^T e) by one complex-orthogonal congruence A: the chain
    that ``_chain`` builds from the other eigenpairs ``rest`` and checks (its pre-check and its
    re-check share one helper, ``_passing``, evaluated level by level in scalars), or else
    ``_walk``'s one reflector A = Q, which leaves a block that takes a fresh eigendecomposition in
    the next plan.
    With M = A^T C A, V = A^-T R, R = [[V', R12], [0, R22]] with V' a factor of ``sub``, M's leading
    block, and column p of [R12; R22] M[:p, p]/sqrt(M_pp) over sqrt(M_pp); the plan's B is R^T, the
    lower triangle of M scaled row by row.
    """
    m = c.shape[0]
    lower = np.arange(m)[:, None] >= np.arange(m)
    chain = None if rest is None else _chain(c, pair, ete, rest, cfg, floor)
    if chain is None:
        left = _walk(pair, ete)
        chain = left, _symmetrized(left.T.dot(c).dot(left)), m - 1, [ete]
    left, mm, k, etes = chain
    mu = mm.diagonal()[k:]
    root = np.sqrt(mu + _ZERO)  # + 0 turns an imaginary -0.0 into +0.0: the principal root, as _principal_sqrt
    b = np.where(lower, mm, _ZERO)  # its leading k x k block is overwritten by V'^T
    b[k:] /= root[:, None]
    b.flat[k * (m + 1) :: m + 1] = root
    records = tuple(map(LevelRecord, range(m, k, -1), repeat(BRANCH_CASE_I), mu[::-1].tolist(), etes))
    return LevelPlan(records, left, mm[:k, :k], b)


def _passing(gap: float, modulus: float, norm: float, floor: float) -> bool:
    """Whether a chain's candidate is taken first by eigen's tests (simple at ``gap`` from the
    eigenvalues after it, ``modulus`` away from zero) in a block of norm ``norm``, past no block of
    norm at most ``floor``: ``_chain``'s pre-check at Schur bounds and its re-check at M's norms."""
    simple, near_zero = eigen._simple_and_near_zero(gap, modulus, norm)
    return norm > floor and simple and not near_zero


def _chain(c: np.ndarray, pair: eigen.EigenPair, ete: complex, rest: tuple, cfg: ToleranceConfig, floor: float):
    """(A^-T, M, k, e^T e of each level) of the chain on ``pair`` and the eigenpairs ``rest``, whose
    levels leave a k x k block, or None when the chain is not built or fails a check.

    Candidate i passes the pre-check when ``_passing`` takes it at the Schur bound
    sqrt(sum |vals|^2) of the block after level i, its gap measured to the eigenvalues after it.
    When the passing candidates are all of them (two levels or more), or a prefix of r whose rest
    has a Schur bound at most ``floor`` (a null tail), ``_whole_chain`` builds the chain's
    m x (r + 1) congruence A and L from the eigenvectors, unless some e^T e fails ``_reflects``.  It
    is taken only when delta = C - L M L^T, all it leaves out, has |delta|_F <= ``floor``.  With
    X = delta A - L (A^T delta A)/2, X L^T + L X^T is delta but for its part off A's range on both
    sides, so L + X diag(M)^-1 keeps delta's coupling to A's range to first order, as a reflector
    keeps M's coupling block.  A null tail's M and L are zero-padded to m x m: the tail is an exact
    zero block, which the loop records as ``ZeroMatrix``.  Each level but the first is then
    re-checked by ``_passing`` at its block's norm in M (cumulative sums of |M|^2, read on their
    diagonals), with its corner's coupling |M[:p, p]| against eig_tol.
    """
    m = c.shape[0]
    if m <= 2:  # a chain of one level is its reflector, which costs less (below)
        return None
    vals, vecs = rest
    # the tests in scalars, on numpy's moduli and distances: a vector call costs more at these sizes
    moduli = np.abs(vals).tolist()
    distances = np.abs(vals[:, None] - vals).tolist()
    gaps = [min(row[i + 1 :]) for i, row in enumerate(distances[:-1])] + [math.inf]
    schur, total = [], 0.0
    for modulus in reversed(moduli):  # sqrt of the running sum of |vals|^2 from the end
        total += modulus * modulus
        schur.append(math.sqrt(total))
    schur.reverse()
    # the first candidate that fails, or m - 1 when none does
    r = next((i for i in range(m - 1) if not _passing(gaps[i], moduli[i], schur[i], floor)), m - 1)
    # the whole spectrum or a null tail: the block a reflector leaves under the floor is recorded without an eig
    if not (r == m - 1 or (0 < r and schur[r] <= floor)):
        return None
    whole = _whole_chain(pair, ete, vecs[:, :r], c, vals[:r])
    if whole is None:
        return None
    a, left, etes = whole
    p = min(a.shape[1], m - 1)
    k = m - p
    mm = _symmetrized(a.T.dot(c).dot(a))
    delta = c - left.dot(mm).dot(left.T)
    if frobenius(delta) > floor:  # what L M L^T leaves out of C must be noise
        return None
    x = delta.dot(a)  # fold delta's coupling to A's range into L (above), in place to spare copies
    x -= left.dot(_HALF * a.T.dot(x))
    x /= mm.diagonal()
    left += x
    if a.shape[1] < m:  # a null tail: M's leading k x k block and its coupling are exact zeros
        padded = np.zeros((m, m), dtype=np.complex128)
        padded[k:, k:] = mm
        mm, left = padded, np.hstack([np.zeros((m, k), dtype=np.complex128), left])
    squares = mm.view(np.float64) ** 2  # re^2 and im^2 of each entry, side by side
    cols = np.add.accumulate(squares[:, ::2] + squares[:, 1::2], axis=0)
    # the coordinates levels 1 .. p-1 split off are m-2 down to k: their leading blocks and couplings
    norms = np.sqrt(np.add.accumulate(cols, axis=1).diagonal()[k : m - 1][::-1]).tolist()
    coupling = np.sqrt(cols.diagonal(1)[k - 1 : m - 2][::-1]).tolist()
    if all(_passing(gaps[i], moduli[i], norm, floor) and coupling[i] <= cfg.eig_tol * norm
           for i, norm in enumerate(norms)):
        return left, mm, k, etes
    return None


def _whole_chain(pair: eigen.EigenPair, ete: complex, vecs: np.ndarray, c: np.ndarray, vals: np.ndarray):
    """(A, A^-T, e^T e of each level) of a chain on ``pair`` and the other eigenpairs
    (``vals``, ``vecs``), or None when some of their e^T e fails ``_reflects``.

    Eigenvectors of distinct eigenvalues of a symmetric C are bilinear-orthogonal to each other
    and to C's null space N, so with f = e/sqrt(e^T e), the m x (r + 1) A = [f_r | ... | f_1 | f_0]
    (f_0 of ``pair``, the others of ``vecs`` in reverse) has A^T A = I up to rounding, and
    C = L M L^T with M = A^T C A and L = A (2I - A^T A), one Newton-Schulz step: A^-T when A is
    square (``vecs`` holds every other eigenvector), a pseudo-inverse-transpose when N remains.
    A's columns come from C E Lambda^-1, one step of subspace iteration into C's range, whose null
    component is the product's rounding alone.  A level's e^T e is that of eig's phase-canonical
    unit eigenvector.
    """
    unit = np.einsum("ij,ij->j", vecs, vecs)
    unit /= np.einsum("ij,ij->j", vecs.conj(), vecs).real  # e^T e of the unit e
    if not all(map(_reflects, unit.tolist())):
        return None
    peak = vecs[np.abs(vecs).argmax(axis=0), np.arange(vecs.shape[1])]
    etes = [ete, *(unit * (np.abs(peak) / peak) ** 2).tolist()]  # phase as eigen._phase_canonical
    a = c.dot(np.concatenate((vecs[:, ::-1], pair.vector[:, None]), axis=1))
    a /= np.concatenate((vals[::-1], [pair.value]))
    a /= np.sqrt(np.einsum("ij,ij->j", a, a) + _ZERO)
    defect = a.T.dot(a)
    defect.flat[:: a.shape[1] + 1] -= _ONE
    return a, a - a.dot(defect), etes


def _walk(pair: eigen.EigenPair, ete: complex) -> np.ndarray:
    """The complex orthogonal Q of one reflector level, which splits off ``pair``'s corner.

    f = e/sqrt(e^T e) has f^T f = 1, so u = f - s*e_j (s = +-1, Re(s f_j) <= 0, j maximising
    |u_j| >= 1) gives H f = s*e_j for H = I - beta u u^T, |beta| <= 1, and Q^T = P H (P swaps j and
    the last coordinate) splits off the corner.  Q = P - (u^T P)^T (beta u)^T is built directly:
    P is symmetric, and u^T P is u with entries j and m - 1 swapped.
    """
    f = pair.vector / _principal_sqrt(ete)
    signs = np.where(f.real < 0.0, 1.0, -1.0)
    j = int(np.abs(f - signs).argmax())
    m = f.shape[0]
    u = f.copy()
    u[j], u[-1] = f[-1], f[j] - signs[j]
    beta = 2.0 / complex(u.dot(u))
    swapped = u.copy()  # u^T P, P = I with rows j and m - 1 swapped, exactly
    swapped[j], swapped[-1] = u[-1], u[j]
    q = np.zeros((m, m), dtype=np.complex128)  # P, which is symmetric: Q = P^T - (u^T P)^T (beta u)^T
    q.flat[:: m + 1] = 1.0
    q[j, j] = q[-1, -1] = 0.0
    q[j, -1] = q[-1, j] = 1.0
    q -= np.multiply(beta * u, swapped[:, None])
    return q


def _first_sound_plan(c: np.ndarray, cfg: ToleranceConfig, scale: float | None = None,
                      floor: float = 0.0) -> LevelPlan:
    """Plan of one level, for the first eigenvalue candidate with a sound plan.

    Walks the eigenvalue candidates of one eigendecomposition of C, largest
    modulus first.  A candidate is taken when it gives an exact route: the
    null space (one unitary split), an isotropic vector whose plan is sound,
    or a safely non-isotropic vector, which starts a CaseI panel.  Candidates
    in the ill-conditioned gaps are deferred.  A pair taken directly from the
    spectrum (no ``basis``) belongs to a simple eigenvalue, so e^T e != 0 (e^T
    is also its left eigenvector), its eigenspace holds no isotropic direction,
    and its panel tries a chain on the other eigenpairs; a panel that takes no
    chain is one reflector level.  A block where no candidate has a sound route
    ends in ``_takagi``.  ``scale`` is |C|_F when known, and a block of norm at
    most ``floor`` is rounding noise.  C, the records and the plan are in the
    input's units.
    """
    scale = frobenius(c) if scale is None else scale
    for pair, basis, rest, complement in eigen._candidate_pairs(c, cfg, scale):
        if abs(pair.value) <= _LAMBDA_ZERO_CUT * scale:  # a near-zero candidate: its SVD gave the complement
            return _null_split(c, pair, basis, complement, cfg)
        ete = complex(pair.vector.dot(pair.vector))
        if abs(ete) <= cfg.iso_tol:  # eig's phase multiply rounds |e| off 1: the level takes a unit e
            e = pair.vector / frobenius(pair.vector)
            iso = replace(pair, vector=e), complex(e.dot(e))
        else:
            iso = None if basis is None else _isotropic_upgrade(c, pair, basis, scale)
        if iso is not None:
            in_gap = _LAMBDA_ZERO_CUT * scale < abs(iso[0].value) < _LAMBDA_DANGER * scale
            plan = None if in_gap else _plan(c, *iso, scale)
            if plan is not None:
                return plan
        elif _reflects(ete):
            return _panel(c, pair, ete, rest, cfg, floor)
    return _takagi(c)


def _takagi(c: np.ndarray) -> LevelPlan:
    """One ``Takagi`` level for the whole block: C = U Sigma U^T, U unitary and Sigma >= 0 (Horn &
    Johnson, Matrix Analysis, Cor. 4.4.4), so V = U Sigma^1/2.  E = [[Re C, Im C], [Im C, -Re C]] is
    u -> C conj(u) on the parts of u, with eigenvalues +-sigma: the eigenvectors [x; y] of its m
    largest give U's columns x + iy.  A zero sigma adds nothing, so a null space needs no care."""
    m = c.shape[0]
    with eigen._EIGENVALUE_ITERATION:
        sigma, vecs = np.linalg.eigh(np.block([[c.real, c.imag], [c.imag, -c.real]]))
    v = (vecs[:m, m:] + 1j * vecs[m:, m:]) * np.sqrt(np.maximum(sigma[m:], 0.0))
    return LevelPlan((LevelRecord(m, BRANCH_TAKAGI),), v, None, np.eye(m, dtype=np.complex128))


def _isotropic_in_subspace(s: np.ndarray) -> np.ndarray:
    """z with z^T S z ~ 0 for symmetric S (k >= 2), not normalised.

    A negligible diagonal entry gives a coordinate vector; otherwise z is the
    smaller root of the quadratic form on the two largest diagonal entries,
    taken in scalars.
    """
    rows = s.tolist()
    diag = [abs(row[i]) for i, row in enumerate(rows)]
    j = diag.index(min(diag))  # the first index on a tie, as below
    z = np.zeros(len(rows), dtype=np.complex128)
    if diag[j] <= 1e-14 * max([abs(v) for row in rows for v in row]):
        z[j] = 1.0
        return z
    i0, i1 = sorted(range(len(diag)), key=diag.__getitem__, reverse=True)[:2]
    a, b, c = rows[i0][i0], rows[i0][i1], rows[i1][i1]
    disc = cmath.sqrt(b * b - a * c)
    z[i0] = 1.0
    z[i1] = min((-b + disc) / c, (-b - disc) / c, key=abs)
    return z


def _reduce_case_ii(c: np.ndarray, e: np.ndarray) -> tuple:
    """(A', C') of the isotropic branch: A' = [orthonormal basis of the joint complement of
    {e, conj(e)} | conj(e) | e] and C' = A'^T C A', whose last row and column are zero but for the
    corner entries lambda*alpha when C e = lambda e.  C is validated and e unit and phase-canonical,
    taken as given: the factor path has them from its eigenpair, whose e^T e it measured."""
    m = c.shape[0]
    a_prime = np.empty((m, m), dtype=np.complex128)
    a_prime[:, :-2] = _complement_basis_within(e)
    a_prime[:, -2] = e.conj()
    a_prime[:, -1] = e
    return a_prime, _symmetrized(a_prime.T.dot(c).dot(a_prime))


def _plan(c: np.ndarray, pair: eigen.EigenPair, ete: complex, scale: float | None = None) -> LevelPlan | None:
    """Decide the isotropic branch of one level for ``pair`` and build its congruence.

    ``pair`` holds the unit, phase-canonical isotropic e that its candidate test measured, and
    ``ete`` = e^T e; the level takes both as they are.  The level is built on C / |C|_F (``scale``
    when the caller has it): the bordered transform compares against absolute constants, and that
    block is bit for bit the same for C and 4^k*C.  B, the next block and the recorded
    lambda*alpha come back in C's units.  The route is decided here, once: a corner under the
    lambda = 0 cut is a ``CaseII_LambdaZero`` level; a coupling block c_tilde' whose largest entry
    is under the all-zero cut of |lambda*alpha| (``allzero``) or whose norm is under the drop cut
    (``dropped``) is left out through the closed form, a ``CaseII_Degenerate`` level; any other
    is bordered by ``choose_x``'s best rung, a ``CaseII_General`` level.  A best rung that scores
    below ``_SOUND_SCORE`` builds no plan: None, and the caller takes another candidate.  Neither
    coupling cut implies the other: a block of many entries each just under the all-zero cut can
    exceed the drop cut.
    """
    m = c.shape[0]
    scale = frobenius(c) if scale is None else scale
    b = np.zeros((m, m), dtype=np.complex128)
    a_prime, c_prime = _reduce_case_ii(c / scale, pair.vector)
    ct = c_prime[:-1, :-1]  # c_tilde', a view: c_prime is not used past it
    la = complex(c_prime[m - 2, m - 1])  # measured corner entry lambda*alpha, at unit norm
    left = _gram_corrected(a_prime, ete)
    if abs(la) <= _LAMBDA_ZERO_CUT:
        record = LevelRecord(m, BRANCH_CASE_II_LAMBDA_ZERO, la * scale, 0.0)
        return LevelPlan((record,), left, ct * scale, b)
    allzero = np.maximum.reduce(np.abs(ct), axis=None) <= _ALLZERO_CUT * abs(la)
    if allzero or frobenius(ct) <= _DROP_CUT:
        # the closed form m^T m = [[0, la], [la, 0]]; la is nonzero past the lambda = 0 cut
        b[m - 2 :, m - 2 :] = np.array([[1.0, la / 2.0], [1.0j, -1.0j * la / 2.0]]) * math.sqrt(scale)
        record = LevelRecord(m, BRANCH_CASE_II_DEGENERATE, la * scale, 0.0, None, "allzero" if allzero else "dropped")
        return LevelPlan((record,), left, None, b)
    chosen = choose_x(ct, la)
    if chosen.score < _SOUND_SCORE:
        return None
    # A = A' D, D = [[I, x], [y^T, 0]]; with s = x^T y = -det D, D^-T = [[I - y x^T/s, y/s], [x^T/s, -1/s]]
    x = chosen.x
    y = ct.dot(x)
    s = complex(x.dot(y))
    cond = _bordered_cond(x, y, s)
    if not cond * m * _EPS < 1.0:  # the rule of matcore.solve_linear, on |D|_F |D^-1|_F
        raise SingularMatrixError(f"bordered transform is singular to working precision (condition {cond:.3g})")
    w = left[:, :-1] @ y  # on this strided view, ndarray.dot would round differently
    w -= left[:, -1]
    w /= s
    left[:, :-1] -= w[:, None] * x
    left[:, -1] = w
    # the next block D^T C' D: c_tilde' + y u^T + u y^T with u = lambda*alpha e_k, symmetric as it stands
    y *= la
    ct[-1] += y
    ct[:, -1] += y
    b[m - 1, m - 1] = principal_sqrt(s) * math.sqrt(scale)  # lambda'^2 = s
    record = LevelRecord(m, BRANCH_CASE_II_GENERAL, la * scale, 0.0, chosen.det_d, chosen.strategy)
    return LevelPlan((record,), left, ct * scale, b)


def _gram_corrected(a: np.ndarray, ete: complex) -> np.ndarray:
    """A^-T = conj(A) blockdiag(I, G^-T) of an isotropic level's A = [V' | conj(e) | e], unit e:
    A^H A = blockdiag(I, G) with G = [[1, e^T e], [conj(e^T e), 1]].  conj(A)'s last two columns
    are e and conj(e), A's own in reverse order, so G^-T mixes them in scalars."""
    left = a.conj()
    den = 1.0 - abs(ete) ** 2
    left[:, -2] = (a[:, -1] - ete * a[:, -2]) / den
    left[:, -1] = (a[:, -2] - ete.conjugate() * a[:, -1]) / den
    return left


def _bordered_cond(x: np.ndarray, y: np.ndarray, s: complex) -> float:
    """|D|_F |D^-1|_F of m x m D = [[I, x], [y^T, 0]], s = x^T y: |D|_F^2 = m - 1 + |x|^2 + |y|^2,
    |D^-1|_F^2 = m - 3 + (|x|^2 |y|^2 + |x|^2 + |y|^2 + 1)/|s|^2 (inf at s = 0)."""
    if s == 0.0:
        return math.inf
    m, xx, yy = x.size + 1, frobenius(x) ** 2, frobenius(y) ** 2
    return math.sqrt((m - 1 + xx + yy) * (m - 3 + (xx * yy + xx + yy + 1.0) / abs(s) / abs(s)))


def factor_symmetric(c, cfg: ToleranceConfig | None = None) -> FactorizationResult:
    """Factor a complex symmetric matrix as C = V V^T.

    The input may deviate from exact symmetry by at most 1e-12 * |C|_F
    (it is symmetrized once); larger defects raise NotSymmetricError.  A nonzero C outside
    ``_NORM_BAND`` is factored as C' = C/4^k, its largest part in [1/2, 2) (``unit`` = 2^k).  A
    power of 4 is exact in binary floating point, and C' lies in the band, where the factorization
    is exactly scale-equivariant: V = 2^k V' and every trace value is 4^k times that of C', bit for
    bit (barring subnormal entries).
    """
    c = as_matrix(c, square=True, name="C")
    cfg = cfg or _DEFAULT_CONFIG
    norm_c, unit = _norm_and_prescale(c)
    if unit != 1.0:
        c = c / unit / unit
        norm_c = frobenius(c)
    defect = frobenius(c - c.T)
    if defect > _SYM_BAND * max(norm_c, _TINY):
        raise NotSymmetricError(f"matrix is not symmetric: |C - C^T| = {defect:.3g}")
    c = _symmetrized(c)
    levels: list = []
    steps: list = []  # (A^-T, B) of each plan, top down
    # a block at the eigenspace cut of the input is rounding noise (a rank-deficient input's remainder
    # once its range has left): it has no null space of its own, and would be taken down one level at a time
    floor = eigen._EIGENSPACE_CUT * norm_c
    block = c
    scale = norm_sym = frobenius(c)  # the top block's norm is also the residual's
    while True:
        m = block.shape[0]
        if scale <= floor:
            levels.append(LevelRecord(m, BRANCH_ZERO_MATRIX))
            v = np.zeros((m, m), dtype=np.complex128)
            break
        if m == 1:
            value = complex(block[0, 0])
            levels.append(LevelRecord(1, BRANCH_BASE, value))
            v = np.array([[principal_sqrt(value)]], dtype=np.complex128)
            break
        plan = _first_sound_plan(block, cfg, scale, floor)
        levels += plan.records
        steps.append((plan.left, plan.b))
        if plan.sub is None:
            v = None
            break
        block = plan.sub
        scale = frobenius(block)
    for left, b in reversed(steps):
        if v is not None:
            b[: len(v), : len(v)] = v.T
        v = left.dot(b.T)
    residual, relative = _residual(c, v, unit, norm_sym)
    if unit != 1.0:
        v = v * unit
        levels = [lv if lv.value is None else replace(lv, value=lv.value * unit * unit) for lv in levels]
    return FactorizationResult(v, residual, relative, RecursionTrace(tuple(levels)))
