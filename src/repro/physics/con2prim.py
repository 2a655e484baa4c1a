"""Conservative-to-primitive recovery for SRHD (vectorized).

The inversion solves a single nonlinear scalar equation per cell for the
pressure.  Given conserved ``(D, S_i, tau)`` and a trial pressure ``p``:

.. math::

   Q = \\tau + D + p = \\rho h W^2, \\quad
   v_i = S_i / Q, \\quad
   W = (1 - v^2)^{-1/2}, \\quad
   \\rho = D / W, \\quad
   \\epsilon = (Q (1 - v^2) - p) / \\rho - 1

and the residual is ``f(p) = p_EOS(rho, eps) - p``.  We run a vectorized
Newton iteration with the quasi-exact derivative ``f'(p) = v^2 cs^2 - 1``
(strictly negative, so Newton is monotone-safe) and fall back to bisection
for any cells that fail to converge — the pattern a production GPU kernel
uses, since divergent warps make per-cell scalar root-finders prohibitive.

Physical admissibility requires ``|S| < tau + D + p``; the lower pressure
bracket enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.workspace import scratch_buf
from ..eos.base import EOS
from ..utils.errors import RecoveryError
from .srhd import SRHDSystem


@dataclass
class RecoveryStats:
    """Convergence accounting for one con2prim sweep.

    The counters partition the sweep: ``n_newton_converged + n_bisection +
    n_failed == n_cells`` always holds, including on the failure path
    (stats are populated *before* :class:`RecoveryError` is raised).
    ``n_unbracketed`` counts cells whose bisection bracket never found a
    sign change — a subset of ``n_failed``.  ``n_failsafe`` counts failed
    cells that were atmosphere-reset instead of raising (a subset of
    ``n_failed``; see the ``failsafe_frac`` argument of
    :func:`con_to_prim`).
    """

    n_cells: int = 0
    n_newton_converged: int = 0
    n_bisection: int = 0
    n_failed: int = 0
    n_unbracketed: int = 0
    n_failsafe: int = 0
    max_iterations: int = 0


def _eval_state(eos: EOS, D, S2, tau, p, scratch=None, tag="c2p"):
    """Trial primitive state and EOS pressure residual at pressure *p*.

    Returns (rho, eps, v2, residual). All inputs/outputs are arrays; the
    outputs live in *scratch* buffers when a workspace is given (the
    Newton hot loop), fresh arrays otherwise (the bisection cold path).
    The in-place evaluation preserves the original operation order.
    """
    n = D.shape
    # Q = tau + D + p
    Q = scratch_buf(scratch, (tag, "Q"), n)
    np.add(tau, D, out=Q)
    np.add(Q, p, out=Q)
    # v2 = clip(S2 / Q**2, 0, 1 - 1e-14)
    v2 = scratch_buf(scratch, (tag, "v2"), n)
    np.square(Q, out=v2)
    np.divide(S2, v2, out=v2)
    np.clip(v2, 0.0, 1.0 - 1e-14, out=v2)
    # W = 1/sqrt(1 - v2); rho = D/W
    W = scratch_buf(scratch, (tag, "W"), n)
    np.subtract(1.0, v2, out=W)
    np.sqrt(W, out=W)
    np.divide(1.0, W, out=W)
    rho = scratch_buf(scratch, (tag, "rho"), n)
    np.divide(D, W, out=rho)
    # eps = max((Q (1 - v2) - p)/rho - 1, 0)
    eps = scratch_buf(scratch, (tag, "eps"), n)
    np.subtract(1.0, v2, out=eps)
    np.multiply(Q, eps, out=eps)
    np.subtract(eps, p, out=eps)
    np.divide(eps, rho, out=eps)
    np.subtract(eps, 1.0, out=eps)
    np.maximum(eps, 0.0, out=eps)
    residual = scratch_buf(scratch, (tag, "res"), n)
    np.subtract(eos.pressure(rho, eps), p, out=residual)
    return rho, eps, v2, residual


def _p_lower_bracket(D, S2, tau, p_floor, scratch=None, tag="c2p"):
    """Smallest admissible pressure: keeps v < 1 with a safety margin."""
    out = scratch_buf(scratch, (tag, "p_lo"), D.shape)
    np.sqrt(S2, out=out)
    np.subtract(out, tau, out=out)
    np.subtract(out, D, out=out)
    np.multiply(out, 1.0 + 1e-10, out=out)
    np.maximum(out, p_floor, out=out)
    return out


def con_to_prim(
    system: SRHDSystem,
    cons: np.ndarray,
    p_guess: np.ndarray | None = None,
    tol: float = 1e-12,
    max_newton: int = 50,
    max_bisect: int = 80,
    p_floor: float = 1e-16,
    stats: RecoveryStats | None = None,
    failsafe_frac: float = 0.0,
    atmosphere: tuple[float, float] | None = None,
    scratch=None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Invert conserved variables to primitives over a whole grid.

    Parameters
    ----------
    system:
        The SRHD system (supplies the EOS and variable indexing).
    cons:
        Conserved state array ``(nvars, *shape)``; may be modified in place
        when the failsafe resets cells (see below).
    p_guess:
        Optional pressure initial guess (e.g. last step's pressure); a
        crude estimate is used otherwise.
    stats:
        Optional :class:`RecoveryStats` filled with convergence counters.
    scratch:
        Optional :class:`~repro.core.workspace.ScratchWorkspace`; the
        Newton hot loop's flat temporaries then reuse preallocated
        buffers. The bisection fallback (cold path, data-dependent
        sizes) always allocates fresh. Results are bit-identical.
    out:
        Optional preallocated primitive array receiving the result.
    failsafe_frac, atmosphere:
        Bounded non-convergence failsafe.  When ``failsafe_frac > 0`` and
        ``atmosphere=(rho_atmo, p_atmo)`` is given, up to
        ``failsafe_frac * n_cells`` unrecoverable cells are reset to the
        static atmosphere (both the returned primitives and *cons* in
        place, keeping the pair consistent) instead of raising — the
        standard production compromise: a handful of pathological cells
        must not kill a cluster-scale run, but silent mass resets past the
        bound would corrupt the physics, so larger failures still raise.
        Reset cells are counted in ``stats.n_failsafe`` (they remain in
        ``n_failed`` too — the partition invariant holds).

    Returns
    -------
    prim:
        Primitive array ``(nvars, *shape)``.

    Raises
    ------
    RecoveryError
        If any cell fails both Newton and bisection, and the failsafe is
        disabled or the failure count exceeds its budget.
    """
    eos = system.eos
    shape = cons.shape[1:]
    D = cons[system.D].reshape(-1)
    tau = cons[system.TAU].reshape(-1)
    S2 = scratch_buf(scratch, ("c2p", "S2"), D.shape)
    S2.fill(0.0)
    sq = scratch_buf(scratch, ("c2p", "S2sq"), D.shape)
    for ax in range(system.ndim):
        np.square(cons[system.S(ax)].reshape(-1), out=sq)
        S2 += sq

    p_lo = _p_lower_bracket(D, S2, tau, p_floor, scratch=scratch)
    p = scratch_buf(scratch, ("c2p", "p"), D.shape)
    if p_guess is not None:
        np.maximum(p_guess.reshape(-1), p_lo, out=p)
    else:
        # Gamma-law-flavoured seed: thermal pressure of order the kinetic gap.
        np.sqrt(S2, out=p)
        np.subtract(tau, p, out=p)
        np.abs(p, out=p)
        np.multiply(p, 0.5, out=p)
        np.add(p, p_floor, out=p)
        np.maximum(p, p_lo, out=p)

    fused = getattr(system, "c2p_newton", None)
    if fused is not None:
        # Compiled per-cell Newton (the cext target's fused kernel). The C
        # loop mirrors the vectorized iteration below operation for
        # operation — same clips, same step, same convergence test —
        # so compiled and interpreted sweeps agree to the solver tolerance
        # (bit-exactly when the kernel was built without FP contraction).
        converged, newton_iters = fused(
            D, S2, tau, p, p_lo,
            tol=tol, p_floor=p_floor, max_newton=max_newton,
        )
    else:
        converged = np.zeros(D.shape, dtype=bool)
        newton_iters = 0
        for newton_iters in range(1, max_newton + 1):
            rho, eps, v2, f = _eval_state(eos, D, S2, tau, p, scratch=scratch)
            cs2 = np.clip(
                eos.sound_speed_sq(rho, np.maximum(eps, 1e-300)), 0.0, 1.0 - 1e-12
            )
            newly = np.abs(f) <= tol * np.maximum(p, p_floor)
            converged |= newly
            if converged.all():
                break
            dfdp = v2 * cs2 - 1.0  # strictly negative
            step = f / dfdp
            p_new = p - step
            # Keep the iterate inside the admissible region.
            p_new = np.maximum(p_new, 0.5 * (p + p_lo))
            p = np.where(converged, p, p_new)

    n_bisect = 0
    n_unbracketed = 0
    if not converged.all():
        # Bisection fallback on the stragglers only.
        bad = ~converged
        idx = np.nonzero(bad)[0]
        n_bisect = idx.size
        lo = p_lo[idx].copy()
        # Expand upper bracket until the residual changes sign. The seed is
        # scale-relative: anchoring it to the local pressure scale keeps the
        # bracket tight for atmosphere-level pressures (p ~ 1e-12), where an
        # absolute offset of order unity would cost ~40 bisections just to
        # return to the right magnitude.
        p_scale = np.maximum(np.maximum(p[idx], lo), p_floor)
        hi = np.maximum(p[idx] * 4.0, lo * 2.0 + 4.0 * p_scale)
        unbracketed = np.zeros(idx.shape, dtype=bool)
        for _ in range(60):
            _, _, _, f_hi = _eval_state(eos, D[idx], S2[idx], tau[idx], hi)
            unbracketed = f_hi > 0.0
            if not unbracketed.any():
                break
            hi = np.where(unbracketed, hi * 4.0, hi)
        else:
            # Expansion budget exhausted: re-evaluate at the final bracket so
            # the unbracketed mask reflects the hi actually bisected.
            _, _, _, f_hi = _eval_state(eos, D[idx], S2[idx], tau[idx], hi)
            unbracketed = f_hi > 0.0
        n_unbracketed = int(unbracketed.sum())
        for _ in range(max_bisect):
            mid = 0.5 * (lo + hi)
            _, _, _, f_mid = _eval_state(eos, D[idx], S2[idx], tau[idx], mid)
            take_low = f_mid > 0.0  # residual positive => root above mid
            lo = np.where(take_low, mid, lo)
            hi = np.where(take_low, hi, mid)
        p_bis = 0.5 * (lo + hi)
        _, _, _, f_fin = _eval_state(eos, D[idx], S2[idx], tau[idx], p_bis)
        # Bisection halves the bracket max_bisect times; accept a looser
        # relative residual than Newton, plus the cancellation noise floor
        # of the residual: eps = (Q(1-v^2)-p)/rho - 1 loses ~eps_mach * Q
        # absolutely, so demanding less is demanding noise. (The old
        # absolute 1e-12 was scale-wrong both ways: 100% error at
        # atmosphere-level pressures, yet below the noise floor for
        # Q >> 1.) Cells with no sign change bisected an unbracketed
        # interval: never accept them.
        noise = 64.0 * np.finfo(float).eps * (tau[idx] + D[idx] + p_bis)
        ok = np.abs(f_fin) <= 1e-8 * np.maximum(p_bis, p_floor) + noise
        ok &= ~unbracketed
        p[idx] = p_bis
        converged[idx] = ok

    n_failed = 0
    failed = None
    if not converged.all():
        failed = np.nonzero(~converged)[0]
        n_failed = int(failed.size)

    # Bounded failsafe: a small number of unrecoverable cells may be reset
    # to atmosphere instead of killing the run; past the budget we still
    # hard-fail.
    failsafed = (
        failed is not None
        and atmosphere is not None
        and failsafe_frac > 0.0
        and n_failed <= failsafe_frac * D.size
    )

    if stats is not None:
        # Populate counters before any raise: the failing sweep is exactly
        # the one whose accounting the caller needs.
        stats.n_cells += D.size
        stats.n_newton_converged += D.size - int(n_bisect)
        stats.n_bisection += int(n_bisect) - n_failed
        stats.n_failed += n_failed
        stats.n_unbracketed += n_unbracketed
        if failsafed:
            stats.n_failsafe += n_failed
        stats.max_iterations = max(stats.max_iterations, newton_iters)

    if failed is not None and not failsafed:
        raise RecoveryError(
            f"con2prim failed for {failed.size} cells "
            f"({n_unbracketed} unbracketed; "
            f"first few indices: {failed[:8].tolist()})",
            n_failed=n_failed,
            indices=failed[:1024],
        )

    rho, eps, v2, _ = _eval_state(eos, D, S2, tau, p, scratch=scratch)
    Q = scratch_buf(scratch, ("c2p", "Qfin"), D.shape)
    np.add(tau, D, out=Q)
    np.add(Q, p, out=Q)
    prim = np.empty_like(cons) if out is None else out
    prim[system.RHO] = rho.reshape(shape)
    for ax in range(system.ndim):
        np.divide(
            cons[system.S(ax)].reshape(-1), Q, out=sq
        )
        prim[system.V(ax)] = sq.reshape(shape)
    prim[system.P] = p.reshape(shape)

    if failsafed:
        reset_cells_to_atmosphere(system, cons, prim, failed, atmosphere)

    # Passive scalars (TracerSystem) recover algebraically after the hydro
    # sector: Y = D_Y / D.
    if hasattr(system, "recover_tracers"):
        system.recover_tracers(cons, prim)
    return prim


def reset_cells_to_atmosphere(
    system: SRHDSystem,
    cons: np.ndarray,
    prim: np.ndarray,
    flat_indices: np.ndarray,
    atmosphere: tuple[float, float],
) -> None:
    """Reset the given cells of a (cons, prim) pair to the static atmosphere.

    Both arrays are modified in place and stay mutually consistent
    (``cons = prim_to_con(prim)`` at the reset cells).  *flat_indices* are
    flat indices into the cell shape ``cons.shape[1:]``.
    """
    rho_a, p_a = atmosphere
    k = int(np.asarray(flat_indices).size)
    if k == 0:
        return
    prim_cells = np.zeros((system.nvars, k))
    prim_cells[system.RHO] = rho_a
    prim_cells[system.P] = p_a
    cons_cells = system.prim_to_con(prim_cells)
    cell_idx = np.unravel_index(np.asarray(flat_indices), cons.shape[1:])
    for var in range(system.nvars):
        cons[(var,) + cell_idx] = cons_cells[var]
        prim[(var,) + cell_idx] = prim_cells[var]
