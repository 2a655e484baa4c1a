"""The compiled module's ABI: what a caller of the ``cext`` kernels names.

Entry-point names, the scheme dispatch ids, the stencil reach and tile
widths, and the team thresholds the generated C bakes in.  This module
imports nothing (no SymPy): :mod:`repro.codegen.cext` and
:mod:`repro.codegen.system` read it on a warm start, which loads a stored
spec instead of generating one.  The generator prints these values into the
C source, so this file's bytes are part of the stored spec's key
(:data:`repro.codegen.cext.SPEC_FILES`).
"""

#: Runtime dispatch ids baked into the fused stencil kernels.  The ids are
#: part of the compiled ABI: they select the reconstruction family, the
#: slope limiter, and the Riemann solver *per call*, so one compiled
#: ``face_flux`` entry point per axis serves every supported scheme combo
#: (instead of compiling the full cross product into separate symbols).
STENCIL_RECON_IDS = {"pc": 0, "tvd": 1, "ppm": 2, "weno5": 3, "wenoz": 4}
STENCIL_LIMITER_IDS = {"minmod": 0, "mc": 1, "vanleer": 2, "superbee": 3}
STENCIL_RIEMANN_IDS = {"llf": 0, "hll": 1, "hllc": 2}
#: Cells a sweep reads beyond its faces, ``(left, right)`` per recon id: a
#: sweep of ``n_faces`` faces whose first left cell is ``j0`` touches cells
#: ``j0 - left .. j0 + n_faces + right - 1`` along the working axis.
STENCIL_REACH = {0: (0, 1), 1: (1, 2), 2: (2, 3), 3: (2, 3), 4: (2, 3)}
#: Faces per tile of the row schedule (sizes its stack scratch).
STENCIL_TILE = 128
#: Cells per tile of the recovery sweep, whose lanes iterate Newton in lockstep.
C2P_LANES = 16

#: Name of the fused conservative-to-primitive Newton kernel in the
#: compiled module (the one kernel not generated from the symbolic spec:
#: it is an iterative loop, not an expression list, so it is emitted from
#: a template that mirrors the vectorized Python iteration line by line).
CON2PRIM_KERNEL = "con2prim_newton_cext"

#: The one-pass recovery sweep and its CFL scan (a template, like the loop).
RECOVER_KERNEL = "recover_%dd_cext"

#: The update stage: a region's divergence subtracted into ``dU``, and one
#: SSP-RK stage combination (ndim-independent: a flat loop over the state).
ACCUMULATE_KERNEL = "accumulate_%dd_cext"
RK_STAGE_KERNEL = "rk_stage_cext"

#: The AMR gather program: a ghost fill or a reflux in one call.
AMR_PROGRAM_KERNEL = "amr_program_%dd_cext"

#: The fused face-flux sweep along one axis (``% (axis, ndim)``).
FACE_FLUX_KERNEL = "face_flux_ax%d_%dd_cext"

#: Which sweep clone the loader picked on this host: 1 = avx2, 0 = baseline.
SIMD_LEVEL_DECL = "int repro_simd_level(void)"
#: The kernels' OpenMP team size: set when ``n > 0``, returned (1 in a
#: module built without OpenMP).
THREADS_DECL = "int repro_threads(int n)"

#: Weighted work below which an entry point runs its serial branch and never
#: calls into libgomp: a call of *work* cells or faces (each entry point
#: counts its own, see :data:`TEAM_COST`) teams from
#: ``TEAM_COST[kernel] * work >= TEAM_MIN_WORK``.
TEAM_MIN_WORK = 4096

#: Each entry point's cost per unit of its work, relative to the short,
#: memory-bound ``accumulate`` and ``rk_stage``: ``TEAM_MIN_WORK`` over the
#: work at which 2 threads first beat 1 on the layout that gains last,
#: rounded down to a power of two.  Measured on a 2-vCPU Xeon (gcc 12.2),
#: the C time of one call on the threshold-0 build, stacks of 8^2 leaves,
#: single N^2 patches and 1-D batches of B x 256:
#:
#: ============  ===============  =========  ====================================
#: entry point   work             crossover  2 vs 1 thread
#: ============  ===============  =========  ====================================
#: face_flux     rows x faces     ~500       x1.4 at 2 leaves (144), x1.6 at a
#:                                           batch of 2 (514), x0.9 at one of 1
#: recover       ghosted cells    ~500-900   x1.2 at 4 leaves (784), x1.4 at
#:                                           24^2 (900), x0.9 at 16^2 (484)
#: rk_stage      ghosted cells    ~3000      x1.0 at 32^2 (1444), x1.2 at 48^2
#: accumulate    rows x width     >4096      x1.2 at 32 leaves (2048); a strided
#:                                           batch stays below x1 up to 8192
#: ============  ===============  =========  ====================================
#:
#: So AMR's stacks of 8^2 leaves team their sweeps from 8 leaves (576 faces)
#: and their recovery from 3, while a lone 8^2 leaf (196 ghosted cells)
#: stays serial.
TEAM_COST = {"face_flux": 8, "recover": 8, "rk_stage": 1, "accumulate": 1}
