"""Unit tests for repro.utils: parameters, timers, errors, logging."""

from __future__ import annotations

import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.utils import ConfigurationError, ParameterSet, Timer, TimerRegistry, param
from repro.utils.logging import get_logger, set_level


class DemoConfig(ParameterSet):
    cfl = param(0.5, float, lambda v: 0 < v <= 1, "CFL in (0,1]")
    scheme = param("mc", str, choices=("pc", "mc"))
    steps = param(10, int, lambda v: v > 0)


class TestParameterSet:
    def test_defaults(self):
        cfg = DemoConfig()
        assert cfg.cfl == 0.5
        assert cfg.scheme == "mc"

    def test_override(self):
        cfg = DemoConfig(cfl=0.25, scheme="pc")
        assert cfg.cfl == 0.25
        assert cfg.scheme == "pc"

    def test_int_promoted_to_float(self):
        assert DemoConfig(cfl=1).cfl == 1.0

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown parameter"):
            DemoConfig(nope=1)

    def test_bad_choice_rejected(self):
        with pytest.raises(ConfigurationError, match="not in"):
            DemoConfig(scheme="weno99")

    def test_check_failure_rejected(self):
        with pytest.raises(ConfigurationError, match="failed validation"):
            DemoConfig(cfl=1.5)

    def test_type_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="expected"):
            DemoConfig(scheme=3)

    def test_replace_returns_validated_copy(self):
        cfg = DemoConfig()
        cfg2 = cfg.replace(cfl=0.9)
        assert cfg2.cfl == 0.9
        assert cfg.cfl == 0.5
        with pytest.raises(ConfigurationError):
            cfg.replace(cfl=-1)

    def test_setattr_validates(self):
        cfg = DemoConfig()
        cfg.cfl = 0.75
        assert cfg.cfl == 0.75
        with pytest.raises(ConfigurationError):
            cfg.cfl = 2.0
        with pytest.raises(ConfigurationError):
            cfg.unknown = 1

    def test_to_dict_round_trip(self):
        cfg = DemoConfig(cfl=0.3)
        assert DemoConfig(**cfg.to_dict()) == cfg

    def test_repr_contains_values(self):
        assert "cfl=0.5" in repr(DemoConfig())


class TestTimer:
    def test_accumulates(self):
        t = Timer("t")
        for _ in range(3):
            with t:
                time.sleep(0.001)
        assert t.count == 3
        assert t.elapsed >= 0.003
        assert t.mean == pytest.approx(t.elapsed / 3)

    def test_double_start_raises(self):
        t = Timer("t").start()
        with pytest.raises(RuntimeError):
            t.start()
        t.stop()

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer("t").stop()

    def test_raising_block_discards_interval(self):
        """A raising timed block must not pollute the calibration data."""
        t = Timer("t")
        with t:
            time.sleep(0.001)
        elapsed_clean = t.elapsed
        with pytest.raises(ValueError):
            with t:
                time.sleep(0.001)
                raise ValueError("kernel blew up")
        assert t.elapsed == elapsed_clean
        assert t.count == 1
        assert t.aborted == 1
        # The timer is reusable after an abort.
        with t:
            pass
        assert t.count == 2

    def test_abort_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer("t").abort()

    def test_reset(self):
        t = Timer("t")
        with t:
            pass
        with pytest.raises(ValueError):
            with t:
                raise ValueError
        t.reset()
        assert t.count == 0 and t.elapsed == 0.0 and t.aborted == 0

    def test_registry_creates_and_reuses(self):
        reg = TimerRegistry()
        a = reg("kernel")
        assert reg("kernel") is a
        assert "kernel" in reg

    def test_registry_summary(self):
        reg = TimerRegistry()
        with reg("a"):
            pass
        s = reg.summary()
        assert "a" in s and "calls" in s
        assert TimerRegistry().summary() == "(no timers)"


class TestLogging:
    def test_namespacing(self):
        assert get_logger("core").name == "repro.core"
        assert get_logger("repro.core").name == "repro.core"

    def test_set_level(self):
        set_level("DEBUG")
        import logging

        assert logging.getLogger("repro").level == logging.DEBUG
        set_level(logging.WARNING)


class TestImportCost:
    def test_solver_imports_leave_the_optional_stack_unloaded(self):
        """Every process — each spawned rank worker included — imports
        ``repro``; none may pay for SciPy's optimizer (only the exact
        Riemann solution calls it), SymPy or NetworkX (codegen and the task
        DAG, on the numpy path) before something uses them."""
        probe = (
            "import sys\n"
            "import repro, repro.core.parallel, repro.core.amr_parallel, repro.serve\n"
            "heavy = [m for m in ('scipy', 'sympy', 'networkx') if m in sys.modules]\n"
            "assert not heavy, heavy\n"
            "from repro.physics.initial_data import RP1\n"
            "exact = repro.ExactRiemannSolver(RP1.left, RP1.right, RP1.gamma)\n"
            "assert abs(exact.p_star - 1.4477) < 1e-3, exact.p_star\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr[-2000:]


class TestOptionSurface:
    """The house rule "no new knob without removing one", as assertions: a
    PR that adds a config field, environment variable or CLI flag — or
    brings a retired name back — has to edit this class, visibly."""

    SRC = Path(__file__).resolve().parents[1] / "src"

    def _sources(self):
        return {p: p.read_text() for p in sorted(self.SRC.rglob("*.py"))}

    def test_knobs_are_exactly_these(self):
        import argparse
        import dataclasses

        from repro.cli import _build_parser
        from repro.core.amr_solver import AMRConfig
        from repro.core.config import SolverConfig
        from repro.resilience.policies import SupervisionPolicy

        assert set(SolverConfig().to_dict()) == {
            "reconstruction", "riemann", "integrator", "cfl", "rho_atmo",
            "p_atmo", "atmo_threshold", "w_max", "recovery_tol",
            "failsafe_frac", "overlap_exchange", "executor", "kernel_target",
            "max_steps",
        }  # 14
        assert set(AMRConfig().to_dict()) == {
            "block_size", "max_levels", "refine_threshold", "coarsen_threshold",
            "regrid_interval", "initial_regrid_passes", "reflux", "partitioner",
            "rebalance_threshold",
        }  # 9
        assert {f.name for f in dataclasses.fields(SupervisionPolicy)} == {
            "max_rank_restarts", "backoff_base_s", "backoff_cap_s",
            "heartbeat_interval_s", "hang_timeout_s", "quiesce_timeout_s",
            "snapshot_every", "degrade",
        }  # 8
        # REPRO_INLINE and REPRO_CLONES are C macros in the generated source
        # (the second a compile-time capability guard), not variables.
        env = {
            name
            for text in self._sources().values()
            for name in re.findall(r"REPRO_[A-Z_]+", text)
        } - {"REPRO_INLINE", "REPRO_CLONES"}
        assert env == {"REPRO_CEXT_DISABLE", "REPRO_CEXT_CACHE", "REPRO_LOG"}
        (subparsers,) = (
            a for a in _build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        long_options = {
            name: sum(
                opt.startswith("--") and opt != "--help"
                for action in sub._actions for opt in action.option_strings
            )
            for name, sub in subparsers.choices.items()
        }
        assert long_options == {
            "run": 17, "amr": 15, "experiment": 0, "info": 0, "serve": 4,
            "sweep": 8, "cache": 2,
        }

    def test_retired_names_stay_retired(self):
        """Outside the one table that exists to name them (so archives that
        carry them keep loading), no source file mentions a retired knob."""
        retired = (
            "c2p_tuned", "positivity_guess", "newton_damping",
            "scratch_workspace", "fused_stencils", "overlap_link",
            "cext_pointwise", "REPRO_CEXT_STENCIL_DISABLE", "BatchPipeline",
            "metrics_dir", "DistributedAMRSolver", "amr_distributed", "--workers",
            "load_cext_kernel", "cfl_char_speeds",
        )
        for path, text in self._sources().items():
            if path.name == "checkpoint.py":
                text, n = re.subn(
                    r"^_RETIRED_CONFIG_KEYS = \{.*?^\}", "", text,
                    flags=re.DOTALL | re.MULTILINE,
                )
                assert n == 1
            found = [name for name in retired if name in text]
            assert not found, f"{path.relative_to(self.SRC)} mentions {found}"
