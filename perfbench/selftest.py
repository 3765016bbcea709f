"""Tests of the benchmark's tracer.

    python3 perfbench/selftest.py

Installing the tracer must wrap every binding of each traced function, also
those made by ``from .x import f`` and by the package namespace; uninstalling
must leave every package attribute exactly as it was.  ``run.py`` checks the
latter again at the end of every run.
"""

import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import slabresonance  # noqa: E402
import slabresonance.cli  # noqa: E402,F401  (imports every layer)
import tracing  # noqa: E402
from slabresonance import expansion, lattice, modes, scattering  # noqa: E402
from slabresonance.errors import WoodAnomalyError  # noqa: E402

CASE2 = lattice.LatticeConfig.from_json(BENCH.parent / "configs" / "case2_symmetric.json")


def snapshot():
    return {(mod.__name__, attr): obj for mod in tracing.package_modules()
            for attr, obj in vars(mod).items()}


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.before = snapshot()
        self.tracer = tracing.Tracer()
        self.tracer.install()

    def tearDown(self):
        self.tracer.uninstall()
        after = snapshot()
        self.assertEqual(after.keys(), self.before.keys())
        for key, obj in self.before.items():
            self.assertIs(after[key], obj, key)
        self.assertEqual(tracing.wrapped_bindings(), [])

    def test_every_binding_wrapped(self):
        for mod, attr in ((scattering, "eigen_branch"), (modes, "eigen_branch"),
                          (expansion, "eigen_branch"), (slabresonance, "eigen_branch"),
                          (lattice, "order_arrays"), (modes, "order_arrays"),
                          (slabresonance.cli, "main")):
            self.assertTrue(hasattr(getattr(mod, attr), tracing.MARK),
                            f"{mod.__name__}.{attr}")
        self.assertIs(modes.eigen_branch, scattering.eigen_branch)
        self.assertFalse(hasattr(slabresonance.cli.cmd_transmission, tracing.MARK))
        self.assertFalse(hasattr(modes._root_with_halving, tracing.MARK))

    def test_spans_nest(self):
        modes.omega_root(0.0, 1.497, CASE2)
        spans = self.tracer.take()
        names = [s[tracing.NAME] for s in spans]
        self.assertEqual(names[0], "modes.omega_root")
        eig = [i for i, n in enumerate(names) if n == "scattering.eigen_branch"]
        self.assertTrue(eig)
        for i in eig:
            self.assertEqual(spans[i][tracing.PARENT], 0)
            self.assertEqual(names[i + 1], "lattice.interaction_matrix")
            self.assertEqual(spans[i + 1][tracing.PARENT], i)
        stats = tracing.function_stats(spans)
        self.assertEqual(stats["scattering.eigen_branch"]["calls"], len(eig))
        self.assertTrue(all(st["self_s"] >= 0 for st in stats.values()))
        derived = tracing.derived_counts(spans, curves=0)
        self.assertEqual(derived["modes.omega_root.eig_per_root"], len(eig))
        self.assertEqual(self.tracer.spans, [])

    def test_failure_marks_every_open_span(self):
        with self.assertRaises(WoodAnomalyError):
            scattering.solve_scattering(lattice.SpectralPoint(0.0, 0.0), CASE2)
        spans = self.tracer.take()
        self.assertEqual([(s[tracing.NAME], s[tracing.FAILED]) for s in spans],
                         [("scattering.solve_scattering", True),
                          ("lattice.propagating_orders", True)])


if __name__ == "__main__":
    unittest.main()
