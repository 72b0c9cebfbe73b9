"""Determinism rule: all randomness flows from named, seeded streams.

The simulation's claim to be "a pure function of (config, seed)" — and
with it every figure in EXPERIMENTS.md — rests on every random draw
coming from :class:`repro.sim.rng.StreamFactory`.  Wall-clock reads and
unordered iteration break the same claim, but those make two replays
diverge, so ``repro-dsan`` and the golden replays catch them at runtime;
an ad-hoc generator seeded with a constant replays identically and only
this rule sees it.
"""

from __future__ import annotations

import ast

from . import Rule, dotted_name, register


@register
class RngOutsideStreamFactory(Rule):
    """RPL002: every ``np.random`` generator must come from ``StreamFactory``.

    Applies to ``src/repro/`` outside ``sim/rng.py``.  Ad-hoc
    ``np.random.default_rng(seed)`` calls fracture the seed space: two
    components seeded 0 draw identical sequences (hidden correlation),
    and adding a component shifts every later draw (run-to-run drift).
    Named streams derived from one root seed have neither problem.
    """

    id = "RPL002"
    title = "np.random generator created outside repro.sim.rng"
    hint = "use StreamFactory(seed).stream('component-name') from repro.sim.rng"

    @classmethod
    def applies_to(cls, ctx) -> bool:
        """Everywhere the tree policy allows; sim/rng.py itself is exempt."""
        return not ctx.is_rng_module

    def visit_Call(self, node: ast.Call) -> None:
        """Flag any ``np.random.*()`` / ``numpy.random.*()`` call."""
        chain = dotted_name(node.func)
        if len(chain) >= 3 and chain[0] in ("np", "numpy") and chain[1] == "random":
            self.report(
                node,
                f"{'.'.join(chain)}() bypasses the named-stream discipline",
            )
        self.generic_visit(node)

