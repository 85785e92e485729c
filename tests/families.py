"""Every built-in seminorm family, built for n atoms, shared by the tests.

Each declares ``axioms_by_construction``, so ``polar`` skips the randomized
axiom screen on them; ``test_norms`` backs that declaration and
``test_axiom_batch`` checks their row evaluators.
"""

import math

from kothe import (
    FiniteProbSpace,
    MusielakFamily,
    avar,
    entropic,
    phi_sqrt,
    phi_tabulated,
    young_exponential,
    young_power,
    young_tabulated,
)
from kothe.duality import _AmemiyaDualNorm, dual_spec_of
from kothe.norms import GenOrliczNorm, LorentzNorm, LpNorm, LuxemburgNorm, MarcinkiewiczNorm, RiskNorm

_PHI_TAB = phi_tabulated([0.0, 0.3, 1.0], [0.0, 0.6, 1.0])
_YOUNG_TAB = young_tabulated([0.0, 0.5, 1.0, 2.0], [0.0, 0.25, 1.0, 3.0])
BUILTIN_FAMILIES = {
    **{f"L{p:g}": (lambda p: lambda n: LpNorm(p))(p) for p in (1.0, 1.5, 2.0, 3.0, math.inf)},
    "marcinkiewicz_sqrt": lambda n: MarcinkiewiczNorm(phi_sqrt()),
    "marcinkiewicz_tabulated": lambda n: MarcinkiewiczNorm(_PHI_TAB),
    "lorentz_sqrt": lambda n: LorentzNorm(phi_sqrt()),
    "lorentz_tabulated": lambda n: LorentzNorm(_PHI_TAB),
    "luxemburg_power": lambda n: LuxemburgNorm(MusielakFamily.constant(young_power(2.3), n)),
    "luxemburg_exp": lambda n: LuxemburgNorm(MusielakFamily.constant(young_exponential(), n)),
    "luxemburg_tabulated": lambda n: LuxemburgNorm(MusielakFamily.constant(_YOUNG_TAB, n)),
    "avar": lambda n: RiskNorm(avar(0.3)),
    "entropic": lambda n: RiskNorm(entropic(2.0)),
    "gen_orlicz_lp": lambda n: GenOrliczNorm(young_power(2.0), LpNorm(1.5)),
    "gen_orlicz_lorentz": lambda n: GenOrliczNorm(young_exponential(), LorentzNorm(phi_sqrt())),
    "avar_dual": lambda n: dual_spec_of(FiniteProbSpace.uniform(n), RiskNorm(avar(0.3))),
    "amemiya_dual_luxemburg": lambda n: _AmemiyaDualNorm(
        LuxemburgNorm(MusielakFamily.constant(young_power(2.3), n))
    ),
    "amemiya_dual_entropic": lambda n: _AmemiyaDualNorm(RiskNorm(entropic(2.0))),
}
