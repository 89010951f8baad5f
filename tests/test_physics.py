"""Physics the numpy reference and the compiled kernel must both obey.

The bitwise tests pin the two paths to each other; these pin both to the
hydrodynamics the model stands for, so an error they share still fails.
Each runs the check that `thermolb validate physics` prints.
"""

import pytest

from thermolb import validate


def test_shear_wave_decays_at_the_viscous_rate():
    name, ok, detail = validate.shear_wave()
    assert ok, f"{name}: {detail}"


@pytest.mark.parametrize("tau", validate.BODY_FORCE_TAUS)
@pytest.mark.parametrize("model", ["D2Q37", "D2Q9"])
def test_body_force_moves_momentum_by_mass_times_g(model, tau):
    name, ok, detail = validate.body_force(model, tau)
    assert ok, f"{name}: {detail}"
