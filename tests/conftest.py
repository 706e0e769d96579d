import pytest
from hypothesis import HealthCheck, settings

from hpseries.hpoincare import PoincareSpec, Weight
from hpseries.qfield import (
    EUCLIDEAN_D,
    DualIndex,
    ideal_from_gen,
    make_field,
    trace_one_totally_positive,
)

settings.register_profile(
    "pkg",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("pkg")


@pytest.fixture(scope="session")
def field5():
    return make_field(5)


@pytest.fixture(scope="session")
def nu5(field5):
    # omega/sqrt(5): totally positive, trace 1, frequency (1, 1)
    return DualIndex.from_numerator(field5, field5.omega)


@pytest.fixture(scope="session")
def mu5(field5):
    # (omega-1)/sqrt(5): the other trace-1 totally positive index, freq (1, 0)
    return DualIndex.from_numerator(field5, field5.element(-1, 1))


@pytest.fixture(scope="session")
def unit_ideal5(field5):
    return ideal_from_gen(field5.one)


# (d, weight, level generator) for the reflection checks: every Euclidean
# field at parallel weight and level 1, plus non-parallel weight over norm
# +1 units (d = 3, 7), levels 2 and 3
_SYMMETRY_CASES = (
    [(d, (8, 8), 1) for d in EUCLIDEAN_D]
    + [(3, (5, 7), 1), (7, (5, 7), 1), (5, (6, 6), 2), (13, (8, 8), 3)])


# each id ends in the name of the one Gamma_inf convention, as every
# payload snapshot records it
@pytest.fixture(params=_SYMMETRY_CASES,
                ids=[f"d{d}-k{k[0]},{k[1]}-level{g}-unit_extended"
                     for d, k, g in _SYMMETRY_CASES])
def symmetry_spec(request):
    d, k, level_gen = request.param
    f = make_field(d)
    return PoincareSpec(field=f, weight=Weight(*k),
                        nu=trace_one_totally_positive(f, 8)[-1],
                        level=ideal_from_gen(f.element(level_gen, 0)))
