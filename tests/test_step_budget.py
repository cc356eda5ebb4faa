"""The per-step dispatch budget: spherehead's own Python frames in one warmed B = 32 step.

``tests/step_budget.py`` counts them with ``sys.setprofile``. The counts
are exact and do not depend on the machine, so they are pinned as
ceilings: a change that adds frames to the step has to raise a ceiling
on purpose. numpy's wrapper frames change with the numpy version, so
they are reported by ``python -m tests.step_budget`` and not pinned.
"""

import pytest

from spherehead import train

from .step_budget import count_step, fit_step, spirals_model, warmed_step

# (family, lift): spherehead frames per warmed step, at most
FRAME_CEILINGS = {("cce", False): 33, ("arcface", True): 52, ("broadface", True): 70}
CONFIGS = pytest.mark.parametrize("family, lift", list(FRAME_CEILINGS),
                                  ids=[f"{f}-{'lift' if p else 'nolift'}" for f, p in FRAME_CEILINGS])


@CONFIGS
def test_spherehead_frames_per_step(family, lift):
    counts = count_step(warmed_step(family, lift))
    assert counts["spherehead"] <= FRAME_CEILINGS[family, lift], counts


@CONFIGS
def test_counted_step_is_fits_step(family, lift):
    """One epoch of the counted step leaves the parameters ``fit``'s one epoch leaves, bit for bit."""
    model, ds, opt = spirals_model(family, lift)
    step = fit_step(model, ds, opt)
    for _ in range(-(-len(ds) // opt.batch_size)):
        step()
    counted = [p.data.tobytes() for p in model.parameters()]
    model, ds, opt = spirals_model(family, lift)
    train.fit(model, ds, opt)
    assert [p.data.tobytes() for p in model.parameters()] == counted
