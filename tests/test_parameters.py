"""The parameter layer through the package API.

Every record checks the ranges of its own fields when it is built, and
every procedure argument that belongs to no record has one precondition
function; a rejected value raises a ValueError whose message starts with
the field or argument name.  The fuzz draws finite floats for all of
them and runs the gate, with warnings as errors.
"""

import math
import warnings
from dataclasses import fields

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from spingate import circuit as ct
from spingate import experiment as ex
from spingate import logic as lg
from spingate import physics as ph
from spingate import signal as sig

RECORDS = (ph.FilmParams, ph.BiasField, ct.DeviceGeometry,
           ct.MicrowaveSettings, lg.PhaseEncoding, ex.SwitchTiming)
FIELDS = {f.name for record in RECORDS for f in fields(record)}
ARGUMENTS = {"lp_cutoff", "responsivity", "effective_path", "scales"}
PHYSICS = (ph.BandError, ex.CalibrationError, ex.RunwayError,
           sig.NoTransitionError)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
NEAR = st.floats(0.998, 1.002)


class Draw:
    """Values near the defaults, any finite float for the wild names.

    A wild value is any finite float (or None where None is allowed);
    the others are their default rescaled by 0.998-1.002, so most draws
    reach the procedures.  Spans of the switching record are drawn in
    units of dt: at most 8192 samples in the record, so no draw
    allocates more than a few MB.
    """

    def __init__(self, draw, wild):
        self.draw, self.wild = draw, wild

    def __call__(self, name, default):
        if name in self.wild:
            return self.draw(FINITE)
        return default * self.draw(NEAR)

    def optional(self, name, value):
        if name in self.wild and self.draw(st.booleans()):
            return None
        return value

    def triple(self, name, default):
        return tuple(self(name, d) for d in default)

    def span(self, name, dt, default):
        ratio = (st.floats(-4.0, 8192.0) if name in self.wild
                 else NEAR.map(lambda r: default * r))
        return self.draw(ratio.map(lambda r: r * dt).filter(math.isfinite))


WILD = sorted(FIELDS | ARGUMENTS | {"ref_phase"})


def named(err, names):
    return str(err).split()[0] in names


def assert_finite(*values):
    for value in values:
        assert np.all(np.isfinite(value)), values


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_api_fuzz_rejects_by_name_or_runs_finite(data):
    # each draw ends in a ValueError naming a field at construction, a
    # ValueError naming an argument at the call, a documented physics
    # error, or finite gains, truth table and switching results; never
    # an OverflowError, a ZeroDivisionError or a warning
    draw = data.draw
    v = Draw(draw, draw(st.sets(st.sampled_from(WILD), max_size=3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            film = ph.FilmParams(Ms=v("Ms", 0.185 / ph.MU0), d=v("d", 5.4e-6),
                                 gamma=v("gamma", ph.GAMMA_DEFAULT),
                                 mu0_dh0=v("mu0_dh0", 6.2e-5))
            # carriers inside each branch's band at the default film
            orientation, f_c = draw(st.sampled_from([
                (ph.Orientation.PARALLEL, 6.035e9),
                (ph.Orientation.PERPENDICULAR, 6.09e9)]))
            bias = ph.BiasField(v("mu0_h", 0.1429), orientation)
            geometry = ct.DeviceGeometry(
                w_g=v("w_g", 1.5e-3), w_a=v("w_a", 7.5e-5),
                l_in=v.triple("l_in", (10e-3, 10e-3, 10e-3)),
                l_skew=v.triple("l_skew", (6e-3, 0.0, 6e-3)),
                l_out=v("l_out", 10e-3), bend_loss_db=v("bend_loss_db", 3.0),
                scale=v("scale", 1.0))
            controls = ct.MicrowaveSettings(
                f_c=v("f_c", f_c), drive_amplitude=v("drive_amplitude", 1.0),
                attenuator_db=v.triple("attenuator_db", (1.0, 0.0, 2.0)),
                phase_rad=v.triple("phase_rad", (0.1, 0.0, -0.1)),
                coupling_db=v.triple("coupling_db", (-0.5, 0.0, -1.2)),
                coupling_phase_rad=v.triple("coupling_phase_rad",
                                            (0.35, 0.0, -0.65)),
                output_coupling_db=v("output_coupling_db", 1.0))
            enc = lg.PhaseEncoding(phi0=v("phi0", 0.3),
                                   guard=v("guard", 0.75))
            dt = v("dt", 1e-10)
            timing = ex.SwitchTiming(
                dt=dt, duration=v.span("duration", dt, 4096.0),
                t_toggle=v.optional("t_toggle", v.span("t_toggle", dt, 2000.0)),
                ramp=v.span("ramp", dt, 20.0),
                analysis_pre=v.span("analysis_pre", dt, 400.0),
                analysis_post=v.span("analysis_post", dt, 2400.0))
        except ValueError as err:
            event("record rejected")
            assert named(err, FIELDS), err
            return

        nl = ct.build_majority_gate(geometry, ph.ModeContext(film, bias),
                                    controls)
        assert_finite(nl.carrier_gains)
        for row in lg.truth_table(nl, enc).rows:
            assert_finite(row.out_amplitude, row.out_phase, row.margin)
        kwargs = {"enc": enc, "timing": timing,
                  "lp_cutoff": v.optional("lp_cutoff", v("lp_cutoff", 5.0e8)),
                  "responsivity": v("responsivity", 1.0)}
        path = v("effective_path", 1.3487e-3)
        try:
            nl, _ = ex.calibrate(nl)
            assert_finite(nl.carrier_gains)
            run = ex.run_switching(nl, ref_phase=v("ref_phase", math.pi),
                                   effective_path=path, **kwargs)
            assert_finite(run.trace.samples, run.t_rise, run.f_clock,
                          run.levels)
            scales = [v("scales", s) for s in (1.0, 0.5, 0.2)[:draw(
                st.integers(0, 3))]]
            study = ex.scaling_study(nl, scales, path, **kwargs)
            assert_finite(study.ramp_floor)
        except PHYSICS as err:
            event(type(err).__name__)
            return
        except ValueError as err:
            event("argument rejected")
            assert named(err, ARGUMENTS), err
            return
        event("ran")
