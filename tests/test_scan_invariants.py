"""Physical invariants of the NV scan, checked on P1, P2 and P3.

These tie the scan's bytes to physics rather than to its own earlier output:
- periodicity in t_R: the wait turns the nucleus about e_z by ``omega_n t_R``,
  and the grid's first and last columns, at -T_R/2 and T_R/2, sit one period
  apart;
- azimuthal symmetry: the field is along e_z and the electron is read out
  through its own azimuth, so turning the hyperfine vector about e_z changes
  nothing physical.

Lifetimes are compared exactly.  Floats are compared to a rounding bound,
built from this error model: a unit vector computed through rotations
totalling ``turned`` radians, composed from ``composed`` rotations, lands
within ``eps (turned + composed)`` of its exact value (each angle rounds to
within ``eps / 2`` of itself, and each rotation's entries and products to
within ``eps / 2``).  The residual ``2 asin(|m - h| / 2)`` depends on two
such vectors, ``m`` and ``h``, so between two computations it moves by at
most twice the sum of their errors, over ``cos(residual / 2)``.
"""

import dataclasses
import math

import numpy as np
import pytest

from qndspin.nv import (
    PRESETS,
    default_tau_grid,
    default_tr_grid,
    nv_system,
    room_temp_readout,
    scan_2d,
    tolerance_profile,
)

EPS = np.finfo(float).eps


def small_scan(params):
    """A 16 x 32 scan over the default windows with ``n_max`` 2e5."""
    tau_grid, tr_grid = default_tau_grid(params, 16), default_tr_grid(params, 32)
    return scan_2d(params, tau_grid, tr_grid, room_temp_readout(0.1, 0.07), n_max=200_000)


def residual_bound(residuals, error):
    """How far a residual can move when each of its two unit vectors moves by ``error``."""
    return 2.0 * error / np.cos(residuals / 2.0)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_first_and_last_t_r_columns_are_one_period_apart(name):
    params = PRESETS[name]
    scan = small_scan(params)
    first, last = scan.lifetimes[:, 0], scan.lifetimes[:, -1]
    assert np.array_equal(first, last), f"{name}: N_L differs at rows {np.nonzero(first != last)}"
    # only the wait turns differ: by their float distance from a whole period,
    # and by the rounding of a turn of pi and the two products that apply it
    turns = params.omega_n * scan.tr_grid[[0, -1]]
    off_period = abs(abs(turns[1] - turns[0]) - 2.0 * math.pi) + 2.0 * math.pi * EPS
    error = off_period + 2.0 * EPS * (math.pi + 2.0)
    worst = np.maximum(scan.residuals[:, 0], scan.residuals[:, -1])
    moved = np.abs(scan.residuals[:, 0] - scan.residuals[:, -1])
    assert np.all(moved <= residual_bound(worst, error))


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_turning_the_hyperfine_vector_about_e_z_changes_nothing(name):
    params = PRESETS[name]
    a_x, a_y, a_z = params.a_mhz
    radius = math.hypot(a_x, a_y)
    turned_a = (radius * math.cos(1.0), radius * math.sin(1.0), a_z)
    turned = dataclasses.replace(params, a_mhz=turned_a)
    scan, turned_scan = small_scan(params), small_scan(turned)

    cells = scan.lifetimes != turned_scan.lifetimes
    assert not cells.any(), f"{name}: N_L differs at {np.argwhere(cells).tolist()}"

    # each scan turns by its DD sequence, at most |omega +- A/2| t_DD, and by
    # its wait, at most pi; it composes 2 N_DD + 1 intervals, then the
    # extraction and the cycle rotation (4 more).  The turned A_MHz itself is
    # rounded (cos 1, sin 1, the radius and a product), which moves every
    # turn of the second scan by up to 2 eps per radian: its turns count twice.
    system = nv_system(params)
    fields = system.omega + np.outer([1.0, -1.0], system.hyperfine / 2.0)
    rows_turned = scan.t_dd_grid * np.linalg.norm(fields, axis=1).max() + math.pi
    composed = 2 * params.n_dd + 1 + 4
    error = EPS * (3.0 * rows_turned + 2.0 * composed)
    worst = np.maximum(scan.residuals, turned_scan.residuals)
    moved = np.abs(scan.residuals - turned_scan.residuals)
    assert np.all(moved <= residual_bound(worst, error[:, None]))

    # the t_R grid does not depend on A, so with the same answer at every probe
    # an edge moves only with its seed, a QND root the rounding above moves by a
    # few ulps of the window's times: allow 8 per edge, two edges per interval
    # and up to 4 intervals per row
    widths, turned_widths = tolerance_profile(scan)[:, 1], tolerance_profile(turned_scan)[:, 1]
    assert np.all(np.abs(widths - turned_widths) <= 64 * np.spacing(scan.tr_grid[-1]))
